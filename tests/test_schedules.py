import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorefield.errors import InvalidData, InvalidInput, UnsupportedFramework
from scorefield.schedules import (
    EdmSchedule,
    TableSchedule,
    VpSchedule,
    convert_notation,
    karras_grid,
    parse_grid_spec,
    parse_schedule_spec,
    schedule_from_config,
    vp_schedule,
)


class TestKarrasGrid:
    def test_reported_levels(self):
        # published 18-level grid: level 5 is 12.9 and level 7 is 5.3
        grid = karras_grid(0.002, 80.0, 7.0, 18)
        assert round(grid.levels[5], 1) == 12.9
        assert round(grid.levels[7], 1) == 5.3

    def test_two_levels(self):
        grid = karras_grid(0.1, 10.0, 7.0, 2)
        np.testing.assert_array_equal(grid.levels, [10.0, 0.1])

    def test_endpoints_exact(self):
        grid = karras_grid(0.002, 80.0, 7.0, 50)
        assert grid.levels[0] == 80.0
        assert grid.levels[-1] == 0.002

    def test_formula(self):
        smin, smax, rho, n = 0.01, 20.0, 3.0, 7
        grid = karras_grid(smin, smax, rho, n)
        for i in range(n):
            expected = (smax ** (1 / rho) + i / (n - 1) * (smin ** (1 / rho) - smax ** (1 / rho))) ** rho
            np.testing.assert_allclose(grid.levels[i], expected, rtol=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(InvalidInput):
            karras_grid(0.0, 80.0, 7.0, 18)
        with pytest.raises(InvalidInput):
            karras_grid(1.0, 0.5, 7.0, 18)
        with pytest.raises(InvalidInput):
            karras_grid(0.002, 80.0, -1.0, 18)
        with pytest.raises(InvalidInput):
            karras_grid(0.002, 80.0, 7.0, 1)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("field", ["sigma_min", "sigma_max", "rho"])
    def test_non_finite_field_named(self, field, value):
        params = {"sigma_min": 0.002, "sigma_max": 80.0, "rho": 7.0, field: value}
        with pytest.raises(InvalidInput, match=f"^{field} must be finite, got {value}$"):
            karras_grid(**params, n_step=18)
        spec = ":".join(str(params[name]) for name in ("sigma_min", "sigma_max", "rho"))
        with pytest.raises(InvalidInput, match=f"^{field} must be finite, got {value}$"):
            parse_grid_spec(f"{spec}:18")

    def test_index_and_truncate(self):
        grid = karras_grid(0.002, 80.0, 7.0, 18)
        assert grid.index_of(grid.levels[5]) == 5
        assert grid.index_of(123.0) is None
        tail = grid.truncate_from(5)
        np.testing.assert_array_equal(tail.levels, grid.levels[5:])


@settings(max_examples=100, deadline=None)
@given(
    smin=st.floats(1e-4, 1.0),
    ratio=st.floats(1.5, 1e5),
    rho=st.floats(0.5, 10.0),
    n=st.integers(2, 100),
)
def test_grid_monotone_endpoints_property(smin, ratio, rho, n):
    grid = karras_grid(smin, smin * ratio, rho, n)
    assert np.all(np.diff(grid.levels) < 0)
    assert grid.levels[0] == smin * ratio
    assert grid.levels[-1] == smin
    assert len(grid) == n


class TestVpSchedule:
    def test_t0(self):
        sched = vp_schedule(0.1, 20.0)
        assert float(sched.alpha(0.0)) == 1.0
        assert float(sched.sigma(0.0)) == 0.0

    def test_constant_beta(self):
        b = 0.8
        sched = vp_schedule(b, b, T=2.0)
        for t in (0.0, 0.5, 1.3, 2.0):
            np.testing.assert_allclose(sched.alpha(t), np.exp(-b * t / 2.0), rtol=1e-14)

    def test_variance_preserved(self):
        sched = vp_schedule(0.1, 20.0)
        t = np.linspace(0.0, 1.0, 1000)
        a, s = sched.alpha(t), sched.sigma(t)
        np.testing.assert_allclose(a**2 + s**2, np.ones_like(t), atol=1e-12)

    def test_monotonicity(self):
        sched = vp_schedule(0.1, 20.0)
        t = np.linspace(0.0, 1.0, 500)
        assert np.all(np.diff(sched.alpha(t)) <= 0)
        assert np.all(np.diff(sched.sigma(t)) >= 0)

    def test_sigma_dot_matches_finite_difference(self):
        sched = vp_schedule(0.1, 20.0)
        h = 1e-7
        for t in (0.05, 0.3, 0.7, 0.95):
            fd = (float(sched.sigma(t + h)) - float(sched.sigma(t - h))) / (2 * h)
            np.testing.assert_allclose(float(sched.sigma_dot(t)), fd, rtol=1e-6)

    def test_invalid_beta(self):
        with pytest.raises(InvalidInput):
            vp_schedule(-0.1, 20.0)
        with pytest.raises(InvalidInput):
            vp_schedule(2.0, 1.0)


class TestEdmSchedule:
    def test_identity(self):
        sched = EdmSchedule(0.002, 80.0)
        t = np.linspace(0, 80, 11)
        np.testing.assert_array_equal(sched.sigma(t), t)
        np.testing.assert_array_equal(sched.alpha(t), np.ones(11))
        np.testing.assert_array_equal(sched.sigma_dot(t), np.ones(11))
        assert sched.T == 80.0


class TestConvertNotation:
    def test_edm(self):
        sched = convert_notation("EDM", {"sigma_min": 0.002, "sigma_max": 80.0})
        assert float(sched.alpha(3.0)) == 1.0
        assert float(sched.sigma(3.0)) == 3.0

    def test_ddpm_discrete(self):
        sched = convert_notation("DDPM-discrete", {"alpha_bar": [1.0, 0.25]})
        a, s = sched(1)
        np.testing.assert_allclose(a, 0.5)
        np.testing.assert_allclose(s, np.sqrt(0.75))

    def test_vp_roundtrip(self):
        sched = convert_notation("VP", {"beta_min": 0.1, "beta_max": 20.0, "T": 1.0})
        direct = vp_schedule(0.1, 20.0, 1.0)
        t = np.linspace(0, 1, 50)
        np.testing.assert_allclose(sched.alpha(t), direct.alpha(t), rtol=1e-12)
        np.testing.assert_allclose(sched.sigma(t), direct.sigma(t), rtol=1e-12)

    def test_edm_with_scaling(self):
        sched = convert_notation(
            "EDM-with-scaling",
            {"scale": lambda t: 1.0 / (1.0 + t), "sigma": lambda t: t, "T": 2.0},
        )
        t = 1.0
        np.testing.assert_allclose(float(sched.alpha(t)), 0.5, rtol=1e-6)
        np.testing.assert_allclose(float(sched.sigma(t)), 0.5, rtol=1e-6)

    def test_unknown(self):
        with pytest.raises(UnsupportedFramework):
            convert_notation("mystery", {})


class TestTableSchedule:
    def test_interpolation(self):
        sched = TableSchedule([0.0, 1.0], [1.0, 0.0], [0.0, 1.0])
        np.testing.assert_allclose(float(sched.alpha(0.5)), 0.5)
        np.testing.assert_allclose(float(sched.sigma(0.25)), 0.25)

    def test_monotonicity_enforced(self):
        with pytest.raises(Exception):
            TableSchedule([0.0, 1.0], [0.5, 0.9], [0.0, 1.0])


class TestConfig:
    def test_grid_config(self):
        grid = parse_grid_spec("0.002:80:7:18")
        assert len(grid) == 18
        np.testing.assert_array_equal(grid.levels, karras_grid(0.002, 80.0, 7.0, 18).levels)

    def test_schedule_configs(self):
        edm = schedule_from_config({"kind": "edm", "sigma_min": 0.01, "sigma_max": 10})
        assert edm.T == 10
        vp = schedule_from_config({"kind": "vp", "beta_min": 0.1, "beta_max": 20})
        assert vp.T == 1.0

    def test_table_config(self, tmp_path):
        path = tmp_path / "table.csv"
        t = np.linspace(0, 1, 20)
        ref = vp_schedule(0.1, 20.0)
        np.savetxt(path, np.column_stack([t, ref.alpha(t), ref.sigma(t)]), delimiter=",")
        sched = schedule_from_config({"kind": "table", "path": str(path)})
        np.testing.assert_allclose(sched.alpha(t), ref.alpha(t), atol=1e-12)

    @pytest.mark.parametrize("content", [b"0,1,0\n1,0.5,a\n", b"\xff\xfe\x00\x01"])
    def test_malformed_table_names_its_file(self, tmp_path, content):
        path = tmp_path / "table.csv"
        path.write_bytes(content)
        with pytest.raises(InvalidData, match=f"^{re.escape(str(path))}: "):
            parse_schedule_spec(f"table:{path}")

    def test_spec_strings(self):
        grid = parse_grid_spec("0.002:80:7:18")
        assert len(grid) == 18 and grid.levels[0] == 80.0
        vp = parse_schedule_spec("vp:0.1:20:1")
        assert isinstance(vp, VpSchedule)
        edm = parse_schedule_spec("edm:0.002:80")
        assert isinstance(edm, EdmSchedule)
        with pytest.raises(InvalidInput):
            parse_grid_spec("1:2:3")

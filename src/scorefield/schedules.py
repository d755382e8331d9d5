"""Noise/signal schedules, the discrete noise-level grid, and their spec strings.

Two continuous parameterizations are built in:

* EDM: ``sigma_t = t``, ``alpha_t = 1``; time is the noise scale.
* VP: a linear beta profile ``beta(t) = beta_min + (beta_max - beta_min) t/T``
  with ``alpha_t = exp(-0.5 int_0^t beta)`` and ``sigma_t = sqrt(1 - alpha_t^2)``,
  so ``alpha^2 + sigma^2 = 1`` holds exactly by construction.

Arbitrary profiles enter through a tabulated (t, alpha, sigma) schedule with
monotone (linear) interpolation; a DDPM schedule is the table of rows
(t, sqrt(alpha_bar_t), sqrt(1 - alpha_bar_t)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidData, InvalidInput
from .spectrum import _built_from, _load_table

__all__ = [
    "NoiseGrid",
    "karras_grid",
    "NoiseSchedule",
    "EdmSchedule",
    "VpSchedule",
    "TableSchedule",
    "parse_grid_spec",
    "parse_schedule_spec",
]


def _require_finite(**fields) -> None:
    """Each named value, a number or every entry of an array, must be finite."""
    for name, value in fields.items():
        entries = np.asarray(value, dtype=np.float64).reshape(-1)
        bad = np.flatnonzero(~np.isfinite(entries))
        if bad.size:
            where = f" at index {bad[0]}" if np.ndim(value) else ""
            raise InvalidInput(f"{name} must be finite, got {entries[bad[0]]}{where}")


@dataclass(frozen=True)
class NoiseGrid:
    """Strictly descending noise levels sigma_0 > ... > sigma_{n-1}, and the
    power-law exponent ``rho`` that a regrid of its range reuses."""

    levels: np.ndarray
    rho: float

    def __post_init__(self):
        levels = np.asarray(self.levels, dtype=np.float64)
        if levels.ndim != 1 or levels.size < 2:
            raise InvalidInput("grid needs at least two levels")
        if np.any(np.diff(levels) >= 0):
            raise InvalidInput("grid levels must be strictly descending")
        levels.setflags(write=False)
        object.__setattr__(self, "levels", levels)

    def __len__(self) -> int:
        return self.levels.size

    def index_of(self, sigma: float) -> int | None:
        """Index of the grid level equal to sigma within a relative 1e-9, else None."""
        hits = np.nonzero(np.isclose(self.levels, sigma, rtol=1e-9, atol=0.0))[0]
        return int(hits[0]) if hits.size else None

    def truncate_from(self, index: int) -> "NoiseGrid":
        """Tail of the grid starting at the given level index."""
        return NoiseGrid(self.levels[index:], self.rho)


def karras_grid(sigma_min: float, sigma_max: float, rho: float = 7.0, n_step: int = 18) -> NoiseGrid:
    """Power-law interpolated noise levels.

    ``sigma_i = (sigma_max^(1/rho) + i/(n_step-1) (sigma_min^(1/rho)
    - sigma_max^(1/rho)))^rho`` for i = 0 .. n_step-1; endpoints land exactly
    on sigma_max and sigma_min.
    """
    _require_finite(sigma_min=sigma_min, sigma_max=sigma_max, rho=rho)
    if not (0 < sigma_min < sigma_max):
        raise InvalidInput(f"need 0 < sigma_min < sigma_max, got ({sigma_min}, {sigma_max})")
    if rho <= 0:
        raise InvalidInput(f"rho must be > 0, got {rho}")
    if n_step < 2:
        raise InvalidInput(f"n_step must be >= 2, got {n_step}")
    i = np.arange(n_step, dtype=np.float64)
    inv = 1.0 / rho
    levels = (sigma_max**inv + i / (n_step - 1) * (sigma_min**inv - sigma_max**inv)) ** rho
    # Pin endpoints; the power round trip can miss by an ulp.
    levels[0] = sigma_max
    levels[-1] = sigma_min
    return NoiseGrid(levels, float(rho))


class NoiseSchedule:
    """Continuous (alpha_t, sigma_t) pair over t in [0, T]."""

    T: float

    def alpha(self, t):
        raise NotImplementedError

    def sigma(self, t):
        raise NotImplementedError


@dataclass(frozen=True)
class EdmSchedule(NoiseSchedule):
    """sigma_t = t, alpha = 1; T equals sigma_max. The smallest noise level
    belongs to the sampling grid, not to the schedule."""

    sigma_max: float = 80.0

    def __post_init__(self):
        _require_finite(sigma_max=self.sigma_max)
        if self.sigma_max <= 0:
            raise InvalidInput(f"sigma_max must be > 0, got {self.sigma_max}")

    @property
    def T(self) -> float:
        return self.sigma_max

    def alpha(self, t):
        return np.ones_like(np.asarray(t, dtype=np.float64))

    def sigma(self, t):
        return np.asarray(t, dtype=np.float64)


@dataclass(frozen=True)
class VpSchedule(NoiseSchedule):
    """Variance-preserving schedule from a linear beta profile.

    alpha_t = exp(-0.5 (beta_min t + (beta_max - beta_min) t^2 / (2 T)))
    sigma_t = sqrt(1 - alpha_t^2)
    """

    beta_min: float = 0.1
    beta_max: float = 20.0
    horizon: float = 1.0

    def __post_init__(self):
        _require_finite(beta_min=self.beta_min, beta_max=self.beta_max, horizon=self.horizon)
        if not (0 < self.beta_min <= self.beta_max):
            raise InvalidInput(
                f"need 0 < beta_min <= beta_max, got ({self.beta_min}, {self.beta_max})"
            )
        if self.horizon <= 0:
            raise InvalidInput(f"horizon must be > 0, got {self.horizon}")

    @property
    def T(self) -> float:
        return self.horizon

    def alpha(self, t):
        t = np.asarray(t, dtype=np.float64)
        integral = self.beta_min * t + 0.5 * (self.beta_max - self.beta_min) * t**2 / self.horizon
        return np.exp(-0.5 * integral)

    def sigma(self, t):
        a = self.alpha(t)
        return np.sqrt(np.maximum(1.0 - a**2, 0.0))


@dataclass(frozen=True)
class TableSchedule(NoiseSchedule):
    """Tabulated (t, alpha, sigma) with linear interpolation between rows.

    Every row needs alpha >= 0 and sigma >= 0, not both 0."""

    t_table: np.ndarray
    alpha_table: np.ndarray
    sigma_table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t_table, dtype=np.float64)
        a = np.asarray(self.alpha_table, dtype=np.float64)
        s = np.asarray(self.sigma_table, dtype=np.float64)
        if not (t.shape == a.shape == s.shape) or t.ndim != 1 or t.size < 2:
            raise InvalidData("table schedule needs matching 1-D t/alpha/sigma columns")
        _require_finite(t_table=t, alpha_table=a, sigma_table=s)
        for name, arr in (("alpha_table", a), ("sigma_table", s)):
            bad = np.flatnonzero(arr < 0)
            if bad.size:
                raise InvalidData(f"{name} must be >= 0, got {arr[bad[0]]} at index {bad[0]}")
        both = np.flatnonzero((a == 0) & (s == 0))
        if both.size:
            raise InvalidData(f"alpha_table and sigma_table are both 0 at index {both[0]}")
        if np.any(np.diff(t) <= 0):
            raise InvalidData("table times must be strictly increasing")
        if np.any(np.diff(a) > 0) or np.any(np.diff(s) < 0):
            raise InvalidData("alpha must be nonincreasing and sigma nondecreasing in t")
        for name, arr in (("t_table", t), ("alpha_table", a), ("sigma_table", s)):
            arr = np.ascontiguousarray(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def T(self) -> float:
        return float(self.t_table[-1])

    def alpha(self, t):
        return np.interp(t, self.t_table, self.alpha_table)

    def sigma(self, t):
        return np.interp(t, self.t_table, self.sigma_table)


# ---------------------------------------------------------------------------
# Compact spec strings
# ---------------------------------------------------------------------------

def parse_grid_spec(spec: str) -> NoiseGrid:
    """Grid from the compact string "sigma_min:sigma_max:rho:n"."""
    parts = spec.split(":")
    if len(parts) != 4:
        raise InvalidInput(f"grid spec must be 'sigma_min:sigma_max:rho:n', got {spec!r}")
    return karras_grid(float(parts[0]), float(parts[1]), float(parts[2]), int(parts[3]))


def parse_schedule_spec(spec: str) -> NoiseSchedule:
    """Schedule from "vp:beta_min:beta_max[:T]", "edm:sigma_max", or
    "table:path" (headerless CSV rows t, alpha, sigma; errors name the path)."""
    parts = spec.split(":")
    kind = parts[0].lower()
    if kind == "vp":
        if len(parts) not in (3, 4):
            raise InvalidInput(f"vp spec must be 'vp:beta_min:beta_max[:T]', got {spec!r}")
        horizon = float(parts[3]) if len(parts) == 4 else 1.0
        return VpSchedule(float(parts[1]), float(parts[2]), horizon)
    if kind == "edm":
        if len(parts) != 2:
            raise InvalidInput(f"edm spec must be 'edm:sigma_max', got {spec!r}")
        return EdmSchedule(float(parts[1]))
    if kind == "table":
        path = spec.split(":", 1)[1]
        table = _load_table(path)
        if table.shape[1] != 3:
            raise InvalidData(f"{path}: table schedule needs columns t, alpha, sigma")
        return _built_from(path, TableSchedule, table[:, 0], table[:, 1], table[:, 2])
    raise InvalidInput(f"unknown schedule kind {kind!r}, expected vp, edm or table")

"""Span tracer that instruments scorefield from outside the package.

``Tracer.install()`` wraps the public functions of every scorefield module
and the ``score``/``denoise`` methods of every ``ScoreModel`` subclass. A
wrapped function is replaced in every module namespace that holds it, because
``cli`` and ``samplers`` bind names with ``from ... import``; lazy imports
(``rank_mode_sweep`` importing ``unexplained_variance``) read the patched
module attribute at call time.

A span is ``(id, parent_id, name, start, end, attrs)``. Each thread keeps
its own span stack; ``cli``'s ``ThreadPoolExecutor`` is replaced by a
subclass that hands the submitting thread's open span to the worker, so a
trajectory span's parent is the ``cli.sample`` span that scheduled it.
Finished spans go to a shared list under a lock. ``take()`` drains the list
for one measured pass and ``summarize()`` turns it into per-layer metrics.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

LAYERS = ("cli", "spectrum", "models", "solution", "schedules", "samplers",
          "gmmfit", "analysis", "synthetic")
VARIANTS = ("gaussian", "mixture", "delta")
SAMPLERS = ("heun_sample", "rk4_sample", "ddim_style_sample", "teleport_sample")
CLI_COMMANDS = ("sample", "teleport", "compare", "sweep")

# The models module's score formulas are the bodies of the model methods;
# their time is counted in the method spans, not as spans of their own.
_MODEL_FORMULAS = {"iso_score", "gaussian_score", "gaussian_denoise", "mixture_weights",
                   "gmm_score", "gmm_denoise", "delta_score", "delta_denoise"}


def _rows(x) -> int:
    x = np.asarray(x)
    return 1 if x.ndim == 1 else int(x.shape[0])


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._spans: list[tuple] = []
        self._fingerprints: dict[int, tuple] = {}
        self._fingerprint = None
        self._patched: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, attrs_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result, ok = None, False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                attrs = attrs_of(args, kwargs, result) if ok and attrs_of is not None else None
                with tracer._lock:
                    tracer._spans.append((sid, parent, name, start, end, attrs))

        return traced

    def _pool_class(self):
        tracer = self

        class PropagatingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else 0

                def in_parent(*a, **kw):
                    local = tracer._stack()
                    local.append(parent)
                    try:
                        return fn(*a, **kw)
                    finally:
                        local.pop()

                return super().submit(in_parent, *args, **kwargs)

        return PropagatingPool

    # -- per-call attributes ----------------------------------------------

    @staticmethod
    def _model_attrs(args, kwargs, result):
        # The model itself is kept so that its fingerprint can be taken after
        # the pass, outside every timed span.
        model, x, sigma = args[0], args[1], args[2]
        xb = np.ascontiguousarray(x, dtype=np.float64)
        digest = hashlib.blake2b(xb.tobytes(), digest_size=16).digest()
        cells = model.cloud.data.size if model.variant == "delta" else 0
        return {"variant": model.variant, "rows": _rows(x), "model": model,
                "sigma": float(sigma), "input": digest, "cells": cells}

    def fingerprint(self, model) -> str:
        """``model_fingerprint`` of the model, computed once per model object."""
        hit = self._fingerprints.get(id(model))
        if hit is None or hit[0] is not model:
            hit = self._fingerprints[id(model)] = (model, self._fingerprint(model))
        return hit[1]

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "scorefield" or mod_name.startswith("scorefield.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patched.append((mod, attr, original))

    def install(self) -> None:
        """Instrument scorefield in this process; undone by ``uninstall``."""
        cli = importlib.import_module("scorefield.cli")
        models = importlib.import_module("scorefield.models")
        solution = importlib.import_module("scorefield.solution")
        self._fingerprint = models.model_fingerprint

        attrs_by_name = {
            "load_cloud": lambda a, k, r: {"bytes": int(r.data.nbytes),
                                           "file": _file_identity(a[0] if a else k["path"])},
            "unexplained_variance": lambda a, k, r: {"probe_rows": int(a[3] if len(a) > 3 else k["n_probe"])},
            "minibatch_kmeans_full": lambda a, k, r: {"iterations": int(r.iterations)},
            "save_trajectory_csv": lambda a, k, r: {"bytes": os.path.getsize(a[1] if len(a) > 1 else k["path"])},
        }
        for sampler in SAMPLERS:
            attrs_by_name[sampler] = lambda a, k, r: {"nfe": int(r.nfe)}

        for layer in LAYERS:
            mod = importlib.import_module(f"scorefield.{layer}")
            if layer == "cli":
                names = [n for n in vars(mod) if n.startswith("cmd_")] + ["run"]
            else:
                names = list(getattr(mod, "__all__", ()))
            for name in names:
                fn = getattr(mod, name, None)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if layer == "models" and name in _MODEL_FORMULAS:
                    continue
                self._replace_everywhere(fn, self._wrap(f"{layer}.{name}", fn, attrs_by_name.get(name)))

        base = models.ScoreModel
        pending = list(base.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            for method in ("score", "denoise"):
                fn = cls.__dict__.get(method)
                if fn is not None:
                    setattr(cls, method, self._wrap(f"models.{method}", fn, self._model_attrs))
                    self._patched.append((cls, method, fn))

        create = solution.SolutionContext.__dict__["create"]
        solution.SolutionContext.create = classmethod(
            self._wrap("solution.SolutionContext.create", create.__func__))
        self._patched.append((solution.SolutionContext, "create", create))

        self._patched.append((cli, "ThreadPoolExecutor", cli.ThreadPoolExecutor))
        cli.ThreadPoolExecutor = self._pool_class()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def take(self) -> list[tuple]:
        """Drain and return the spans finished so far."""
        with self._lock:
            spans, self._spans = self._spans, []
        return spans


def _file_identity(path) -> tuple:
    st = os.stat(path)
    return (os.path.realpath(path), st.st_size, st.st_mtime_ns)


def _union_length(intervals, lo: float, hi: float) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list[tuple], fingerprint) -> dict:
    """Per-layer metrics of one pass's spans (see perfbench/README.md).

    ``fingerprint`` maps a model object to its content fingerprint.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)

    def self_time(s) -> float:
        kids = children.get(s[0], ())
        return (s[4] - s[3]) - _union_length([(k[3], k[4]) for k in kids], s[3], s[4])

    def ancestors(s):
        parent = by_id.get(s[1])
        while parent is not None:
            yield parent
            parent = by_id.get(parent[1])

    def is_sampler(s) -> bool:
        return s[2].startswith("samplers.") and s[2].split(".", 1)[1] in SAMPLERS

    m: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        m[key] = m.get(key, 0) + value

    for layer in LAYERS:
        if layer != "synthetic":
            m[f"{layer}.self_s"] = 0.0
    for v in VARIANTS:
        for field in ("calls", "rows", "s"):
            m[f"models.{v}.{field}"] = 0
    for key in ("models.delta.bytes_computed", "models.delta.flops_computed",
                "samplers.trajectories", "samplers.nfe", "samplers.model_calls",
                "samplers.write.calls", "samplers.write.s", "samplers.write.bytes",
                "solution.calls", "solution.s", "schedules.calls", "schedules.s",
                "gmmfit.kmeans.calls", "gmmfit.kmeans.s", "gmmfit.kmeans.iterations",
                "gmmfit.build.calls", "gmmfit.build.s", "spectrum.load.calls",
                "spectrum.load.s", "spectrum.load.bytes", "spectrum.fit.calls", "spectrum.fit.s",
                "analysis.uv.calls", "analysis.uv.self_s", "analysis.probe_rows",
                "synthetic.s"):
        m[key] = 0
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.s"] = 0.0

    model_keys: dict[str, list] = {v: [] for v in VARIANTS}
    load_files = []
    for s in spans:
        name, dur, attrs = s[2], s[4] - s[3], s[5] or {}
        layer, func = name.split(".", 1)
        if layer not in ("samplers", "synthetic"):
            add(f"{layer}.self_s", self_time(s))
        top = not any(a[2].split(".", 1)[0] == layer for a in ancestors(s))
        if layer == "models":
            if any(is_sampler(a) for a in ancestors(s)):
                add("samplers.model_calls", 1)
            if not attrs:
                continue
            v = attrs["variant"]
            add(f"models.{v}.calls", 1)
            add(f"models.{v}.rows", attrs["rows"])
            add(f"models.{v}.s", dur)
            model_keys.setdefault(v, []).append(
                (fingerprint(attrs["model"]), attrs["sigma"], attrs["input"]))
            if v == "delta":
                add("models.delta.bytes_computed", attrs["rows"] * attrs["cells"] * 8)
                add("models.delta.flops_computed", 5 * attrs["rows"] * attrs["cells"])
        elif is_sampler(s):
            add("samplers.self_s", self_time(s))
            if not any(is_sampler(a) for a in ancestors(s)):
                add("samplers.trajectories", 1)
                add("samplers.nfe", attrs.get("nfe", 0))
        elif name == "samplers.save_trajectory_csv":
            add("samplers.write.calls", 1)
            add("samplers.write.s", dur)
            add("samplers.write.bytes", attrs.get("bytes", 0))
        elif layer in ("solution", "schedules") and top:
            add(f"{layer}.calls", 1)
            add(f"{layer}.s", dur)
        elif name == "gmmfit.minibatch_kmeans_full":
            add("gmmfit.kmeans.calls", 1)
            add("gmmfit.kmeans.s", dur)
            add("gmmfit.kmeans.iterations", attrs.get("iterations", 0))
        elif name == "gmmfit.gmm_from_assignments":
            add("gmmfit.build.calls", 1)
            add("gmmfit.build.s", dur)
        elif name == "spectrum.load_cloud":
            add("spectrum.load.calls", 1)
            add("spectrum.load.s", dur)
            add("spectrum.load.bytes", attrs.get("bytes", 0))
            load_files.append(attrs.get("file"))
        elif name == "spectrum.spectrum_from_cloud":
            add("spectrum.fit.calls", 1)
            add("spectrum.fit.s", dur)
        elif name == "analysis.unexplained_variance":
            add("analysis.uv.calls", 1)
            add("analysis.uv.self_s", self_time(s))
            add("analysis.probe_rows", attrs.get("probe_rows", 0))
        elif layer == "synthetic" and top:
            add("synthetic.s", dur)
        elif layer == "cli" and func.startswith("cmd_"):
            cmd = func[4:].replace("_", "-")
            if cmd in CLI_COMMANDS:
                add(f"cli.{cmd}.s", dur)

    for v in VARIANTS:
        rows = m[f"models.{v}.rows"]
        m[f"models.{v}.us_per_row"] = 1e6 * m[f"models.{v}.s"] / rows if rows else 0.0
        keys = model_keys[v]
        m[f"models.{v}.distinct_ratio"] = len(set(keys)) / len(keys) if keys else 1.0
    all_keys = [k for v in VARIANTS for k in model_keys[v]]
    m["models.distinct_ratio"] = len(set(all_keys)) / len(all_keys) if all_keys else 1.0
    m["spectrum.load.distinct_ratio"] = (len(set(load_files)) / len(load_files)
                                         if load_files else 1.0)
    return m

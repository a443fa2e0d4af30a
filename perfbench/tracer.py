"""Span tracing around pvilab's module entry points, from outside the library.

``Tracer.install`` replaces each traced function with a wrapper that records
a span (name, start, end, parent span, op id, counter, error) in memory.
Every module of the package that holds the function under some name gets
the wrapper, because callers such as ``locator`` (``_newton_z2``,
``z2_with_scale``) and ``cli`` (``valence_check``) import functions by name.
``_kernels`` functions are called through the module, so patching the module
also catches kernel-to-kernel calls such as ``z2_many -> premodular_at``.
``uninstall`` puts every original object back.

Per-layer metrics are derived from the spans of one pass over a fixed block
of ops: self time is a span's duration minus the time its direct child
spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from statistics import median


def _len_taus(args, out):
    return len(args[2])


def _len_out(args, out):
    return len(out)


def _newton_iters(args, out):
    return out[3]


# (span name, module, attribute path, counter) -- the counter maps
# (args, result) to a number stored on the span.
TARGETS = (
    ("kernels.z2_many", "pvilab._kernels", "z2_many", _len_taus),
    ("kernels.premodular_at", "pvilab._kernels", "premodular_at", None),
    ("kernels.lattice_values", "pvilab._kernels", "lattice_values", None),
    ("modular.reduce_to_standard", "pvilab.modular", "reduce_to_standard", None),
    ("elliptic.ModuliPoint.from_tau", "pvilab.elliptic", "ModuliPoint.from_tau", None),
    ("elliptic.invariants_g", "pvilab.elliptic", "invariants_g", None),
    ("premodular.z2_with_scale", "pvilab.premodular", "z2_with_scale", None),
    ("premodular.z2_stable", "pvilab.premodular", "z2_stable", None),
    ("premodular.z2_cusp_expansion", "pvilab.premodular", "z2_cusp_expansion", None),
    ("premodular.m_n", "pvilab.premodular", "m_n", None),
    ("solutions.lambda_rs", "pvilab.solutions", "lambda_rs", None),
    ("solutions.wp_of_p", "pvilab.solutions", "wp_of_p", None),
    ("solutions._newton_z2", "pvilab.solutions", "_newton_z2", _newton_iters),
    ("locator.winding_count", "pvilab.locator", "winding_count", None),
    ("locator.locate_zeros", "pvilab.locator", "locate_zeros", _len_out),
    ("locator._interior_grid", "pvilab.locator", "_interior_grid", _len_out),
    ("locator.count_mn_zeros", "pvilab.locator", "count_mn_zeros", None),
    ("locator.valence_check", "pvilab.locator", "valence_check", None),
    ("orbits.enumerate_qn", "pvilab.orbits", "enumerate_qn", None),
    ("orbits.pm_class_reps", "pvilab.orbits", "pm_class_reps", None),
    ("cli.main", "pvilab.cli", "main", None),
    ("report.Report.to_json", "pvilab.report", "Report.to_json", None),
)
NAMES = tuple(t[0] for t in TARGETS)
_IDX = {name: i for i, name in enumerate(NAMES)}

# span record fields
NAME, START, END, PARENT, OP, COUNT, ERROR = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, idx: int, fn, counter):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [idx, clock(), 0, stack[-1] if stack else -1, self.op, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if counter is not None:
                rec[COUNT] = counter(args, out)
            return out

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "pvilab" or name.startswith("pvilab."))
        ]
        for idx, (_, modname, path, counter) in enumerate(TARGETS):
            owner = importlib.import_module(modname)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            if cls_path:
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(idx, raw.__func__, counter))
                else:
                    new = self._wrap(idx, raw, counter)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(idx, original, counter)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._stack.clear()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.op = -1


def dump(path: str, spans: list[list], meta: dict) -> None:
    """Write spans as JSON, times in ns from the first span."""
    t0 = spans[0][START] if spans else 0
    rows = [
        [NAMES[s[NAME]], s[START] - t0, s[END] - t0, s[PARENT], s[OP], s[COUNT], s[ERROR]]
        for s in spans
    ]
    with open(path, "w") as fh:
        json.dump({"meta": meta, "fields": ["name", "start_ns", "end_ns", "parent",
                   "op", "count", "error"], "spans": rows}, fh)


def summarize(spans: list[list]) -> dict:
    """Per-name totals for one pass: calls, inclusive/self ns, counters,
    plus the parent-specific sums the locator metrics need."""
    n = len(NAMES)
    calls = [0] * n
    incl = [0] * n
    self_ns = [0] * n
    count = [0] * n
    errors: dict[str, int] = {}
    child_ns = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]
    z2 = _IDX["kernels.z2_many"]
    newton = _IDX["solutions._newton_z2"]
    grid = _IDX["locator._interior_grid"]
    winding = _IDX["locator.winding_count"]
    locate = _IDX["locator.locate_zeros"]
    winding_points = grid_points = newton_starts = 0
    for i, s in enumerate(spans):
        k = s[NAME]
        dur = s[END] - s[START]
        calls[k] += 1
        incl[k] += dur
        self_ns[k] += dur - child_ns[i]
        count[k] += s[COUNT]
        if s[ERROR] is not None:
            key = f"{NAMES[k]}:{s[ERROR]}"
            errors[key] = errors.get(key, 0) + 1
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else -1
        if k == z2 and parent == winding:
            winding_points += s[COUNT]
        elif k == grid and parent == locate:
            grid_points += s[COUNT]
        elif k == newton and parent == locate:
            newton_starts += 1
    return {
        "calls": calls,
        "incl_ns": incl,
        "self_ns": self_ns,
        "count": count,
        "errors": errors,
        "winding_points": winding_points,
        "grid_points": grid_points,
        "newton_starts": newton_starts,
        "spans": len(spans),
    }


def layer_metrics(summaries: list[dict], walls: list[float], n_ops: int) -> dict:
    """Per-layer metrics from one or more traced passes over the same block.

    Counts come from the first pass (they repeat exactly); times are the
    median over passes.  Everything is per op unless its name says
    otherwise.
    """
    first = summaries[0]
    out = {}
    for k, name in enumerate(NAMES):
        self_us = median(s["self_ns"][k] / 1e3 for s in summaries)
        share = median(s["self_ns"][k] / 1e9 / w for s, w in zip(summaries, walls))
        out[f"{name}.calls"] = (first["calls"][k] / n_ops, "1/op")
        out[f"{name}.self_us"] = (self_us / n_ops, "us/op")
        out[f"{name}.self_share"] = (share, "ratio")

    def inclusive_us_per(name, units):
        k = _IDX[name]
        return median(s["incl_ns"][k] / 1e3 for s in summaries) / units if units else 0.0

    points = first["count"][_IDX["kernels.z2_many"]]
    out["kernels.z2_many.points"] = (points / n_ops, "points/op")
    out["kernels.z2_many.us_per_point"] = (inclusive_us_per("kernels.z2_many", points), "us")
    for name in ("kernels.premodular_at", "kernels.lattice_values"):
        calls = first["calls"][_IDX[name]]
        out[f"{name}.us_per_call"] = (inclusive_us_per(name, calls), "us")
    newton = _IDX["solutions._newton_z2"]
    out["solutions._newton_z2.iters"] = (first["count"][newton] / n_ops, "1/op")
    stalls = first["errors"].get("solutions._newton_z2:NewtonStall", 0)
    out["solutions._newton_z2.stalls"] = (stalls / n_ops, "1/op")
    out["locator.winding_count.z2_points"] = (first["winding_points"] / n_ops, "points/op")
    zeros = first["count"][_IDX["locator.locate_zeros"]]
    out["locator.locate_zeros.grid_points_per_zero"] = (
        first["grid_points"] / zeros if zeros else 0.0,
        "points/zero",
    )
    out["locator.locate_zeros.newton_starts_per_zero"] = (
        first["newton_starts"] / zeros if zeros else 0.0,
        "starts/zero",
    )
    out["trace.spans_per_op"] = (first["spans"] / n_ops, "1/op")
    return out

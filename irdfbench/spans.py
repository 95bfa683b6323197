"""In-memory span tracer that observes irdf layers from outside the package.

Hooks replace public irdf names with thin wrappers that record a span (name,
start, end, parent) while the tracer is active. Nothing under ``src/`` is
edited: every module attribute that refers to a hooked function is swapped,
so re-exports such as ``irdf.sweep_curve`` and ``irdf.cli.sweep_curve`` are
covered too. A hook whose target no longer exists is reported as not
observed instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# (span name, module, attribute path) for every hooked layer boundary.
HOOKS = (
    ("cli.main", "irdf.cli", "main"),
    ("solver.sweep_curve", "irdf.solver", "sweep_curve"),
    ("solver.solve_at_distortion", "irdf.solver", "solve_at_distortion"),
    ("solver.distortion_at_rate", "irdf.solver", "distortion_at_rate"),
    ("solver.ba_fixed_slope", "irdf.solver", "ba_fixed_slope"),
    ("kernels.fixed_point", "irdf.kernels", "ba_fixed_slope_loop"),
    ("kernels.code_scan", "irdf.kernels", "best_code_fold_loop"),
    ("distortion.build_amended", "irdf.distortion", "build_amended"),
    ("ftransform.invert", "irdf.ftransform", "FTransform.invert"),
    ("ftransform.apply", "irdf.ftransform", "FTransform.apply"),
    ("operational.best_code_search", "irdf.operational", "best_code_search"),
    ("operational.evaluate_code", "irdf.operational", "evaluate_code"),
)


class Tracer:
    """Spans in parallel lists; ``info`` holds per-span facts from results."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.info: dict[int, object] = {}
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self.active = False
        self.last_op = -1  # root span of the latest operation, for merging child spans
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Drop recorded spans and counts; installed hooks stay."""
        for seq in (self.names, self.start, self.end, self.parent, self._stack):
            seq.clear()
        self.info.clear()
        self.counts.clear()
        self.last_op = -1

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = self.add_span(name, time.perf_counter(), float("nan"), parent)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add_span(self, name, start, end, parent=-1, info=None) -> int:
        """Append a finished span (used to merge spans of child processes)."""
        idx = len(self.names)
        self.names.append(name)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        if info is not None:
            self.info[idx] = info
        return idx

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- hooks -------------------------------------------------------------

    def install(self) -> None:
        for name, module, attr in HOOKS:
            try:
                owner, leaf, original = _resolve(importlib.import_module(module), attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._swap(owner, leaf, original, wrapper)
            else:
                for mod_name, m in list(sys.modules.items()):
                    if mod_name == "irdf" or mod_name.startswith("irdf."):
                        for key, val in list(vars(m).items()):
                            if val is original:
                                self._swap(m, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _swap(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def _wrap(self, name: str, fn):
        tracer = self
        on_result = _RESULT_INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_result is not None:
                tracer.info[idx] = on_result(args, out)
            return out

        return traced

    # -- persistence -------------------------------------------------------

    def dump(self) -> dict:
        """Spans as JSON-ready columns: name ids into ``names``, and start
        and end in seconds after ``t0`` rounded to 0.1 us."""
        table: dict[str, int] = {}
        ids = [table.setdefault(n, len(table)) for n in self.names]
        t0 = min(self.start, default=0.0)
        return {
            "t0": t0,
            "names": list(table),
            "name_id": ids,
            "start": [round(t - t0, 7) for t in self.start],
            "end": [round(t - t0, 7) for t in self.end],
            "parent": self.parent,
            "info": {str(k): v for k, v in self.info.items()},
            "counts": self.counts,
            "missing": self.missing,
        }

    def merge(self, data: dict, parent: int) -> None:
        """Append another tracer's dump; its root spans hang under ``parent``."""
        base = len(self.names)
        t0 = data["t0"]
        for i, name_id in enumerate(data["name_id"]):
            p = data["parent"][i]
            self.add_span(
                data["names"][name_id],
                t0 + data["start"][i],
                t0 + data["end"][i],
                parent if p < 0 else base + p,
                data["info"].get(str(i)),
            )
        for key, val in data["counts"].items():
            self.count(key, val)
        for name in data["missing"]:
            if name not in self.missing:
                self.missing.append(name)


def _resolve(mod, attr: str):
    """(owner, leaf name, current value) of a dotted attribute path."""
    owner = mod
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf, getattr(owner, leaf)


def _fixed_slope_info(args, point):
    return [int(point.iterations), bool(point.converged)]


def _code_scan_info(args, out):
    return int(args[2])  # number of encoders scanned


def _sweep_info(args, curve):
    return len(curve.points)


_RESULT_INFO = {
    "solver.ba_fixed_slope": _fixed_slope_info,
    "kernels.code_scan": _code_scan_info,
    "solver.sweep_curve": _sweep_info,
}


# -- analysis ---------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(tracer: Tracer) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(tracer.names)):
        s, e = tracer.start[i], tracer.end[i]
        covered = union_length(
            (max(s, tracer.start[c]), min(e, tracer.end[c]))
            for c in children.get(i, ())
            if tracer.end[c] > s and tracer.start[c] < e
        )
        out.append((e - s) - covered)
    return out


def nearest_ancestor(tracer: Tracer, idx: int, names) -> int:
    p = tracer.parent[idx]
    while p >= 0 and tracer.names[p] not in names:
        p = tracer.parent[p]
    return p


def busy(tracer: Tracer, name: str, under=None) -> float:
    """Seconds inside outermost spans called ``name``; with ``under``, only
    spans below a root span whose name is in that set."""
    total = 0.0
    for i, n in enumerate(tracer.names):
        if n != name or nearest_ancestor(tracer, i, {name}) >= 0:
            continue
        if under is not None and _root(tracer, i) not in under:
            continue
        total += tracer.end[i] - tracer.start[i]
    return total


def _root(tracer: Tracer, idx: int) -> str:
    while tracer.parent[idx] >= 0:
        idx = tracer.parent[idx]
    return tracer.names[idx]


def _calls(tracer: Tracer, name: str) -> int:
    return sum(1 for n in tracer.names if n == name)


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics keyed by name, each a (value, unit) pair.

    Layers whose hook found no target are left out; ``tracer.missing`` lists
    them. Ratios over an idle layer are reported as 0.
    """
    selfs = self_times(tracer)
    roots = [i for i, p in enumerate(tracer.parent) if p < 0 and tracer.names[i].startswith("op:")]
    op_time = sum(tracer.end[i] - tracer.start[i] for i in roots)
    m: dict[str, tuple[float, str]] = {}

    def self_ms(*names):
        return 1e3 * sum(selfs[i] for i, n in enumerate(tracer.names) if n in names)

    def share(seconds):
        return seconds / op_time if op_time > 0 else 0.0

    # fixed-point kernel: iterations come from the public SlopePoint result
    iters = [v[0] for i, v in tracer.info.items()
             if tracer.names[i] == "solver.ba_fixed_slope" and v[0] > 0]
    capped = sum(1 for i, v in tracer.info.items()
                 if tracer.names[i] == "solver.ba_fixed_slope" and v[0] > 0 and not v[1])
    if "kernels.fixed_point" not in tracer.missing:
        kb = busy(tracer, "kernels.fixed_point")
        m["kernels.fixed_point.calls"] = (_calls(tracer, "kernels.fixed_point"), "count")
        m["kernels.fixed_point.busy_ms"] = (1e3 * kb, "ms")
        m["kernels.fixed_point.us_per_iter"] = (1e6 * kb / sum(iters) if iters else 0.0, "us")
        m["kernels.fixed_point.share"] = (share(kb), "frac")
    if "solver.ba_fixed_slope" not in tracer.missing:
        m["kernels.fixed_point.iters"] = (int(sum(iters)), "count")
        m["kernels.fixed_point.iters_p50"] = (_pct(iters, 50), "count")
        m["kernels.fixed_point.iters_p99"] = (_pct(iters, 99), "count")
        m["kernels.fixed_point.capped"] = (capped, "count")
        m["solver.fixed_slope.self_ms"] = (self_ms("solver.ba_fixed_slope"), "ms")

    if "kernels.code_scan" not in tracer.missing:
        sb = busy(tracer, "kernels.code_scan")
        enc = sum(v for i, v in tracer.info.items() if tracer.names[i] == "kernels.code_scan")
        m["kernels.code_scan.calls"] = (_calls(tracer, "kernels.code_scan"), "count")
        m["kernels.code_scan.busy_ms"] = (1e3 * sb, "ms")
        m["kernels.code_scan.encoders"] = (enc, "count")
        m["kernels.code_scan.encoders_per_s"] = (enc / sb if sb > 0 else 0.0, "1/s")
        m["kernels.code_scan.share"] = (share(sb), "frac")

    searches = {"solver.solve_at_distortion", "solver.sweep_curve"}
    if not searches & set(tracer.missing) and "solver.ba_fixed_slope" not in tracer.missing:
        per_search: dict[int, int] = {}
        for i, n in enumerate(tracer.names):
            if n == "solver.ba_fixed_slope":
                a = nearest_ancestor(tracer, i, searches)
                if a >= 0:
                    per_search[a] = per_search.get(a, 0) + 1
        samples = []
        for i, n in enumerate(tracer.names):
            if n == "solver.solve_at_distortion":
                samples.append(per_search.get(i, 0))
            elif n == "solver.sweep_curve" and tracer.info.get(i):
                samples.append(per_search.get(i, 0) / tracer.info[i])
        mean = float(np.mean(samples)) if samples else 0.0
        m["solver.search.solves_per_target"] = (mean, "count")
        m["solver.search.solves_per_target_p90"] = (_pct(samples, 90), "count")
        m["solver.search.self_ms"] = (self_ms(*searches), "ms")
        sweeps = [tracer.end[i] - tracer.start[i]
                  for i, n in enumerate(tracer.names) if n == "solver.sweep_curve"]
        m["solver.sweep.ms_per_curve"] = (1e3 * float(np.mean(sweeps)) if sweeps else 0.0, "ms")
    if "solver.distortion_at_rate" not in tracer.missing:
        dar = busy(tracer, "solver.distortion_at_rate")
        m["solver.distortion_at_rate.busy_ms"] = (1e3 * dar, "ms")

    for layer in ("ftransform.invert", "ftransform.apply", "distortion.build_amended"):
        if layer not in tracer.missing:
            m[f"{layer}.calls"] = (_calls(tracer, layer), "count")
            m[f"{layer}.busy_ms"] = (1e3 * busy(tracer, layer), "ms")
    if "ftransform.invert" not in tracer.missing:
        tab_roots = {"op:tabulated"}
        tab_time = sum(tracer.end[i] - tracer.start[i]
                       for i in roots if tracer.names[i] in tab_roots)
        inv = busy(tracer, "ftransform.invert", under=tab_roots)
        m["ftransform.invert.share_tabulated"] = (inv / tab_time if tab_time > 0 else 0.0, "frac")

    if "operational.best_code_search" not in tracer.missing:
        m["operational.best_code_search.self_ms"] = (self_ms("operational.best_code_search"), "ms")
    if "operational.evaluate_code" not in tracer.missing:
        ev = busy(tracer, "operational.evaluate_code")
        m["operational.evaluate_code.busy_ms"] = (1e3 * ev, "ms")

    procs = tracer.counts.get("cli.processes", 0)
    if "cli.main" not in tracer.missing:
        m["cli.main.busy_ms"] = (1e3 * busy(tracer, "cli.main"), "ms")
        m["cli.import_ms"] = (
            tracer.counts.get("cli.import_ms", 0.0) / procs if procs else 0.0, "ms")
        m["cli.process_overhead_ms"] = (
            tracer.counts.get("cli.overhead_ms", 0.0) / procs if procs else 0.0, "ms")
    return m


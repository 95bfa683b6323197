"""irdf benchmark: one workload per run, end to end or traced.

    python3 irdfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Workloads: random_sources, model_sweeps, code_search, cli_mix (see
workloads.py for what each measures and why). The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. With ``--trace 0`` the metrics are the end-to-end ones: ops_per_s,
op_p50_ms, op_tail_ms, setup_s (median over fresh interpreters),
peak_rss_mb and pass_frac; their times are scaled to the host-speed
reference of speed.py, and the raw figures are printed on a comment line
before the result. With ``--trace 1`` they are the per-layer ones, raw,
measured by hooking public names from outside the package; the spans and a
summary go to ``.irdfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

from checkout import ROOT, SRC, use_checkout_sources
from speed import REF_S, reference

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
CALIBRATION_SHARE = 0.15   # share of the run length timed both untraced and traced
SEGMENT_S = 0.5            # measured time between two reference timings
OUT_DIR = ROOT / ".irdfbench_out"


def parse_args(argv):
    p = argparse.ArgumentParser(description="irdf benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def environment() -> dict:
    import irdf.kernels

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "backend": irdf.kernels.BACKEND,
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "irdf_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("IRDF_")},
    }


def measure_setup(name: str, seed: int) -> tuple[float, float]:
    """Median over fresh interpreters of import plus the first call, scaled
    by the reference timed just before and after each, and raw."""
    probe = ROOT / "irdfbench" / "probe.py"
    scaled, raw = [], []
    for i in range(SETUP_PROBES):
        ref_before = reference()
        proc = subprocess.run([sys.executable, str(probe), name, str(seed + i)], cwd=ROOT,
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        ref_after = reference()
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"irdfbench: set-up probe failed with exit code {proc.returncode}")
        value = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        raw.append(value)
        scaled.append(value * 2 * REF_S / (ref_before + ref_after))
    return statistics.median(scaled), statistics.median(raw)


class Tally:
    def __init__(self):
        self.latencies: list[float] = []
        self.scaled: list[float] = []   # latencies scaled to the reference speed
        self.refs: list[float] = []     # reference timings taken during the run
        self.status = {"ok": 0, "flagged": 0, "wrong": 0}
        self.errors = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.status["flagged"] + self.status["wrong"]


def execute(op, tracer, tally: Tally) -> float:
    """Time one operation, then check it outside the timer."""
    idx = None
    if tracer is not None:
        tracer.active = True
        idx = tracer.open("op:" + op.kind)
    t0 = time.perf_counter()
    try:
        result, error = op.run(), None
    except Exception as exc:  # a failed operation is counted, never raised
        result, error = None, exc
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(idx)
        tracer.active = False
        tracer.last_op = idx
    if error is not None:
        if tally.errors == 0:
            traceback.print_exception(error, file=sys.stderr)
        tally.errors += 1
        status = "flagged"
    else:
        status = op.check(result)
    tally.latencies.append(elapsed)
    tally.status[status] += 1
    return elapsed


def run_rounds(workload, seconds: float, tracer) -> Tally:
    """Whole rounds, as many as bring the measured time nearest ``seconds``.

    Stopping half a round early rather than at ``seconds`` keeps a workload
    whose single round takes about the run length at one round, instead of
    flipping between one and two with machine noise. The reference loop is
    timed after every SEGMENT_S of operations; each operation's latency is
    scaled by the mean of the reference timings that bracket its segment.
    """
    tally = Tally()
    tally.refs.append(reference())
    measured = 0.0
    segment_start = 0

    def close_segment():
        tally.refs.append(reference())
        factor = 2 * REF_S / (tally.refs[-2] + tally.refs[-1])
        tally.scaled.extend(x * factor for x in tally.latencies[segment_start:])
        return len(tally.latencies)

    for ops in workload.rounds():
        before = measured
        for op in ops:
            measured += execute(op, tracer, tally)
            if sum(tally.latencies[segment_start:]) >= SEGMENT_S:
                segment_start = close_segment()
        if measured + (measured - before) / 2 >= seconds:
            if segment_start < len(tally.latencies):
                close_segment()
            return tally


def calibrate(workload, seconds: float, tracer) -> float:
    """Traced over untraced time of the same leading operations, minus 1."""
    ops = []
    untraced = 0.0
    discard = Tally()
    for op in next(workload.rounds()):
        ops.append(op)
        untraced += execute(op, None, discard)
        if untraced >= CALIBRATION_SHARE * seconds:
            break
    workload.traced = True
    traced = sum(execute(op, tracer, discard) for op in ops)
    tracer.reset()
    return traced / untraced - 1.0


def end_to_end(workload, latencies, setup_s: float, tally: Tally) -> tuple[dict, int]:
    lat = sorted(latencies)
    tail, beyond = tail_at(lat, workload.tail_pct)
    usage = resource.RUSAGE_CHILDREN if workload.name == "cli_mix" else resource.RUSAGE_SELF
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * tail, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024.0, "MB"),
        "pass_frac": ((tally.attempted - tally.failed) / tally.attempted, "frac"),
    }, beyond


def tail_at(sorted_lat, pct: float) -> tuple[float, int]:
    """Latency at percentile ``pct`` and how many samples lie beyond it."""
    value = float(np.percentile(sorted_lat, pct))
    return value, sum(1 for x in sorted_lat if x > value)


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_sources()
    import irdf

    if not os.path.realpath(irdf.__file__).startswith(os.path.realpath(SRC)):
        raise SystemExit(f"irdfbench: imported irdf from {irdf.__file__}, not from {SRC}")
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"irdfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    env = environment()
    print(f"# env {json.dumps(env, sort_keys=True)}")

    # one CPU for the run and its children, so the reference loop sees the
    # same CPU as the operations it scales
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_s, setup_raw = (None, None) if args.trace else measure_setup(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, ROOT, tracer)
    workload.setup_call()()  # lazy set-up is paid before timing starts

    overhead = None
    if tracer is not None:
        tracer.install()
        overhead = calibrate(workload, args.seconds, tracer)
    t_run = time.perf_counter()
    tally = run_rounds(workload, args.seconds, tracer)
    wall = time.perf_counter() - t_run
    if tracer is not None:
        tracer.uninstall()

    failed_frac = tally.failed / tally.attempted
    print(f"# workload {workload.name} seed {args.seed}: {tally.attempted} ops in "
          f"{sum(tally.latencies):.3f} s measured ({wall:.3f} s with checks); "
          f"statuses {tally.status}; failed_frac {failed_frac:.6g}; "
          f"rejected draws {workload.rejected}; closed-form warnings {workload.warnings}")

    print(f"# reference loop: median {1e3 * statistics.median(tally.refs):.3f} ms over "
          f"{len(tally.refs)} timings; scaled figures assume {1e3 * REF_S:g} ms")
    if tracer is None:
        metrics, beyond = end_to_end(workload, tally.scaled, setup_s, tally)
        raw, _ = end_to_end(workload, tally.latencies, setup_raw, tally)
        print(f"# raw (unscaled) {json.dumps({k: v for k, (v, _) in raw.items()})}")
        print(f"# op_tail_ms is p{workload.tail_pct:g} of {tally.attempted} ops, "
              f"{beyond} beyond it" + ("" if beyond >= 10 else " (fewer than 10)"))
    else:
        metrics = layer_metrics(tracer)
        metrics["trace.overhead_frac"] = (overhead, "frac")
        metrics["machine.reference_ms"] = (1e3 * statistics.median(tally.refs), "ms")
        metrics["bench.rejected_draws"] = (workload.rejected, "count")
        metrics["bench.closed_form_warnings"] = (workload.warnings, "count")
        if tracer.missing:
            print(f"# not observed (hook target missing): {', '.join(tracer.missing)}")
        OUT_DIR.mkdir(exist_ok=True)
        stem = OUT_DIR / f"{workload.name}-seed{args.seed}"
        with open(f"{stem}-spans.json", "w") as fh:
            json.dump(tracer.dump(), fh)
        with open(f"{stem}-layers.json", "w") as fh:
            json.dump({"env": env, "metrics": {k: v[0] for k, v in metrics.items()}}, fh,
                      indent=1, sort_keys=True)

    print(json.dumps({
        "correct": tally.status["wrong"] == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The four benchmark workloads: seeded inputs, operations and their checks.

Every workload is a closed loop with one client. It yields rounds, lists of
operations of a fixed make-up, and the harness runs whole rounds for about
the run length, so every run has the same mix of operation kinds. Each
workload's tail percentile is set so that at least ten operations lie
beyond it at this machine's baseline speed. An operation's check runs after
its timer stops and returns "ok", "flagged" (the program itself reported
the failure, e.g. a non-converged point or a non-zero exit code) or "wrong"
(a result the program presented as good failed the check).

The program is always reached through public names looked up at call time
(``irdf.solve_at_distortion``, ...), so the tracer's hooks see every call.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import irdf
import irdf.cli
from certify import certificate_gap

GAP_TOL = 1e-6          # nats, certificate and closed-form deviation
LEVEL_TOL = 1e-9        # SolverConfig().bisection_tol, scaled like the solver does
CODE_SAMPLES = 3        # random codes compared against each best code
CLI_TIMEOUT_S = 60      # a command normally ends within 2 s


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str]


def _transform(rng) -> "irdf.FTransform":
    """One draw from the five parametric families (criterion-05 recipe)."""
    kind = rng.integers(0, 5)
    if kind == 0:
        return irdf.FTransform.identity()
    if kind == 1:
        return irdf.FTransform.sqrt()
    if kind == 2:
        return irdf.FTransform.power(float(rng.uniform(0.5, 3.0)))
    if kind == 3:
        return irdf.FTransform.shifted_cubic(float(rng.uniform(0.0, 0.8)))
    return irdf.FTransform.exponential(float(rng.uniform(0.5, 9.2)))


def _status(ok: bool, flagged: bool) -> str:
    return "ok" if ok else ("flagged" if flagged else "wrong")


class Workload:
    name = ""
    tail_pct = 50.0

    def __init__(self, seed: int, root: Path, tracer=None):
        self.seed = seed
        self.root = root
        self.tracer = tracer
        self.rejected = 0
        self.warnings = 0
        self.traced = False  # set by the harness; only cli_mix needs to know

    def rounds(self):
        raise NotImplementedError

    def setup_call(self) -> Callable[[], object]:
        """The first call a fresh interpreter makes (timed by the set-up probe)."""
        raise NotImplementedError


class RandomSources(Workload):
    """random_sources: solve_at_distortion on criterion-05 random sources.

    Why: the fixed-point kernel's iterations are nearly all the time here,
    with a heavy tail of slowly converging (sometimes capped) solves, so
    Newton-type, SQUAREM or gap-based stopping changes show on this workload
    and nowhere else as strongly.

    The sources are the 100 draws of acceptance criterion 05 (its generator
    and seed), in the same order; draws with a zero feasible span are
    rejected and counted, because they hit the analytic zero-rate shortcut
    and would make the median measure only that. The run seed moves every
    level by up to 0.02 of its span and shuffles the order. Per-source cost
    is so heavy-tailed (on 326 fresh draws the slowest 1 % took a third of
    the time) that drawing new sources per seed would make a 20-second run
    measure mostly which slow sources it drew; with the fixed population,
    three seeds' whole-pass times agreed within 4 %.
    """

    name = "random_sources"
    tail_pct = 70.0
    POPULATION_SEED = 20240817
    JITTER = 0.02

    def __init__(self, seed, root, tracer=None):
        super().__init__(seed, root, tracer)
        rng = np.random.default_rng(self.POPULATION_SEED)
        jitter = np.random.default_rng([seed, 1])
        self.items = []
        for _ in range(100):
            nx, nz, nh = rng.integers(2, 5, size=3)
            joint = rng.random((nx, nz)) ** 2
            src = irdf.JointSource.from_joint(joint / joint.sum())
            d = irdf.DistortionMatrix(rng.random((nx, nh)))
            f = _transform(rng)
            am = irdf.build_amended(src, d, f)
            lo, hi = irdf.f_domain_bounds(am, src.z_marginal)
            frac = float(rng.uniform(0.15, 0.9)) + float(jitter.uniform(-self.JITTER, self.JITTER))
            if hi - lo <= LEVEL_TOL:
                self.rejected += 1
                continue
            D = float(f.invert(lo + frac * (hi - lo)))
            self.items.append((src, d, f, am, D, LEVEL_TOL * max(1.0, hi - lo)))
        self.order = np.random.default_rng([seed, 2]).permutation(len(self.items))

    def _op(self, item) -> Op:
        src, d, f, am, D, tol_f = item

        def check(pt) -> str:
            gap = certificate_gap(am, src.z_marginal, pt)
            hit = abs(pt.f_distortion - float(f.apply(D))) <= tol_f
            return _status(abs(gap) <= GAP_TOL and hit, not pt.converged)

        return Op("solve", lambda: irdf.solve_at_distortion(src, d, f, D), check)

    def rounds(self):
        while True:
            yield [self._op(self.items[i]) for i in self.order]

    def setup_call(self):
        rng = np.random.default_rng([self.seed, 3])
        m = irdf.BscModel(float(rng.uniform(0.05, 0.3)))
        D = m.beta + 0.5 * (0.5 - m.beta)
        return lambda: irdf.solve_at_distortion(m.source(), m.distortion(), m.f, D)


def _closed_form_check(model, workload):
    closed = irdf.bsc_irdf if isinstance(model, irdf.BscModel) else irdf.bec_irdf

    def check(curve) -> str:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            dev = max(abs(p.rate - closed(model, p.distortion)) for p in curve.points)
        workload.warnings += len(caught)
        return _status(dev <= GAP_TOL, not curve.all_converged)

    return check


class ModelSweeps(Workload):
    """model_sweeps: sweep_curve on the closed-form BSC/BEC models.

    Why: the symmetric models start at the optimal output marginal, so every
    fixed-point call stops after 2 iterations and the time is per-call
    overhead times slope-search steps. Batched lockstep solving and
    secant/multisection search show here; kernel-iteration changes should
    not. The tabulated curve is where FTransform.invert dominates.

    A round is the non-convex witness (BSC beta=0.01, exponential rho=9.2,
    40 points), one 40-point curve per parametric family (BSC and BEC in
    turn, seeded parameters), and one 80-point curve under a seeded
    tabulated transform (longer single operations are scaled less well by
    the host-speed reference, which is timed only between operations).
    Every point is checked against bsc_irdf/bec_irdf.
    """

    name = "model_sweeps"
    tail_pct = 70.0
    POINTS = 40
    TAB_POINTS = 80

    def __init__(self, seed, root, tracer=None):
        super().__init__(seed, root, tracer)
        self.rng = np.random.default_rng([seed, 4])

    def _model(self, f, bsc: bool):
        if bsc:
            return irdf.BscModel(float(self.rng.uniform(0.01, 0.3)), f)
        return irdf.BecModel(float(self.rng.uniform(0.05, 0.8)), f)

    def _sweep(self, kind, model, n_points) -> Op:
        src, d = model.source(), model.distortion()
        return Op(
            kind,
            lambda: irdf.sweep_curve(src, d, model.f, n_points),
            _closed_form_check(model, self),
        )

    def rounds(self):
        F = irdf.FTransform
        while True:
            rng = self.rng
            families = (
                F.identity(),
                F.sqrt(),
                F.power(float(rng.uniform(0.5, 3.0))),
                F.shifted_cubic(float(rng.uniform(0.0, 0.8))),
                F.exponential(float(rng.uniform(0.5, 9.2))),
            )
            ys = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, size=5))])
            table = np.column_stack([np.linspace(0.0, 1.0, 6), ys / ys[-1]])
            tab_model = irdf.BscModel(float(rng.uniform(0.01, 0.3)), F.tabulated(table))
            yield (
                [self._sweep("witness", irdf.BscModel(0.01, F.exponential(9.2)), self.POINTS)]
                + [self._sweep("family", self._model(f, i % 2 == 0), self.POINTS)
                   for i, f in enumerate(families)]
                + [self._sweep("tabulated", tab_model, self.TAB_POINTS)]
            )

    def setup_call(self):
        rng = np.random.default_rng([self.seed, 3])
        m = irdf.BscModel(float(rng.uniform(0.05, 0.3)))
        return lambda: irdf.sweep_curve(m.source(), m.distortion(), m.f, 10)


class CodeSearch(Workload):
    """code_search: best_code_search on seeded small sources.

    Why: the same kernels module is used differently: the exhaustive encoder
    scan is nearly all the time and the curve solver does nothing. This
    workload guards the scan when the loop and numpy kernel twins merge.

    Each operation draws alphabets of 2-3 letters, n in {1, 2, 3}, M in
    {2, 3}, the average or excess criterion and a transform; draws whose
    code space exceeds ENUM_CAP are rejected and counted. The check
    evaluates a few seeded random codes with evaluate_code; none may beat
    the returned code.
    """

    name = "code_search"
    tail_pct = 99.0
    ROUND = 20

    def __init__(self, seed, root, tracer=None):
        super().__init__(seed, root, tracer)
        self.rng = np.random.default_rng([seed, 5])

    def _draw(self):
        rng = self.rng
        cap = irdf.operational.ENUM_CAP
        while True:
            nx, nz, nh = (int(v) for v in rng.integers(2, 4, size=3))
            n = int(rng.integers(1, 4))
            M = int(rng.integers(2, 4))
            if M ** (nz**n) * nh ** (n * M) <= cap and (nx * max(nz, nh)) ** n <= cap:
                break
            self.rejected += 1
        src = irdf.JointSource.from_joint(rng.dirichlet(np.ones(nx * nz)).reshape(nx, nz))
        d = irdf.DistortionMatrix(rng.random((nx, nh)))
        f = _transform(rng)
        criterion = "average" if rng.random() < 0.5 else "excess"
        threshold = None
        if criterion == "excess":
            threshold = float(rng.uniform(d.values.min(), d.values.max()))
        samples = [
            irdf.BlockCode(n=n, M=M, encoder=rng.integers(0, M, size=nz**n),
                           decoder=rng.integers(0, nh, size=(M, n)))
            for _ in range(CODE_SAMPLES)
        ]
        return src, d, f, n, M, criterion, threshold, samples

    def _op(self) -> Op:
        src, d, f, n, M, criterion, threshold, samples = self._draw()

        def check(result) -> str:
            _, best = result
            for code in samples:
                ev = irdf.evaluate_code(src, d, f, code, best.threshold)
                got, ref = (
                    (ev.avg_distortion, best.avg_distortion) if criterion == "average"
                    else (ev.excess_prob, best.excess_prob)
                )
                if got < ref - 1e-12 * max(1.0, abs(ref)):
                    return "wrong"
            return "ok"

        return Op(
            "search",
            lambda: irdf.best_code_search(src, d, f, n, M, criterion=criterion,
                                          threshold=threshold),
            check,
        )

    def rounds(self):
        while True:
            yield [self._op() for _ in range(self.ROUND)]

    def setup_call(self):
        rng = np.random.default_rng([self.seed, 3])
        m = irdf.BscModel(float(rng.uniform(0.05, 0.3)))
        return lambda: irdf.best_code_search(m.source(), m.distortion(), m.f, n=2, M=2)


class CliMix(Workload):
    """cli_mix: ``python -m irdf`` processes, one at a time.

    Why: the only workload that measures the process layer. Import is most
    of every short process, and ``brute`` spends its time in
    distortion_at_rate rather than in the scan.

    A round is the ROADMAP headline 200-point curve (BSC beta=0.01,
    exponential rho=9.2), ``brute`` on a seeded symmetric 2x4 source file
    the benchmark writes, two ``verify`` calls (BSC identity, BEC sqrt),
    four ``point`` calls and three ``closed-form`` calls (BSC identity, BEC
    sqrt, BSC sqrt), with seeded parameters; the kinds are fixed, so a seed
    does not change the mix. The commands are fixed per run; each is first
    run once untimed, and every timed run must exit 0 and print
    byte-identical output.
    """

    name = "cli_mix"
    tail_pct = 70.0

    def __init__(self, seed, root, tracer=None):
        super().__init__(seed, root, tracer)
        self.work = root / ".irdfbench_work"
        self.work.mkdir(exist_ok=True)
        rng = np.random.default_rng([seed, 6])
        source = self.work / f"brute_source_{seed}.json"
        # a fair bit seen through a seeded symmetric 4-letter channel: the
        # solver starts at the optimal output there, so brute's cost does
        # not hinge on how slowly one random source converges
        row = rng.dirichlet(np.ones(4)) / 2
        joint = np.stack([row, row[::-1]])
        source.write_text(json.dumps({
            "x_alphabet": ["0", "1"],
            "z_alphabet": ["a", "b", "c", "d"],
            "joint": joint.tolist(),
        }))
        self.commands = [
            ["curve", "--model", "bsc", "--beta", "0.01", "--f", "exponential", "--rho", "9.2",
             "--points", "200"],
            ["brute", "--source", str(source), "--f", "identity", "--n", "2", "--M", "2"],
            self._verify(rng, "bsc", "identity"),
            self._verify(rng, "bec", "sqrt"),
            *(self._point(rng) for _ in range(4)),
            self._closed_form(rng, "bsc", "identity"),
            self._closed_form(rng, "bec", "sqrt"),
            self._closed_form(rng, "bsc", "sqrt"),
        ]
        self.expected: dict[int, bytes] = {}
        self.src_dir = root / "src"
        self.launcher = Path(__file__).resolve().parent / "launch.py"
        self._n_traces = 0

    @staticmethod
    def _model_args(rng, model):
        if model == "bsc":
            return ["--model", "bsc", "--beta", f"{rng.uniform(0.01, 0.3):.4f}"]
        return ["--model", "bec", "--delta", f"{rng.uniform(0.05, 0.8):.4f}"]

    @staticmethod
    def _verify(rng, model, f):
        return ["verify", *CliMix._model_args(rng, model), "--f", f]

    def _point(self, rng):
        beta = float(rng.uniform(0.05, 0.3))
        D = beta + float(rng.uniform(0.1, 0.9)) * (0.5 - beta)
        return ["point", "--model", "bsc", "--beta", f"{beta:.4f}", "--f", "identity",
                "--D", f"{D:.6f}"]

    @staticmethod
    def _closed_form(rng, model, f):
        return ["closed-form", *CliMix._model_args(rng, model), "--f", f, "--points", "40"]

    def env(self) -> dict:
        env = dict(os.environ)
        old = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(self.src_dir) + (os.pathsep + old if old else "")
        return env

    def _spawn(self, i: int, traced: bool):
        trace_path = None
        if traced:
            self._n_traces += 1
            trace_path = self.work / f"child_{self.seed}_{self._n_traces}.json"
            argv = [sys.executable, str(self.launcher), "--trace-out", str(trace_path), "--",
                    *self.commands[i]]
        else:
            argv = [sys.executable, "-m", "irdf", *self.commands[i]]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=self.root, env=self.env(), capture_output=True,
                                  timeout=CLI_TIMEOUT_S)
            rc, out = proc.returncode, proc.stdout
        except subprocess.TimeoutExpired:
            rc, out = None, b""
        return rc, out, time.perf_counter() - t0, trace_path

    def warm_up(self) -> None:
        for i in range(len(self.commands)):
            self.expected[i] = self._spawn(i, traced=False)[1]

    def _op(self, i: int) -> Op:
        def check(result) -> str:
            rc, out, wall, trace_path = result
            if trace_path is not None:
                self._merge_child(trace_path, wall)
            if rc != 0:
                return "flagged"
            return "ok" if out == self.expected[i] else "wrong"

        return Op(self.commands[i][0], lambda: self._spawn(i, self.traced), check)

    def _merge_child(self, path: Path, wall: float) -> None:
        tracer = self.tracer
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            tracer.count("cli.unreadable_traces")
            return
        finally:
            path.unlink(missing_ok=True)
        first = len(tracer.names)
        tracer.merge(data["trace"], tracer.last_op)
        main_s = sum(tracer.end[i] - tracer.start[i] for i in range(first, len(tracer.names))
                     if tracer.names[i] == "cli.main" and tracer.parent[i] == tracer.last_op)
        tracer.count("cli.processes")
        tracer.count("cli.import_ms", 1e3 * data["import_s"])
        tracer.count("cli.overhead_ms", 1e3 * (wall - data["import_s"] - main_s))

    def rounds(self):
        if not self.expected:
            self.warm_up()
        while True:
            yield [self._op(i) for i in range(len(self.commands))]

    def setup_call(self):
        args = self._point(np.random.default_rng([self.seed, 3]))

        def call():
            import contextlib
            import io

            with contextlib.redirect_stdout(io.StringIO()):
                return irdf.cli.main(args)

        return call


WORKLOADS = {w.name: w for w in (RandomSources, ModelSweeps, CodeSearch, CliMix)}


"""Tests of the benchmark's own logic: certificate, spans, generators."""

import json
import math
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import irdf
import spans
from certify import certificate_gap
import run
from checkout import ROOT
from workloads import CliMix, CodeSearch, ModelSweeps, RandomSources


def _bsc_problem(beta=0.15):
    m = irdf.BscModel(beta)
    src, d = m.source(), m.distortion()
    return m, src, d, irdf.build_amended(src, d, m.f)


def _exact_bsc_point(beta, D):
    """Analytic optimum of the crossover model under identity pooling."""
    t = (D - beta) / (1 - 2 * beta)
    return SimpleNamespace(
        slope=math.log(t / (1 - t)) / (1 - 2 * beta),
        q_out=np.array([0.5, 0.5]),
        f_distortion=D,
        rate=irdf.bsc_irdf(irdf.BscModel(beta), D),
    )


def test_certificate_passes_exact_bsc_point():
    m, src, d, am = _bsc_problem()
    for D in (0.2, 0.3, 0.45):
        gap = certificate_gap(am, src.z_marginal, _exact_bsc_point(m.beta, D))
        assert abs(gap) < 1e-12


def test_certificate_passes_solver_point():
    m, src, d, am = _bsc_problem()
    pt = irdf.solve_at_distortion(src, d, m.f, 0.3)
    assert abs(certificate_gap(am, src.z_marginal, pt)) < 1e-9


def test_certificate_flags_perturbed_output_marginal():
    m, src, d, am = _bsc_problem()
    exact = _exact_bsc_point(m.beta, 0.3)
    perturbed = SimpleNamespace(**{**vars(exact), "q_out": np.array([0.55, 0.45])})
    assert certificate_gap(am, src.z_marginal, perturbed) > 1e-6


def _tracer_with(spans_list):
    tr = spans.Tracer()
    for name, s, e, parent in spans_list:
        tr.add_span(name, s, e, parent)
    return tr


def test_self_time_on_nested_spans():
    tr = _tracer_with([
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.0, 1),
        ("b", 5.0, 6.5, 0),
    ])
    assert spans.self_times(tr) == pytest.approx([10.0 - 3.0 - 1.5, 2.0, 1.0, 1.5])


def test_self_time_counts_overlapping_children_once():
    tr = _tracer_with([("root", 0.0, 10.0, -1), ("x", 1.0, 5.0, 0), ("y", 3.0, 7.0, 0)])
    assert spans.self_times(tr)[0] == pytest.approx(4.0)
    assert spans.union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)


def test_busy_counts_outermost_spans_of_a_name():
    tr = _tracer_with([
        ("op:x", 0.0, 10.0, -1),
        ("f", 1.0, 5.0, 0),
        ("f", 2.0, 3.0, 1),
        ("f", 6.0, 7.0, 0),
    ])
    assert spans.busy(tr, "f") == pytest.approx(5.0)


def test_dump_and_merge_keep_nesting():
    child = _tracer_with([("cli.main", 5.0, 7.0, -1), ("kernels.fixed_point", 5.5, 6.0, 0)])
    parent = _tracer_with([("op:curve", 4.0, 8.0, -1)])
    parent.merge(json.loads(json.dumps(child.dump())), 0)
    assert parent.names == ["op:curve", "cli.main", "kernels.fixed_point"]
    assert parent.parent == [-1, 0, 1]
    assert spans.self_times(parent) == pytest.approx([2.0, 1.5, 0.5])


def test_missing_hook_target_is_not_observed(monkeypatch):
    monkeypatch.setattr(spans, "HOOKS", spans.HOOKS + (("gone.layer", "irdf.kernels", "no_such"),))
    tr = spans.Tracer()
    tr.install()
    try:
        assert "gone.layer" in tr.missing
        metrics = spans.layer_metrics(tr)
    finally:
        tr.uninstall()
    assert "kernels.fixed_point.calls" in metrics


def test_hooks_record_and_restore():
    original = irdf.solver.ba_fixed_slope
    tr = spans.Tracer()
    tr.install()
    try:
        m, src, d, _ = _bsc_problem()
        tr.active = True
        idx = tr.open("op:solve")
        irdf.solve_at_distortion(src, d, m.f, 0.3)
        tr.close(idx)
        tr.active = False
    finally:
        tr.uninstall()
    assert irdf.solver.ba_fixed_slope is original
    metrics = spans.layer_metrics(tr)
    assert metrics["kernels.fixed_point.calls"][0] > 0
    assert metrics["kernels.fixed_point.iters_p50"][0] == 2.0
    assert metrics["solver.search.solves_per_target"][0] > 1



def test_random_sources_deterministic_per_seed(tmp_path):
    a, b, c = (RandomSources(s, tmp_path) for s in (1, 1, 2))
    assert [it[4] for it in a.items] == [it[4] for it in b.items]
    assert list(a.order) == list(b.order)
    assert [it[4] for it in a.items] != [it[4] for it in c.items]


def test_model_sweeps_deterministic_per_seed(tmp_path):
    def params(seed):
        w = ModelSweeps(seed, tmp_path)
        ops = next(w.rounds())
        return [op.kind for op in ops], w.rng.random()

    assert params(3) == params(3)
    assert params(3) != params(4)


def test_code_search_deterministic_per_seed(tmp_path):
    def draws(seed):
        w = CodeSearch(seed, tmp_path)
        return [w._draw()[:6] for _ in range(10)], w.rejected

    first, again, other = draws(5), draws(5), draws(6)
    assert repr(first) == repr(again)
    assert repr(first) != repr(other)


def test_cli_mix_deterministic_per_seed(tmp_path):
    a, b, c = CliMix(7, tmp_path), CliMix(7, tmp_path), CliMix(8, tmp_path)
    assert a.commands == b.commands
    assert a.commands != c.commands


def test_rejected_draws_are_counted(tmp_path):
    rs = RandomSources(1, tmp_path)
    assert rs.rejected > 0 and rs.rejected + len(rs.items) == 100
    cs = CodeSearch(1, tmp_path)
    for _ in range(50):
        cs._draw()
    assert cs.rejected > 0


def test_latencies_are_scaled_by_bracketing_reference(monkeypatch):
    refs = iter([0.010, 0.030, 0.0125, 0.0125])
    monkeypatch.setattr(run, "reference", lambda: next(refs))
    monkeypatch.setattr(run, "SEGMENT_S", 0.5)
    clock = iter([0.0, 0.3, 1.0, 1.3, 2.0, 2.2, 3.0, 3.1])  # op latencies .3 .3 .2 .1
    monkeypatch.setattr(run.time, "perf_counter", lambda: next(clock))
    op = SimpleNamespace(kind="x", run=lambda: None, check=lambda _: "ok")
    workload = SimpleNamespace(rounds=lambda: iter([[op, op], [op, op]]))
    tally = run.run_rounds(workload, seconds=1.0, tracer=None)
    assert tally.latencies == pytest.approx([0.3, 0.3, 0.2, 0.1])
    # first segment (0.6 s) is bracketed by 10 and 30 ms, the rest by 30 and 12.5 ms
    assert tally.scaled == pytest.approx([0.3 * 0.0125 / 0.020] * 2
                                         + [x * 0.025 / 0.0425 for x in (0.2, 0.1)])


def _run_bench(*args):
    proc = subprocess.run([sys.executable, str(ROOT / "irdfbench" / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def test_run_reports_end_to_end_metrics():
    lines = _run_bench("--workload", "code_search", "--seed", "1", "--seconds", "0.3",
                       "--trace", "0")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {"ops_per_s", "op_p50_ms", "op_tail_ms", "setup_s",
                                      "peak_rss_mb", "pass_frac"}
    assert result["correct"] and result["attempted"] > 0
    assert any("rejected draws" in line for line in lines[:-1])


def test_run_reports_rejected_draws_in_trace():
    result = json.loads(_run_bench("--workload", "code_search", "--seed", "1",
                                   "--seconds", "0.3", "--trace", "1")[-1])
    metrics = result["metrics"]
    assert metrics["bench.rejected_draws"]["value"] > 0
    assert metrics["kernels.code_scan.calls"]["value"] > 0

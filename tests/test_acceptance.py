"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

import itertools
import math
import time

import numpy as np
import pytest

from irdf import (
    BecModel,
    BlockCode,
    BscModel,
    DistortionMatrix,
    FTransform,
    JointSource,
    binary_entropy,
    binary_entropy_inverse,
    best_code_search,
    bsc_irdf,
    build_amended,
    excess_event_equivalence,
    f_domain_bounds,
    f_separable_n,
    is_subadditive_sample,
    solve_at_distortion,
    sweep_curve,
)

LN2 = math.log(2.0)
HAMMING = DistortionMatrix.hamming(2)

FAMILIES = (
    FTransform.identity(),
    FTransform.sqrt(),
    FTransform.power(2.0),
    FTransform.shifted_cubic(0.4),
    FTransform.exponential(9.2),
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    """Run one solve and one code search first so criterion timings measure
    the math, not first-call set-up."""
    m = BscModel(0.15)
    solve_at_distortion(m.source(), m.distortion(), m.f, 0.3)
    best_code_search(m.source(), m.distortion(), m.f, n=1, M=2)
    yield


def test_criterion_01_bsc_identity_recovery():
    """Identity pooling on the crossover model matches the analytic curve in
    bits within 1e-6 on a 40-point grid, for four crossover levels, in under
    10 seconds."""
    start = time.monotonic()
    worst = 0.0
    for beta in (0.0, 0.01, 0.15, 0.25):
        m = BscModel(beta)
        src, d = m.source(), m.distortion()
        for D in np.linspace(beta, 0.5, 40):
            got_bits = solve_at_distortion(src, d, m.f, float(D)).rate / LN2
            t = (D - beta) / (1 - 2 * beta)
            expected_bits = max(0.0, 1.0 - binary_entropy(t) / LN2)
            worst = max(worst, abs(got_bits - expected_bits))
    elapsed = time.monotonic() - start
    report(
        1,
        worst <= 1e-6 and elapsed < 10.0,
        f"max deviation {worst:.3g} bits, elapsed {elapsed:.2f} s",
    )


def test_criterion_02_bec_identity_recovery():
    """Identity pooling on the erasure model matches the analytic curve
    within 1e-6 nats on a 40-point grid, for three erasure levels."""
    worst = 0.0
    for delta in (0.1, 0.4, 0.8):
        m = BecModel(delta)
        src, d = m.source(), m.distortion()
        for D in np.linspace(delta / 2, 0.5, 40):
            got = solve_at_distortion(src, d, m.f, float(D)).rate
            expected = max(
                0.0, (1 - delta) * (LN2 - binary_entropy((D - delta / 2) / (1 - delta)))
            )
            worst = max(worst, abs(got - expected))
    report(2, worst <= 1e-6, f"max deviation {worst:.3g} nats")


def test_criterion_03_general_transform_agreement():
    """Nonlinear pooling on the crossover model: solver matches the analytic
    curve within 1e-5 nats over each feasible domain. The sqrt family has no
    published parameterization, so it runs at the cubic example's beta."""
    cases = (
        (FTransform.sqrt(), 0.15),
        (FTransform.power(2.0), 0.001),
        (FTransform.shifted_cubic(0.4), 0.15),
        (FTransform.exponential(9.2), 0.01),
    )
    worst_overall = 0.0
    for f, beta in cases:
        m = BscModel(beta, f)
        src, d = m.source(), m.distortion()
        am = build_amended(src, d, f)
        lo, hi = f_domain_bounds(am, src.z_marginal)
        d_lo, d_hi = float(f.invert(lo)), float(f.invert(hi))
        worst = 0.0
        for u in np.arange(1, 41) / 40:
            D = d_lo + (d_hi - d_lo) * float(u)
            got = solve_at_distortion(src, d, f, D).rate
            worst = max(worst, abs(got - bsc_irdf(m, D)))
        worst_overall = max(worst_overall, worst)
    report(3, worst_overall <= 1e-5, f"max deviation {worst_overall:.3g} nats")


def test_criterion_04_nonconvex_but_monotone():
    """Exponential pooling (rho 9.2, beta 0.01): the swept raw-axis curve is
    non-increasing yet fails midpoint convexity by at least 1e-3 nats."""
    f = FTransform.exponential(9.2)
    m = BscModel(0.01, f)
    curve = sweep_curve(m.source(), m.distortion(), f, 41)
    rates = curve.rates
    monotone = bool(np.all(np.diff(rates) <= 1e-9))
    worst_gap = 0.0
    n = len(rates)
    for step in range(1, n // 2):
        mids = rates[step : n - step]
        chords = 0.5 * (rates[: n - 2 * step] + rates[2 * step :])
        worst_gap = max(worst_gap, float(np.max(mids - chords)))
    report(
        4,
        monotone and worst_gap >= 1e-3,
        f"monotone={monotone}, max midpoint violation {worst_gap:.4g} nats",
    )


def _random_transform(rng) -> FTransform:
    kind = rng.integers(0, 5)
    if kind == 0:
        return FTransform.identity()
    if kind == 1:
        return FTransform.sqrt()
    if kind == 2:
        return FTransform.power(float(rng.uniform(0.5, 3.0)))
    if kind == 3:
        return FTransform.shifted_cubic(float(rng.uniform(0.0, 0.8)))
    return FTransform.exponential(float(rng.uniform(0.5, 9.2)))


def _criterion_05_draws():
    """The draws of the criterion-05 generator, in order: source,
    distortion, transform, amended matrices and the raw target level."""
    rng = np.random.default_rng(20240817)
    while True:
        nx, nz, nh = rng.integers(2, 5, size=3)
        joint = rng.random((nx, nz)) ** 2
        src = JointSource.from_joint(joint / joint.sum())
        d = DistortionMatrix(rng.random((nx, nh)))
        f = _random_transform(rng)
        am = build_amended(src, d, f)
        lo, hi = f_domain_bounds(am, src.z_marginal)
        target = lo + float(rng.uniform(0.15, 0.9)) * (hi - lo)
        yield src, d, f, am, float(f.invert(target))


def _remote_ba_lower_bound(joint, d, f, s, level, gap_tol=1e-10, max_iters=100_000):
    """Blahut's lower bound on the remote curve at a transform-domain level,
    and the iterations it took: the textbook Blahut-Arimoto iteration q <- q c
    at slope s < 0, from the uniform q, on the remote problem itself. Its
    distortion sum_x p(x, z) f(d(x, xhat)) is formed here from the joint law,
    with no amended matrix and no solver code; it stops when its own duality
    gap max log c - sum q c log c is at most gap_tol."""
    pz = joint.sum(axis=0)
    used = pz > 0
    pz = pz[used]
    rho = (joint[:, used].T @ f.apply(d.values)) / pz[:, None]  # E[f(d(X, xhat)) | z]
    rho_min = rho.min(axis=1)
    with np.errstate(under="ignore"):
        a = np.exp(s * (rho - rho_min[:, None]))  # exp(s rho), scaled per z
    q = np.full(rho.shape[1], 1.0 / rho.shape[1])
    for it in range(1, max_iters + 1):
        den = a @ q
        c = (pz / den) @ a
        with np.errstate(divide="ignore"):
            log_c = np.log(c)
        qc = q * c
        gap = log_c.max() - qc[qc > 0] @ log_c[qc > 0]
        if gap <= gap_tol:
            break
        q = qc
    else:
        raise AssertionError(f"reference gap {gap:g} after {max_iters} iterations")
    return s * level - pz @ (np.log(den) + s * rho_min) - log_c.max(), it


def _reference_deviation(src, d, f, pt):
    """The largest of (a) the point's rate less the remote reference's lower
    bound at its level, (b) its rate less I(Z; Xhat) recomputed from the
    joint law and its conditional, and (c) its level less E f(d(X, Xhat))
    recomputed the same way, in absolute value; and the reference's
    iterations."""
    lower, iters = _remote_ba_lower_bound(src.joint, d, f, pt.slope, pt.f_distortion)
    pz = src.joint.sum(axis=0)
    q = pt.q_cond
    with np.errstate(divide="ignore", invalid="ignore"):
        info = pz @ np.where(q > 0, q * np.log(q / (pz @ q)), 0.0).sum(axis=1)
    level = float(np.sum((src.joint.T @ f.apply(d.values)) * q))
    dev = max(abs(pt.rate - lower), abs(pt.rate - info), abs(pt.f_distortion - level))
    return dev, iters


def test_criterion_05_equivalence_chain_random_sources():
    """On 100 randomized small sources with random transforms and a
    transform-domain span, the point solve_at_distortion returns is
    certified, and its rate and level agree within 1e-8 with a
    Blahut-Arimoto reference on the remote problem and with the rate and
    level of its own conditional, each taken at the point's own slope and
    level: the average-criterion iRDF equals the direct RDF under the
    amended distortion E[f(d) | z]."""
    worst, most_iters, certified, checked = 0.0, 0, True, 0
    for src, d, f, am, D in _criterion_05_draws():
        lo, hi = f_domain_bounds(am, src.z_marginal)
        if hi - lo <= 1e-9:  # one letter is best for every z: all zero-rate points
            continue
        pt = solve_at_distortion(src, d, f, D)
        dev, iters = _reference_deviation(src, d, f, pt)
        certified = certified and pt.converged
        worst, most_iters = max(worst, dev), max(most_iters, iters)
        checked += 1
        if checked == 100:
            break
    report(
        5,
        certified and worst <= 1e-8,
        f"max deviation {worst:.3g} from the remote reference over 100 sources, "
        f"certified={certified}, reference iterations <= {most_iters}",
    )


def _all_codes(n: int, M: int):
    for enc in itertools.product(range(M), repeat=2**n):
        for dec in itertools.product(itertools.product(range(2), repeat=n), repeat=M):
            yield BlockCode(n=n, M=M, encoder=np.array(enc), decoder=np.array(dec))


def test_criterion_06_excess_event_identity_exhaustive():
    """For every binary code at n in {1,2}, M in {1,2}, a 20-point threshold
    grid, and each transform family: the raw-domain and transform-domain
    excess events carry bitwise-equal probabilities."""
    src = BscModel(0.15).source()
    thresholds = np.linspace(0.013, 0.937, 20)
    gamma = 0.0871
    checked = 0
    for f in FAMILIES:
        for n, M in ((1, 1), (1, 2), (2, 1), (2, 2)):
            for code in _all_codes(n, M):
                for D in thresholds:
                    r = excess_event_equivalence(src, HAMMING, f, code, float(D), gamma)
                    assert r.equal and r.events_agree, (f.name(), n, M, D)
                    checked += 1
    report(6, True, f"{checked} exact event-identity checks, all bitwise equal")


def test_criterion_07_quasi_arithmetic_mean_axioms():
    """1e4 randomized checks per family of symmetry, coordinate monotonicity,
    idempotency, and the replacement identity, all within 1e-10."""
    trials = 10_000
    worst = 0.0
    for fam_idx, f in enumerate(FAMILIES):
        rng = np.random.default_rng(900 + fam_idx)
        xs = rng.random((trials, 6))
        base = f.invert(f.apply(xs).mean(axis=1))

        perm = rng.permutation(6)
        sym = f.invert(f.apply(xs[:, perm]).mean(axis=1))
        worst = max(worst, float(np.max(np.abs(sym - base))))

        const = rng.random(trials)
        idem = f.invert(f.apply(np.tile(const[:, None], (1, 6))).mean(axis=1))
        worst = max(worst, float(np.max(np.abs(idem - const))))

        bumped = xs.copy()
        bumped[:, 0] += 0.05
        mono = f.invert(f.apply(bumped).mean(axis=1))
        assert np.all(mono > base), f.name()

        inner = f.invert(f.apply(xs[:, :3]).mean(axis=1))
        merged = np.concatenate([np.tile(inner[:, None], (1, 3)), xs[:, 3:]], axis=1)
        repl = f.invert(f.apply(merged).mean(axis=1))
        worst = max(worst, float(np.max(np.abs(repl - base))))
    report(7, worst <= 1e-10, f"worst axiom deviation {worst:.3g} over {trials}/family")


def test_criterion_08_subadditivity():
    """Concave pooling (sqrt) never exceeds the arithmetic mean on 1e5 random
    tuples; convex pooling (square) has the documented n=2 counterexample."""
    sqrt_report = is_subadditive_sample(FTransform.sqrt(), HAMMING, trials=100_000, n=5, seed=81)
    pooled = f_separable_n(FTransform.power(2.0), HAMMING, [0, 0], [1, 0])
    counterexample = pooled == pytest.approx(math.sqrt(0.5), rel=1e-12) and pooled > 0.5
    square_report = is_subadditive_sample(FTransform.power(2.0), HAMMING, trials=1000, n=2, seed=82)
    ok = sqrt_report.all_passed and counterexample and not square_report.all_passed
    report(
        8,
        ok,
        f"sqrt worst margin {sqrt_report.worst_margin:.3g}, "
        f"square pooled one-error value {pooled:.6f} > 0.5",
    )


def test_criterion_09_operational_converse_sanity():
    """Exhaustive best codes never average below the single-letter curve at
    their own code rate; margin bounded below by -1e-12."""
    beta = 0.15
    m = BscModel(beta)
    src, d = m.source(), m.distortion()
    margins = {}
    for n, M in ((1, 1), (1, 2), (2, 2), (3, 2)):
        _, ev = best_code_search(src, d, m.f, n=n, M=M)
        rate = math.log(M) / n
        ref = beta + (1 - 2 * beta) * binary_entropy_inverse(max(0.0, LN2 - rate))
        margins[(n, M)] = ev.avg_distortion - ref
    ok = all(v >= -1e-12 for v in margins.values())
    detail = ", ".join(f"(n={n},M={M}): {v:+.2e}" for (n, M), v in margins.items())
    report(9, ok, detail)

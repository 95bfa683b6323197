"""Solver: slope fixed points, the slope search for a target level, sweeps,
and the four-route equivalence."""

import math

import numpy as np
import pytest

from irdf import (
    BecModel,
    BscModel,
    DistortionMatrix,
    DomainError,
    FTransform,
    JointSource,
    NotConverged,
    SolverConfig,
    ba_fixed_slope,
    binary_entropy,
    bsc_irdf,
    build_amended,
    characterize,
    distortion_at_rate,
    domain_bounds,
    f_domain_bounds,
    solve_at_distortion,
    sweep_curve,
)
from irdf import kernels, solver
from test_acceptance import _random_transform

LN2 = math.log(2.0)


def bsc_problem(beta, f=None):
    m = BscModel(beta, f or FTransform.identity())
    return m, m.source(), m.distortion()


def bec_problem(delta, f=None):
    m = BecModel(delta, f or FTransform.identity())
    return m, m.source(), m.distortion()


class TestDomainBounds:
    def test_bsc_identity(self):
        _, src, d = bsc_problem(0.15)
        am = build_amended(src, d, FTransform.identity())
        assert f_domain_bounds(am, src.z_marginal) == pytest.approx((0.15, 0.5), abs=1e-15)

    def test_erasure_identity(self):
        _, src, d = bec_problem(0.4)
        am = build_amended(src, d, FTransform.identity())
        assert f_domain_bounds(am, src.z_marginal) == pytest.approx((0.2, 0.5), abs=1e-15)

    def test_bsc_general_f(self):
        f = FTransform.exponential(9.2)
        _, src, d = bsc_problem(0.01, f)
        am = build_amended(src, d, f)
        lo, hi = f_domain_bounds(am, src.z_marginal)
        f0, f1 = f.apply(0.0), f.apply(1.0)
        assert lo == pytest.approx(0.99 * f0 + 0.01 * f1, rel=1e-14)
        assert hi == pytest.approx(0.5 * (f0 + f1), rel=1e-14)


class TestFixedSlope:
    def test_zero_slope_is_zero_rate_end(self):
        _, src, d = bsc_problem(0.15)
        am = build_amended(src, d, FTransform.identity())
        pt = ba_fixed_slope(am, src.z_marginal, 0.0)
        assert pt.rate == 0.0
        assert pt.f_distortion == pytest.approx(0.5, abs=1e-15)
        # conditional independent of the observation
        np.testing.assert_allclose(pt.q_cond, np.tile(pt.q_out, (2, 1)), atol=0)

    def test_steep_slope_saturates(self):
        _, src, d = bsc_problem(0.15)
        am = build_amended(src, d, FTransform.identity())
        pt = ba_fixed_slope(am, src.z_marginal, -1e4)
        assert pt.f_distortion == pytest.approx(0.15, abs=1e-12)
        assert pt.rate == pytest.approx(LN2, abs=1e-12)

    def test_positive_slope_rejected(self):
        _, src, d = bsc_problem(0.15)
        am = build_amended(src, d, FTransform.identity())
        with pytest.raises(ValueError):
            ba_fixed_slope(am, src.z_marginal, 0.5)

    def test_distortion_monotone_in_slope(self):
        rng = np.random.default_rng(3)
        joint = rng.random((3, 3))
        src = JointSource.from_joint(joint / joint.sum())
        d = DistortionMatrix(rng.random((3, 4)))
        am = build_amended(src, d, FTransform.identity())
        slopes = -np.geomspace(1e-2, 1e3, 25)
        dists = [ba_fixed_slope(am, src.z_marginal, s).f_distortion for s in slopes]
        assert np.all(np.diff(dists) <= 1e-9)

    def test_rate_forms_agree_and_marginal_consistent(self):
        for f in (FTransform.identity(), FTransform.exponential(9.2)):
            _, src, d = bsc_problem(0.15, f)
            am = build_amended(src, d, f)
            for s_scale in (0.1, 1.0, 10.0):
                span = np.ptp(am.expected_f)
                pt = ba_fixed_slope(am, src.z_marginal, -s_scale / span)
                if pt.rate > 0:
                    assert pt.rate == pytest.approx(pt.rate_parametric, abs=1e-8)
                np.testing.assert_allclose(pt.q_cond.sum(axis=1), 1.0, atol=1e-10)
                np.testing.assert_allclose(
                    pt.q_out, src.z_marginal @ pt.q_cond, atol=1e-10
                )


class TestSolveAtDistortion:
    def test_bsc_interior_matches_oracle(self):
        # closed form: ln 2 - h_b((0.3 - 0.15)/0.7) nats
        _, src, d = bsc_problem(0.15)
        pt = solve_at_distortion(src, d, FTransform.identity(), 0.3)
        oracle = LN2 - binary_entropy((0.3 - 0.15) / 0.7)
        assert pt.rate == pytest.approx(oracle, abs=1e-7)
        assert pt.converged

    def test_left_endpoint_gives_full_bit(self):
        _, src, d = bsc_problem(0.25)
        pt = solve_at_distortion(src, d, FTransform.identity(), 0.25)
        assert pt.rate == pytest.approx(LN2, abs=1e-7)

    def test_classical_rdf_at_beta_zero(self):
        _, src, d = bsc_problem(0.0)
        pt = solve_at_distortion(src, d, FTransform.identity(), 0.25)
        assert pt.rate == pytest.approx(LN2 - binary_entropy(0.25), abs=1e-7)

    def test_erasure_zero_rate_at_dmax(self):
        _, src, d = bec_problem(0.4)
        pt = solve_at_distortion(src, d, FTransform.identity(), 0.5)
        assert pt.rate == 0.0

    def test_below_domain_raises(self):
        _, src, d = bsc_problem(0.15)
        with pytest.raises(DomainError):
            solve_at_distortion(src, d, FTransform.identity(), 0.05)

    def test_above_domain_clamps_to_zero(self):
        _, src, d = bsc_problem(0.15)
        pt = solve_at_distortion(src, d, FTransform.identity(), 0.75)
        assert pt.rate == 0.0
        assert pt.clamped


class TestSweep:
    def test_identity_bsc_matches_closed_form(self):
        m, src, d = bsc_problem(0.15)
        curve = sweep_curve(src, d, m.f, 40)
        for pt in curve.points:
            assert pt.rate == pytest.approx(bsc_irdf(m, pt.distortion), abs=1e-6)

    def test_curve_shape_invariants(self):
        m, src, d = bsc_problem(0.1)
        curve = sweep_curve(src, d, m.f, 30)
        ds, rs = curve.distortions, curve.rates
        assert np.all(np.diff(ds) > 0)
        assert np.all(np.diff(rs) <= 1e-9)
        assert rs[-1] == pytest.approx(0.0, abs=1e-9)
        assert curve.d_min == pytest.approx(0.1, abs=1e-12)
        assert curve.d_max == pytest.approx(0.5, abs=1e-12)

    def test_exponential_domain(self):
        rho, beta = 9.2, 0.01
        f = FTransform.exponential(rho)
        m, src, d = bsc_problem(beta, f)
        curve = sweep_curve(src, d, f, 20)
        assert curve.d_min == pytest.approx(math.log(1 - beta + beta * math.exp(rho)) / rho, rel=1e-12)
        assert curve.d_max == pytest.approx(math.log((1 + math.exp(rho)) / 2) / rho, rel=1e-12)
        assert curve.distortions[0] > curve.d_min

    def test_quadratic_domain(self):
        f = FTransform.power(2.0)
        m, src, d = bsc_problem(0.001, f)
        curve = sweep_curve(src, d, f, 10)
        assert curve.d_min == pytest.approx(math.sqrt(0.001), rel=1e-12)
        assert curve.d_max == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_slope_grid_mode(self):
        m, src, d = bsc_problem(0.15)
        cfg = SolverConfig(slope_grid=tuple(-np.geomspace(0.1, 50, 12)))
        curve = sweep_curve(src, d, m.f, 12, cfg)
        assert len(curve.points) == 12
        assert np.all(np.diff(curve.distortions) > 0)

    def test_raw_axis_not_convex_for_exponential(self):
        f = FTransform.exponential(9.2)
        m, src, d = bsc_problem(0.01, f)
        curve = sweep_curve(src, d, f, 41)
        rs = curve.rates
        assert np.all(np.diff(rs) <= 1e-9)
        worst = 0.0
        n = len(rs)
        for step in range(1, n // 2):
            for j in range(step, n - step):
                worst = max(worst, rs[j] - 0.5 * (rs[j - step] + rs[j + step]))
        assert worst >= 1e-3

    def test_transform_axis_still_convex_for_exponential(self):
        f = FTransform.exponential(9.2)
        m, src, d = bsc_problem(0.01, f)
        lo_d, hi_d = domain_bounds(m)
        fgrid = np.linspace(f.apply(lo_d), f.apply(hi_d), 41)
        rates = np.array([bsc_irdf(m, float(f.invert(v))) for v in fgrid])
        chords = 0.5 * (rates[:-2] + rates[2:])
        assert np.all(rates[1:-1] <= chords + 1e-9)


class TestCharacterize:
    def test_routes_match_closed_form(self):
        m, src, d = bsc_problem(0.15)
        rep = characterize(src, d, m.f, 0.3)
        oracle = bsc_irdf(m, 0.3)
        for rate in rep.rates():
            assert rate == pytest.approx(oracle, abs=1e-7)
        assert rep.max_spread <= 1e-8

    def test_noiseless_channel_all_routes(self):
        src = JointSource.from_prior_and_channel((0.5, 0.5), np.eye(2))
        d = DistortionMatrix.hamming(2)
        f = FTransform.power(2.0)
        rep = characterize(src, d, f, 0.4)
        assert rep.max_spread <= 1e-8

    def test_random_source(self):
        rng = np.random.default_rng(17)
        joint = rng.random((3, 4))
        src = JointSource.from_joint(joint / joint.sum())
        d = DistortionMatrix(rng.random((3, 3)))
        f = FTransform.shifted_cubic(0.3)
        am = build_amended(src, d, f)
        lo, hi = f_domain_bounds(am, src.z_marginal)
        D = float(f.invert(lo + 0.6 * (hi - lo)))
        rep = characterize(src, d, f, D)
        assert rep.max_spread <= 1e-8


class TestDistortionAtRate:
    def test_inverts_the_curve(self):
        m, src, d = bsc_problem(0.15)
        D = distortion_at_rate(src, d, m.f, 0.5 * LN2)
        assert bsc_irdf(m, D) == pytest.approx(0.5 * LN2, abs=1e-8)

    def test_zero_rate_gives_dmax(self):
        m, src, d = bsc_problem(0.15)
        assert distortion_at_rate(src, d, m.f, 0.0) == pytest.approx(0.5, abs=1e-12)


class TestSlopeSearch:
    def test_solves_per_target(self, monkeypatch):
        m, src, d = bsc_problem(0.15)
        slopes = []

        def counted(amended, pz, s, cfg=None):
            slopes.append(s)
            return ba_fixed_slope(amended, pz, s, cfg)

        monkeypatch.setattr(solver, "ba_fixed_slope", counted)
        n = 40
        curve = sweep_curve(src, d, m.f, n)
        assert len(slopes) <= 12 * n  # bisection took 26.2 per target
        levels = 0.15 + 0.35 * np.arange(1, n + 1) / n
        tol_f = SolverConfig().bisection_tol
        for pt, level in zip(curve.points, levels):
            assert abs(pt.f_distortion - level) <= tol_f


class TestUncertifiedPointsRaise:
    def test_characterize(self):
        src, d, f, _, D = _criterion_05_draw(97)
        with pytest.raises(NotConverged):
            characterize(src, d, f, D, SolverConfig(max_iters=1))

    def test_distortion_at_rate(self):
        src, d, f, _, _ = _criterion_05_draw(97)
        with pytest.raises(NotConverged):
            distortion_at_rate(src, d, f, 0.1, SolverConfig(max_iters=1))


class TestSweepDeterminism:
    def test_identical_sweeps_are_array_equal(self):
        m, src, d = bsc_problem(0.15, FTransform.exponential(9.2))
        first = sweep_curve(src, d, m.f, 12)
        second = sweep_curve(src, d, m.f, 12)
        np.testing.assert_array_equal(first.distortions, second.distortions)
        np.testing.assert_array_equal(first.rates, second.rates)


def _criterion_05_draw(index):
    """Draw ``index`` (0-based) of the criterion-05 generator: source,
    distortion, transform, amended matrices and the raw target level."""
    rng = np.random.default_rng(20240817)
    for _ in range(index + 1):
        nx, nz, nh = rng.integers(2, 5, size=3)
        joint = rng.random((nx, nz)) ** 2
        src = JointSource.from_joint(joint / joint.sum())
        d = DistortionMatrix(rng.random((nx, nh)))
        f = _random_transform(rng)
        am = build_amended(src, d, f)
        lo, hi = f_domain_bounds(am, src.z_marginal)
        target = lo + float(rng.uniform(0.15, 0.9)) * (hi - lo)
    return src, d, f, am, float(f.invert(target))


def _reduced(am, pz):
    used = am.used_z
    return (np.ascontiguousarray(am.expected_f[used]),
            np.ascontiguousarray(pz[used] / pz[used].sum()))


def _blahut_lower_bound(e, pz, s, q, level):
    """R(level) >= s*level - sum_z p log sum_x q exp(s e) - max_x log c(x)."""
    row_min = e.min(axis=1)
    with np.errstate(under="ignore"):
        tilt = np.exp(s * (e - row_min[:, None]))
    den = tilt @ q
    c = (pz / den) @ tilt
    return s * level - pz @ (np.log(den) + s * row_min) - np.log(c.max())


class TestKernel:
    def test_matches_bsc_closed_form(self):
        m, src, d = bsc_problem(0.15)
        e, pz = _reduced(build_amended(src, d, m.f), src.z_marginal)
        for s in (-0.5, -3.0, -20.0):
            _, q_out, f_dist, rate_mi, rate_par, iters, gap = kernels.ba_fixed_slope_loop(
                e, pz, s, 20000, 1e-12, 1e-300
            )
            assert gap <= 1e-12
            assert q_out.sum() == pytest.approx(1.0, abs=1e-14)
            assert rate_mi == pytest.approx(bsc_irdf(m, f_dist), abs=1e-10)
            assert rate_par == pytest.approx(rate_mi, abs=1e-10)

    def test_support_shrink_at_steep_slope(self):
        # Two blocks at s = -2**40; cross-block distortion 1 tilts to exactly 0.
        # Letter 1 serves row 1 and is within d01 of row 0's minimum, letter 0,
        # with tilt exp(s * d01) = 1/2. Letter 0's multiplier c settles near
        # 0.2, so its mass leaves the support after a few hundred iterations;
        # letter 2's settles near 0.99, which keeps the gap open until then.
        s = -(2.0**40)
        d01 = math.log(2.0) / 2.0**40
        d23 = math.log(0.99 / 0.2) / 2.0**40
        e = np.array([
            [0.0, d01, 1.0, 1.0],
            [1.0, 0.0, 1.0, 1.0],
            [1.0, 1.0, 0.0, d23],
            [1.0, 1.0, 1.0, 0.0],
        ])
        pz = np.array([0.05, 0.45, 0.1, 0.4])
        with np.errstate(all="raise"):
            q_cond, q_out, f_dist, rate_mi, rate_par, iters, gap = kernels.ba_fixed_slope_loop(
                e, pz, s, 20000, 1e-12, 1e-300
            )
        for value in (q_cond, q_out, f_dist, rate_mi, rate_par, gap):
            assert np.all(np.isfinite(value))
        assert q_out[0] == 0.0 and np.all(q_cond[:, 0] == 0.0)
        assert q_out[1] == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(q_cond.sum(axis=1), 1.0, atol=1e-14)
        assert f_dist == pytest.approx(0.05 * d01 + 0.1 * d23, rel=1e-6)
        assert rate_mi == pytest.approx(LN2, abs=1e-9)
        assert gap <= 1e-12 and iters < 20000
        lower = _blahut_lower_bound(e, pz, s, q_out, f_dist)
        assert rate_mi - lower <= gap + 1e-12

    @pytest.mark.parametrize(
        "draw, s", [(19, -0.5), (49, -16.0), (72, -0.5), (97, -0.5), (97, -1.0)]
    )
    def test_formerly_capped_calls_certify(self, draw, s):
        # Cover's multiplicative update stopped these at 20,000 iterations
        # with gaps up to 5.8e-6 nats
        src, _, _, am, _ = _criterion_05_draw(draw)
        e, pz = _reduced(am, src.z_marginal)
        _, q_out, f_dist, rate_mi, _, iters, gap = kernels.ba_fixed_slope_loop(
            e, pz, s, 20000, 1e-12, 1e-300
        )
        assert gap <= 1e-12 and iters <= 100
        assert rate_mi - _blahut_lower_bound(e, pz, s, q_out, f_dist) <= gap + 1e-12

    def test_pinned_letter_still_counts_in_gap(self):
        # A floor above letter 1's optimal mass (about 0.2) pins it to 0; the
        # gap over all letters then refuses to certify the one-letter point.
        e = np.array([[0.0, 1.0], [1.0, 0.0]])
        pz = np.array([0.8, 0.2])
        _, q_out, _, _, _, _, gap = kernels.ba_fixed_slope_loop(e, pz, -5.0, 20000, 1e-12, 0.3)
        np.testing.assert_array_equal(q_out, [1.0, 0.0])
        assert 1.0 < gap < np.inf

    @pytest.mark.parametrize("s", [-3.0, -(2.0**40)])
    def test_dropped_letters_return(self, s):
        # boundary steps drop letters that the optimum needs back; at the
        # steep slope a step that empties a row's only letter is refused
        rng = np.random.default_rng(28)
        e = rng.random((3, 4))
        pz = rng.random(3) + 0.1
        pz /= pz.sum()
        with np.errstate(all="raise"):
            _, q_out, f_dist, rate_mi, _, iters, gap = kernels.ba_fixed_slope_loop(
                e, pz, s, 20000, 1e-12, 1e-300
            )
        assert gap <= 1e-12 and iters <= 100
        if s == -3.0:
            assert rate_mi - _blahut_lower_bound(e, pz, s, q_out, f_dist) <= gap + 1e-12

    def test_starved_letter_returns_with_useful_mass(self):
        # a letter that alone serves a light row comes back with mass near
        # its best share; grown by Newton steps alone it needed 142 iterations
        rng = np.random.default_rng(33)
        e = np.round(rng.random((4, 4)) * 3) / 3
        pz = rng.random(4) ** 2 + 1e-3
        pz /= pz.sum()
        *_, iters, gap = kernels.ba_fixed_slope_loop(e, pz, -300.0, 20000, 1e-12, 1e-300)
        assert gap <= 1e-12 and iters <= 30

    def test_damping_keeps_newton_system_regular(self):
        # tied distortions make H singular on a large support; with damping
        # allowed below roundoff of H the systems turned exactly singular
        # and the ascent took 148 iterations
        e = np.array([
            [2, 0, 1, 2, 1, 3, 0, 1, 2, 2, 2, 1],
            [1, 3, 3, 1, 2, 2, 1, 3, 3, 3, 1, 0],
            [1, 2, 0, 2, 3, 1, 1, 2, 3, 0, 2, 2],
            [2, 2, 0, 1, 1, 2, 1, 1, 1, 0, 1, 2],
            [1, 2, 3, 1, 1, 1, 2, 3, 2, 3, 0, 2],
            [1, 1, 3, 1, 3, 1, 2, 2, 2, 3, 2, 0],
            [3, 2, 2, 2, 2, 2, 2, 0, 2, 3, 2, 0],
        ]) / 3.0
        pz = np.array([0.28, 0.12, 0.1, 0.23, 0.06, 0.09, 0.11])
        pz /= pz.sum()
        *_, iters, gap = kernels.ba_fixed_slope_loop(e, pz, -30.0, 20000, 1e-12, 1e-300)
        assert gap <= 1e-12 and iters <= 100

    def test_gap_tol_below_roundoff_ends_uncertified(self):
        # the gap cannot fall below roundoff; once no damped step changes q
        # the kernel stops, where growing the damping further would make the
        # Newton system singular
        rng = np.random.default_rng(22)
        e = rng.random((3, 3))
        pz = rng.random(3) + 0.1
        pz /= pz.sum()
        with np.errstate(all="raise"):
            _, q_out, _, _, _, iters, gap = kernels.ba_fixed_slope_loop(
                e, pz, -1.0, 20000, 1e-20, 1e-300
            )
        assert iters < 20
        assert 1e-20 < gap <= 1e-15
        assert q_out.sum() == pytest.approx(1.0, abs=1e-14)

    def test_zero_gap_tol_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(gap_tol=0)


class TestDualityGap:
    def test_gap_bounds_distance_to_lower_bound(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            nx, nz, nh = rng.integers(2, 5, size=3)
            joint = rng.random((nx, nz)) ** 2
            src = JointSource.from_joint(joint / joint.sum())
            d = DistortionMatrix(rng.random((nx, nh)))
            f = FTransform.identity()
            am = build_amended(src, d, f)
            lo, hi = f_domain_bounds(am, src.z_marginal)
            D = lo + float(rng.uniform(0.15, 0.9)) * (hi - lo)
            pt = solve_at_distortion(src, d, f, D, amended=am)
            assert pt.converged and pt.gap <= SolverConfig().gap_tol
            e, pz = _reduced(am, src.z_marginal)
            lower = _blahut_lower_bound(e, pz, pt.slope, pt.q_out, pt.f_distortion)
            assert pt.rate - lower <= pt.gap + 1e-12

    def test_zero_rate_point_has_zero_gap(self):
        _, src, d = bsc_problem(0.15)
        pt = ba_fixed_slope(build_amended(src, d, FTransform.identity()), src.z_marginal, 0.0)
        assert pt.gap == 0.0 and pt.converged

"""Solver: slope fixed points, the slope search for a target level, sweeps,
and the three-route equivalence."""

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
    bec_irdf,
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

    def test_marginal_consistent(self):
        for f in (FTransform.identity(), FTransform.exponential(9.2)):
            _, src, d = bsc_problem(0.15, f)
            am = build_amended(src, d, f)
            for s_scale in (0.1, 1.0, 10.0):
                span = np.ptp(am.expected_f)
                pt = ba_fixed_slope(am, src.z_marginal, -s_scale / span)
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


def _count_solves(monkeypatch):
    """Slopes of every fixed-slope solve made through ``solver.ba_fixed_slope``."""
    slopes = []

    def counted(amended, pz, s, cfg=None, q0=None):
        slopes.append(s)
        return ba_fixed_slope(amended, pz, s, cfg, q0)

    monkeypatch.setattr(solver, "ba_fixed_slope", counted)
    return slopes


class TestDistortionAtRate:
    @pytest.mark.parametrize(
        "beta, f",
        [(0.15, FTransform.identity()), (0.01, FTransform.exponential(9.2)),
         (0.01, FTransform.sqrt())],
        ids=["identity", "exponential", "sqrt"],
    )
    def test_inverts_the_curve(self, beta, f):
        m, src, d = bsc_problem(beta, f)
        D = distortion_at_rate(src, d, f, 0.5 * LN2)
        assert abs(bsc_irdf(m, D) - 0.5 * LN2) <= 1e-8

    def test_zero_rate_gives_dmax(self):
        m, src, d = bsc_problem(0.15)
        assert distortion_at_rate(src, d, m.f, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_rate_above_maximum_gives_dmin(self):
        m, src, d = bsc_problem(0.15)
        # d_min itself, not a point within the level tolerance of it
        assert distortion_at_rate(src, d, m.f, 1.2 * LN2) == pytest.approx(0.15, abs=1e-15)

    def test_one_slope_search(self, monkeypatch):
        # bisecting the raw level, with a slope search per step, took 321
        m, src, d = bsc_problem(0.15)
        slopes = _count_solves(monkeypatch)
        D = distortion_at_rate(src, d, m.f, 0.3)
        assert len(slopes) <= 15
        assert abs(bsc_irdf(m, D) - 0.3) <= 1e-8


class TestSlopeSearch:
    @pytest.mark.parametrize(
        "beta, f",
        [(0.15, FTransform.identity()), (0.01, FTransform.exponential(9.2))],
        ids=["identity", "exponential_witness"],
    )
    def test_solves_per_target(self, monkeypatch, beta, f):
        # bisection took 26.2 per target on the identity BSC; a bracket
        # started at s = -1 took 19.6 on the witness, whose span is ~10**3
        m, src, d = bsc_problem(beta, f)
        slopes = _count_solves(monkeypatch)
        n = 40
        curve = sweep_curve(src, d, f, n)
        # one memo for the sweep: each target starts from its neighbours' bracket
        assert len(slopes) <= 5 * n
        lo, hi = f_domain_bounds(build_amended(src, d, f), src.z_marginal)
        levels = f.apply(curve.d_min + (curve.d_max - curve.d_min) * np.arange(1, n + 1) / n)
        levels[-1] = hi
        tol_f = SolverConfig().bisection_tol * max(1.0, hi - lo)
        for pt, level in zip(curve.points, levels):
            assert abs(pt.f_distortion - level) <= tol_f


    @pytest.mark.parametrize("bsc", [True, False], ids=["bsc", "bec"])
    @pytest.mark.parametrize(
        "f",
        [FTransform.identity(), FTransform.sqrt(), FTransform.power(2.0),
         FTransform.shifted_cubic(0.3), FTransform.exponential(9.2)],
        ids=["identity", "sqrt", "power", "shifted_cubic", "exponential"],
    )
    def test_shared_memo_keeps_sweep_levels(self, bsc, f):
        # points found from another target's bracket and warm start are still
        # on their own level and on the closed-form curve
        m, src, d = bsc_problem(0.1, f) if bsc else bec_problem(0.3, f)
        oracle = bsc_irdf if bsc else bec_irdf
        n = 40
        curve = sweep_curve(src, d, f, n)
        lo, hi = f_domain_bounds(build_amended(src, d, f), src.z_marginal)
        levels = f.apply(curve.d_min + (curve.d_max - curve.d_min) * np.arange(1, n + 1) / n)
        levels[-1] = hi
        tol_f = SolverConfig().bisection_tol * max(1.0, hi - lo)
        for pt, level in zip(curve.points, levels):
            assert pt.converged and abs(pt.f_distortion - level) <= tol_f
            assert abs(pt.rate - oracle(m, pt.distortion)) <= 1e-8


    def test_uncertified_warm_start_is_solved_again_cold(self, monkeypatch):
        # next to a kink of the curve a warm start can stall uncertified where
        # the uniform start certifies; here every warm start is cut at one
        # iteration
        src, d, f, _, _ = _criterion_05_draw(97)
        starts = []

        def stalled_when_warm(amended, pz, s, cfg=None, q0=None):
            starts.append(q0 is not None)
            if q0 is not None:
                cfg = SolverConfig(max_iters=1)
            return ba_fixed_slope(amended, pz, s, cfg, q0)

        monkeypatch.setattr(solver, "ba_fixed_slope", stalled_when_warm)
        curve = sweep_curve(src, d, f, 8)
        assert curve.all_converged
        assert any(a and not b for a, b in zip(starts, starts[1:]))

    def test_memo_point_on_the_level_is_returned_without_a_solve(self, monkeypatch):
        m, src, d = bsc_problem(0.15)
        am = build_amended(src, d, m.f)
        target = float(m.f.apply(0.3))
        memo = []
        first = solver._solve_reduced_at(am, src.z_marginal, target, SolverConfig(), memo)
        slopes = _count_solves(monkeypatch)
        again = solver._solve_reduced_at(am, src.z_marginal, target, SolverConfig(), memo)
        assert again is first and slopes == []
        assert all(a.slope < b.slope < 0.0 for a, b in zip(memo, memo[1:]))


class TestTransformScale:
    @pytest.mark.parametrize("scale", [1.0, 1e12, 1e16])
    def test_scaled_loss_gives_unscaled_answers(self, scale):
        # target slopes are ~1 / span, so a bracket stop that does not scale
        # with s ends the search before it reaches the level
        m, src, _ = bsc_problem(0.15)
        d = DistortionMatrix(DistortionMatrix.hamming(2).values * scale)
        f = FTransform.identity()
        pt = solve_at_distortion(src, d, f, 0.3 * scale)
        lo, hi = f_domain_bounds(build_amended(src, d, f), src.z_marginal)
        assert abs(pt.f_distortion - 0.3 * scale) <= SolverConfig().bisection_tol * (hi - lo)
        assert pt.converged and abs(pt.rate - bsc_irdf(m, 0.3)) <= 1e-8
        D = distortion_at_rate(src, d, f, 0.3)
        assert abs(bsc_irdf(m, D / scale) - 0.3) <= 1e-8

    @pytest.mark.parametrize("rho", [20.0, 40.0])
    def test_steep_exponential_pooling(self, rho):
        # f reaches e**rho, so roundoff in f(f^-1(y)) is ~1e-15 of that and
        # exceeds any fixed absolute bound
        f = FTransform.exponential(rho)
        m, src, d = bsc_problem(0.1, f)
        lo, hi = f_domain_bounds(build_amended(src, d, f), src.z_marginal)
        d_lo, d_hi = f.invert(lo), f.invert(hi)
        for frac in (0.2, 0.5, 0.8):
            D = d_lo + frac * (d_hi - d_lo)
            pt = solve_at_distortion(src, d, f, D)
            assert pt.converged and abs(pt.rate - bsc_irdf(m, D)) <= 1e-8


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
    return am.expected_f[used], pz[used] / pz[used].sum()


def _blahut_lower_bound(e, pz, s, q, level):
    """R(level) >= s*level - sum_z p log sum_x q exp(s e) - max_x log c(x)."""
    row_min = e.min(axis=1)
    with np.errstate(under="ignore"):
        tilt = np.exp(s * (e - row_min[:, None]))
    den = tilt @ q
    c = (pz / den) @ tilt
    return s * level - pz @ (np.log(den) + s * row_min) - np.log(c.max())


def _dropping_problem():
    # a boundary step drops letters that the optimum needs back
    rng = np.random.default_rng(28)
    e = rng.random((3, 4))
    pz = rng.random(3) + 0.1
    return e, pz / pz.sum()


def _starving_problem():
    # one letter alone serves a light row
    rng = np.random.default_rng(33)
    e = np.round(rng.random((4, 4)) * 3) / 3
    pz = rng.random(4) ** 2 + 1e-3
    return e, pz / pz.sum()


class TestKernel:
    def test_matches_bsc_closed_form(self):
        m, src, d = bsc_problem(0.15)
        e, pz = _reduced(build_amended(src, d, m.f), src.z_marginal)
        for s in (-0.5, -3.0, -20.0):
            _, q_out, f_dist, rate, iters, gap = kernels.ba_fixed_slope_loop(
                e, pz, s, 20000, 1e-12
            )
            assert gap <= 1e-12
            assert q_out.sum() == pytest.approx(1.0, abs=1e-14)
            assert rate == pytest.approx(bsc_irdf(m, f_dist), abs=1e-10)

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
            q_cond, q_out, f_dist, rate, iters, gap = kernels.ba_fixed_slope_loop(
                e, pz, s, 20000, 1e-12
            )
        for value in (q_cond, q_out, f_dist, rate, gap):
            assert np.all(np.isfinite(value))
        assert q_out[0] == 0.0 and np.all(q_cond[:, 0] == 0.0)
        assert q_out[1] == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(q_cond.sum(axis=1), 1.0, atol=1e-14)
        assert f_dist == pytest.approx(0.05 * d01 + 0.1 * d23, rel=1e-6)
        assert rate == pytest.approx(LN2, abs=1e-9)
        assert gap <= 1e-12 and iters < 20000
        lower = _blahut_lower_bound(e, pz, s, q_out, f_dist)
        assert rate - lower <= gap + 1e-12

    @pytest.mark.parametrize(
        "draw, s", [(19, -0.5), (49, -16.0), (72, -0.5), (97, -0.5), (97, -1.0)]
    )
    def test_formerly_capped_calls_certify(self, draw, s):
        # Cover's multiplicative update stopped these at 20,000 iterations
        # with gaps up to 5.8e-6 nats
        src, _, _, am, _ = _criterion_05_draw(draw)
        e, pz = _reduced(am, src.z_marginal)
        _, q_out, f_dist, rate, iters, gap = kernels.ba_fixed_slope_loop(e, pz, s, 20000, 1e-12)
        assert gap <= 1e-12 and iters <= 100
        assert rate - _blahut_lower_bound(e, pz, s, q_out, f_dist) <= gap + 1e-12

    @pytest.mark.parametrize("s", [-3.0, -(2.0**40)])
    def test_dropped_letters_return(self, s):
        # boundary steps drop letters that the optimum needs back; at the
        # steep slope a step that empties a row's only letter is refused
        e, pz = _dropping_problem()
        with np.errstate(all="raise"):
            _, q_out, f_dist, rate, iters, gap = kernels.ba_fixed_slope_loop(
                e, pz, s, 20000, 1e-12
            )
        assert gap <= 1e-12 and iters <= 100
        if s == -3.0:
            assert rate - _blahut_lower_bound(e, pz, s, q_out, f_dist) <= gap + 1e-12

    def test_warm_start_at_the_same_slope_is_certified_at_once(self):
        src, _, _, am, _ = _criterion_05_draw(19)
        cold = ba_fixed_slope(am, src.z_marginal, -0.5)
        assert cold.converged and cold.iterations > 1
        warm = ba_fixed_slope(am, src.z_marginal, -0.5, q0=cold.q_out)
        assert warm.converged and warm.iterations == 1
        assert abs(warm.rate - cold.rate) <= cold.gap

    def test_zero_mass_start_letter_returns(self):
        # a warm start from a slope where a letter the optimum uses had no mass
        e, pz = _dropping_problem()
        _, q_cold, _, rate_cold, _, _ = kernels.ba_fixed_slope_loop(e, pz, -3.0, 20000, 1e-12)
        x = int(np.argmax(q_cold))
        q0 = np.full(q_cold.size, 1.0)
        q0[x] = 0.0
        with np.errstate(all="raise"):
            _, q_out, f_dist, rate, iters, gap = kernels.ba_fixed_slope_loop(
                e, pz, -3.0, 20000, 1e-12, q0
            )
        assert q_out[x] > 0.0
        assert gap <= 1e-12 and iters <= 100
        assert abs(rate - rate_cold) <= 1e-10
        assert rate - _blahut_lower_bound(e, pz, -3.0, q_out, f_dist) <= gap + 1e-12

    @pytest.mark.parametrize("q0", [[0.0, 0.0, 0.0, 0.0], [0.5, -0.1, 0.3, 0.3], [0.5, 0.5]],
                             ids=["no_mass", "negative", "wrong_size"])
    def test_invalid_start_rejected(self, q0):
        e, pz = _dropping_problem()
        with pytest.raises(ValueError, match="q0"):
            kernels.ba_fixed_slope_loop(e, pz, -3.0, 20000, 1e-12, np.array(q0))

    def test_starved_letter_returns_with_useful_mass(self):
        # a letter that alone serves a light row comes back with mass near
        # its best share; grown by Newton steps alone it needed 142 iterations
        e, pz = _starving_problem()
        *_, iters, gap = kernels.ba_fixed_slope_loop(e, pz, -300.0, 20000, 1e-12)
        assert gap <= 1e-12 and iters <= 30

    @pytest.mark.parametrize(
        "problem, s", [(_dropping_problem, -3.0), (_starving_problem, -300.0)],
        ids=["dropping", "starving"],
    )
    def test_gap_covers_dropped_letters(self, problem, s):
        # stopped at every cap on the way to convergence, the returned gap is
        # max log c over all letters at the returned pmf, dropped ones included
        e, pz = problem()
        tilt = np.exp(s * (e - e.min(axis=1)[:, None]))
        dropped = 0
        for cap in range(1, 101):
            _, q_out, _, _, iters, gap = kernels.ba_fixed_slope_loop(e, pz, s, cap, 1e-12)
            c = (pz / (tilt @ q_out)) @ tilt
            assert gap == pytest.approx(np.log(c.max()), abs=1e-12)
            dropped += bool(np.any(q_out == 0.0))
            if gap <= 1e-12:
                break
        assert gap <= 1e-12 and dropped > 0

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
        *_, iters, gap = kernels.ba_fixed_slope_loop(e, pz, -30.0, 20000, 1e-12)
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
            _, q_out, _, _, iters, gap = kernels.ba_fixed_slope_loop(e, pz, -1.0, 20000, 1e-20)
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

"""Solver: slope fixed points, the slope search for a target level, sweeps,
and points checked against the remote Blahut-Arimoto reference."""

import bisect
import dataclasses
import itertools
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
    ba_fixed_slope,
    bec_irdf,
    binary_entropy,
    bsc_irdf,
    build_amended,
    distortion_at_rate,
    domain_bounds,
    f_domain_bounds,
    solve_at_distortion,
    sweep_curve,
)
from irdf import kernels, solver
from test_acceptance import (_criterion_05_draws, _random_transform, _reference_deviation,
                             _remote_ba_lower_bound)

LN2 = math.log(2.0)
MAX_ITERS, GAP_TOL, BISECTION_TOL = solver._MAX_ITERS, solver._GAP_TOL, solver._BISECTION_TOL


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

    @pytest.mark.parametrize("s", [math.nan, -math.inf], ids=["nan", "minus_inf"])
    def test_non_finite_slope_rejected(self, s):
        # NaN gave a point with slope NaN, and -inf a RuntimeWarning from the tilt
        _, src, d = bsc_problem(0.15)
        am = build_amended(src, d, FTransform.identity())
        with pytest.raises(ValueError, match="slope"):
            ba_fixed_slope(am, src.z_marginal, s)

    def test_non_finite_start_rejected(self):
        # an inf entry passed the sign and mass checks, then gave NaN rows
        _, src, d = bsc_problem(0.15)
        am = build_amended(src, d, FTransform.identity())
        with pytest.raises(ValueError, match="q0"):
            ba_fixed_slope(am, src.z_marginal, -0.5, q0=np.array([math.inf, 1.0]))

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

    def test_roundoff_below_a_large_minimum_is_the_minimum(self):
        # one z gives lo = hi; at |lo| ~ 1.7e7 the round trip f(f^-1(lo))
        # misses lo by more than tol_f = 1e-9, which raised DomainError
        src = JointSource.from_joint(np.array([[0.5], [0.5]]))
        d = DistortionMatrix([[4115.1, 8230.0], [4115.3, 8230.0]])
        f = FTransform.power(2.0)
        lo, hi = f_domain_bounds(build_amended(src, d, f), src.z_marginal)
        d_lo = f.invert(lo)
        assert lo - f.apply(d_lo) > BISECTION_TOL
        assert solve_at_distortion(src, d, f, d_lo).rate == 0.0
        curve = sweep_curve(src, d, f, 10)
        assert curve.all_converged and np.all(curve.rates == 0.0)
        # below lo by more than that roundoff is still infeasible
        with pytest.raises(DomainError):
            solve_at_distortion(src, d, f, f.invert(lo - 4.0 * (lo - f.apply(d_lo))))

    @pytest.mark.parametrize("f", [FTransform.identity(), FTransform.sqrt(),
                                   FTransform.power(2.0)], ids=["identity", "sqrt", "power"])
    def test_nan_and_negative_levels_raise(self, f):
        # NaN gave the zero-rate point flagged unconverged; -inf gave it too
        # under sqrt (a NaN level) and flagged clamped under power 2 (f = inf)
        _, src, d = bsc_problem(0.1, f)
        for D in (math.nan, -math.inf, -0.1):
            with pytest.raises(DomainError):
                solve_at_distortion(src, d, f, D)
        pt = solve_at_distortion(src, d, f, math.inf)
        assert pt.clamped and pt.converged and pt.rate == 0.0

    def test_level_whose_transform_overflows(self):
        # exp(9.2 * 100) overflows: f(D) is inf, above the zero-rate level,
        # with no RuntimeWarning on the way
        m, src, d = bsc_problem(0.1, FTransform.exponential(9.2))
        pt = solve_at_distortion(src, d, m.f, 100.0)
        assert pt.clamped and pt.converged and pt.rate == 0.0

    def test_above_domain_clamps_to_zero(self):
        _, src, d = bsc_problem(0.15)
        pt = solve_at_distortion(src, d, FTransform.identity(), 0.75)
        assert pt.rate == 0.0
        assert pt.clamped


class TestSlopePoint:
    def test_points_stay_frozen(self):
        # a search's points are built with one write of their __dict__
        m, src, d = bsc_problem(0.15)
        pt = sweep_curve(src, d, m.f, 4).points[1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            pt.rate = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del pt.slope
        clamped = dataclasses.replace(pt, clamped=True)
        assert clamped.clamped and not pt.clamped
        for field in dataclasses.fields(solver.SlopePoint):
            if field.name != "clamped":
                assert getattr(clamped, field.name) is getattr(pt, field.name)
        fields = {f.name: getattr(pt, f.name) for f in dataclasses.fields(solver.SlopePoint)}
        assert repr(pt) == repr(solver.SlopePoint(**fields))
        assert vars(pt).keys() == fields.keys()


class TestSweep:
    def test_non_integer_point_count_rejected(self):
        # 3.5 gave 4 points at uneven levels, all flagged converged
        m, src, d = bsc_problem(0.15)
        with pytest.raises(TypeError):
            sweep_curve(src, d, m.f, 3.5)
        assert len(sweep_curve(src, d, m.f, np.int64(3)).points) == 3

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

    def test_steep_power_matches_closed_form(self):
        # x**200 underflows to 0 near 0, which a sampled monotonicity scan
        # took for a flat transform: the curve raised MonotonicityError
        f = FTransform.power(200.0)
        m, src, d = bsc_problem(0.1, f)
        curve = sweep_curve(src, d, f, 40)
        assert curve.all_converged
        for pt in curve.points:
            assert abs(pt.rate - bsc_irdf(m, pt.distortion)) <= 1e-8

    def test_transform_axis_still_convex_for_exponential(self):
        f = FTransform.exponential(9.2)
        m, src, d = bsc_problem(0.01, f)
        lo_d, hi_d = domain_bounds(m)
        fgrid = np.linspace(f.apply(lo_d), f.apply(hi_d), 41)
        rates = np.array([bsc_irdf(m, float(f.invert(v))) for v in fgrid])
        chords = 0.5 * (rates[:-2] + rates[2:])
        assert np.all(rates[1:-1] <= chords + 1e-9)


def _bsc_problem():
    _, src, d = bsc_problem(0.15)
    return src, d, FTransform.identity(), 0.3


def _noiseless_problem():
    src = JointSource.from_prior_and_channel((0.5, 0.5), np.eye(2))
    return src, DistortionMatrix.hamming(2), FTransform.power(2.0), 0.4


def _seed_17_problem():
    rng = np.random.default_rng(17)
    joint = rng.random((3, 4))
    src = JointSource.from_joint(joint / joint.sum())
    d = DistortionMatrix(rng.random((3, 3)))
    f = FTransform.shifted_cubic(0.3)
    lo, hi = f_domain_bounds(build_amended(src, d, f), src.z_marginal)
    return src, d, f, float(f.invert(lo + 0.6 * (hi - lo)))


def _steep_tabulated_problem(D):
    # f steps by 0.5 over 1e-12 at the loss 0.5 + 5e-13, so f(f^-1(y)) misses
    # y by ~1e-5 there: the reduction rejected the problem as drift
    src = JointSource.from_joint(np.array([[0.4, 0.1], [0.1, 0.4]]))
    d = DistortionMatrix([[0.0, 0.5000000000005], [0.5000000000005, 0.0]])
    f = FTransform.tabulated([[0.0, 0.0], [0.5, 0.5], [0.500000000001, 1.0], [1.0, 1.5]])
    return src, d, f, D


@pytest.mark.parametrize(
    "problem",
    [_bsc_problem, _noiseless_problem, _seed_17_problem,
     lambda: _steep_tabulated_problem(0.16), lambda: _steep_tabulated_problem(0.3)],
    ids=["bsc", "noiseless_power", "seed_17_cubic", "steep_tabulated_0.16",
         "steep_tabulated_0.3"],
)
def test_remote_reference(problem):
    # criterion 05's check on more problems
    src, d, f, D = problem()
    pt = solve_at_distortion(src, d, f, D)
    assert pt.converged and _reference_deviation(src, d, f, pt)[0] <= 1e-8


def _cold_memo(problem):
    """A search's smallest memo: one lane at -1/span from the uniform pmf,
    and the s = 0 solve."""
    cold = solver._lanes(problem.e, problem.w, [-1.0 / (problem.hi - problem.lo)], None)
    return cold + [problem.zero]


def _count_solves(monkeypatch):
    """Slopes of every kernel lane, in call order."""
    slopes = []
    real = kernels.ba_fixed_slope_loop

    def counted(expected_f, pz, s, *args):
        slopes.extend(np.asarray(s).tolist())
        return real(expected_f, pz, s, *args)

    monkeypatch.setattr(kernels, "ba_fixed_slope_loop", counted)
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

    def test_nan_rate_raises(self):
        # raised NotConverged "duality gap 0 nats after 0 iterations"
        m, src, d = bsc_problem(0.1)
        with pytest.raises(DomainError):
            distortion_at_rate(src, d, m.f, math.nan)

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

    def test_first_lane_is_cold_at_the_inverse_span(self, monkeypatch):
        # the search's memo starts with one lane from the uniform pmf at
        # -1/span, solved before the search's first round
        m, src, d = bsc_problem(0.15, FTransform.sqrt())
        lo, hi = f_domain_bounds(build_amended(src, d, m.f), src.z_marginal)
        calls = []
        real = kernels.ba_fixed_slope_loop

        def recorded(expected_f, pz, s, max_iters, gap_tol, q0=None):
            calls.append((np.asarray(s).tolist(), q0))
            return real(expected_f, pz, s, max_iters, gap_tol, q0)

        monkeypatch.setattr(kernels, "ba_fixed_slope_loop", recorded)
        D = distortion_at_rate(src, d, m.f, 0.3)
        assert calls[0] == ([-1.0 / (hi - lo)], None) and len(calls) > 1
        assert abs(bsc_irdf(m, D) - 0.3) <= 1e-8

    @pytest.mark.parametrize("rate", [0.05, 0.3])
    def test_round_trip_on_random_sources(self, rate, criterion_05_targets):
        # the lone level at the returned D is on the rate: the search's point
        # is within |s| tol_f of it, the lone level lands within tol_f of that
        # point's level (|s| tol_f more in rate), and both rates are within
        # their gaps, at most gap_tol, of the curve. Or the rate is beyond the
        # curve's reach, and D is d_min
        reached = 0
        for src, d, f, am, _ in criterion_05_targets:
            lo, hi = f_domain_bounds(am, src.z_marginal)
            D = distortion_at_rate(src, d, f, rate)
            pt = solve_at_distortion(src, d, f, D)
            assert pt.converged
            if D == f.invert(np.array([lo, hi]))[0] and pt.rate < rate:  # as the solver inverts lo
                continue
            tol_f = BISECTION_TOL * max(1.0, hi - lo)
            assert abs(pt.rate - rate) <= 2.0 * -pt.slope * tol_f + GAP_TOL
            reached += 1
        assert reached > len(criterion_05_targets) // 2


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
        tol_f = BISECTION_TOL * max(1.0, hi - lo)
        for pt, level in zip(curve.points, levels):
            assert abs(pt.f_distortion - level) <= tol_f


    @pytest.mark.parametrize(
        "beta, f, n",
        [(0.15, FTransform.identity(), 40), (0.01, FTransform.exponential(9.2), 40),
         (0.01, FTransform.exponential(9.2), 200)],
        ids=["identity", "exponential_witness", "headline_200"],
    )
    def test_kernel_calls_per_sweep(self, monkeypatch, beta, f, n):
        # the targets advance in lockstep, one kernel call per round (plus a
        # cold retry when a warm lane ends uncertified): a ladder of slopes,
        # then cubic model steps, 4, 5 and 6 calls here; one call per solve
        # made ~125 calls for 40 points, and doubling from -1/span with
        # inverse quadratic steps 9, 8 and 10
        m, src, d = bsc_problem(beta, f)
        calls = []
        real = kernels.ba_fixed_slope_loop

        def counted(expected_f, pz, s, *args):
            calls.append(len(s))
            return real(expected_f, pz, s, *args)

        monkeypatch.setattr(kernels, "ba_fixed_slope_loop", counted)
        curve = sweep_curve(src, d, f, n)
        assert curve.all_converged
        assert len(calls) <= 6 and max(calls) > 1

    @pytest.mark.parametrize("draw, frac", [(165, 0.3), (165, 0.7), (363, 0.01)])
    def test_levels_on_linear_segments(self, draw, frac):
        # f_distortion jumps across one slope s* here (draw 363: from 60.2936
        # to 60.8026 at s* = -0.105877, supports {0, 2} and {0, 1, 2}); the
        # bracket collapses onto s*, and its ends came back off the level by
        # 0.545, 8.0 and -0.124, flagged converged
        _check_segment_level(draw, frac)

    @pytest.mark.parametrize("frac", [0.01, 0.3, 0.7])
    @pytest.mark.parametrize("draw", [165, 270, 363])
    def test_levels_on_linear_segments_through_the_search(self, monkeypatch, draw, frac):
        # the joint Newton iteration gives up at its start, so the lone level
        # is left to the slope search, seeded with a lane at -1/span solved on
        # from the start's pmf
        real = kernels.level_newton

        def gives_up(e, pz, s, q, level, tol_f, max_iters, gap_tol):
            return real(e, pz, s, q, level, tol_f, 1, gap_tol)

        monkeypatch.setattr(kernels, "level_newton", gives_up)
        slopes = _count_solves(monkeypatch)
        seeded = []  # lanes solved once the memo is seeded
        real_seed = solver._newton_seed

        def seed(*args):
            seeded_row = real_seed(*args)
            seeded.append(len(slopes))
            return seeded_row

        monkeypatch.setattr(solver, "_newton_seed", seed)
        _check_segment_level(draw, frac)
        # the search itself solved at least one lane
        assert len(seeded) == 1 and len(slopes) > seeded[0]

    @pytest.mark.parametrize("n", [10, 40])
    @pytest.mark.parametrize("draw", [165, 270, 363])
    def test_sweeps_across_linear_segments(self, draw, n):
        # every level of one search, the ones on a linear segment of the
        # curve among them, is on its level, flagged as its gap says, and
        # within its gap of Blahut's bound
        src, d, f, am = _segment_draw(draw)
        curve = sweep_curve(src, d, f, n)
        lo, hi = f_domain_bounds(am, src.z_marginal)
        tol_f = BISECTION_TOL * max(1.0, hi - lo)
        levels = f.apply(curve.d_min + (curve.d_max - curve.d_min) * np.arange(1, n + 1) / n)
        levels[-1] = hi
        e, pz = _reduced(am, src.z_marginal)
        for pt, level in zip(curve.points, levels):
            assert abs(pt.f_distortion - level) <= tol_f
            assert pt.converged == (pt.gap <= GAP_TOL)
            lower = _blahut_lower_bound(e, pz, pt.slope, pt.q_out, pt.f_distortion)
            assert pt.rate - lower <= pt.gap + 1e-12

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
        tol_f = BISECTION_TOL * max(1.0, hi - lo)
        for pt, level in zip(curve.points, levels):
            assert pt.converged and abs(pt.f_distortion - level) <= tol_f
            assert abs(pt.rate - oracle(m, pt.distortion)) <= 1e-8


    def test_lanes_start_from_the_bracket_that_proposed_them(self, monkeypatch):
        # every lane of a search round starts from the output pmf of the
        # nearer end of the memo bracket around its slope, the lower one on a
        # tie and never the s = 0 solve; a lane below every solve, from the
        # steepest. A cold lane is only a retry of the round's uncertified
        # lanes (the search once opened a rate target with a cold round), and
        # a lane at a memo slope time-shares its bracket's ends
        memo_now, checked = [], [0]  # the memo of the search running; the warm lanes checked
        calls = []  # each kernel call's slopes, for the retries
        real_search, real_kernel = solver._search, kernels.ba_fixed_slope_loop

        def search(problem, goals, memo, by_rate=False):
            memo_now.append(memo)
            try:
                return real_search(problem, goals, memo, by_rate)
            finally:
                memo_now.pop()

        def kernel(expected_f, pz, s, max_iters, gap_tol, q0=None):
            lanes = np.asarray(s).tolist()
            if memo_now:
                memo = memo_now[-1]
                slopes = [x[0] for x in memo]
                assert slopes[-1] == 0.0 and all(a < b for a, b in zip(slopes, slopes[1:]))
                assert q0 is not None or set(lanes) <= set(calls[-1])
                for s_b, q_b in zip(lanes, [] if q0 is None else q0):
                    if s_b in slopes:
                        continue
                    j = bisect.bisect_left(slopes, s_b)
                    lower = j == len(slopes) - 1 or (j and s_b - slopes[j - 1] <= slopes[j] - s_b)
                    np.testing.assert_array_equal(q_b, memo[j - 1 if lower else j][5])
                    checked[0] += 1
            calls.append(lanes)
            return real_kernel(expected_f, pz, s, max_iters, gap_tol, q0)

        monkeypatch.setattr(solver, "_search", search)
        monkeypatch.setattr(kernels, "ba_fixed_slope_loop", kernel)
        for draw in range(100):
            src, d, f, am = _segment_draw(draw)
            lo, hi = f_domain_bounds(am, src.z_marginal)
            if hi - lo > 1e-9:
                sweep_curve(src, d, f, 10)
                distortion_at_rate(src, d, f, 0.2)
        assert checked[0] > 1000

    def test_conjugate_is_convex_between_memo_solves(self, monkeypatch):
        # the identity the search step rests on: G(s) = s * f - rate is
        # convex with G' = f, so between consecutive solves G rises by
        # between f_1 * h and f_2 * h, up to the two gaps
        memos = []  # each search's memo, which it fills in place
        real = solver._search

        def recorded(problem, goals, memo, by_rate=False):
            memos.append(memo)
            return real(problem, goals, memo, by_rate)

        monkeypatch.setattr(solver, "_search", recorded)
        pairs = 0
        for draw in range(100):
            src, d, f, am = _segment_draw(draw)
            memos.clear()
            sweep_curve(src, d, f, 10)
            for memo in memos:
                solves = memo[:-1]  # the s < 0 solves, without the analytic s = 0 one
                for (s1, f1, r1, g1, *_), (s2, f2, r2, g2, *_) in itertools.pairwise(solves):
                    g1, g2 = max(g1, 0.0), max(g2, 0.0)
                    h, rise = s2 - s1, (s2 * f2 - r2) - (s1 * f1 - r1)
                    slack = g1 + g2 + 1e-14 * (abs(s1 * f1) + abs(s2 * f2) + abs(r1) + abs(r2))
                    assert f1 * h - slack <= rise <= f2 * h + slack
                    pairs += 1
        assert pairs > 1000

    @pytest.mark.parametrize("by_rate", [False, True], ids=["level", "rate"])
    def test_step_is_exact_for_quadratic_distortion(self, by_rate):
        # f(s) = 0.4 + (s + 2) + 0.3 (s + 2)**2 rises on [-3, -1], so G is
        # the cubic its Hermite model reproduces, and the step lands on the
        # slope of its level in one go. A rate goal steps toward the level
        # of the bracket's model of R(f), which lies between the levels where
        # the supporting line at the steeper end and the chord meet the
        # rate; R(f) is convex, so those two bound the root's level
        def point(s):
            x = s + 2.0
            f = 0.4 + x + 0.3 * x * x
            return f, s * f - (0.25 + 0.4 * x + 0.5 * x * x + 0.1 * x ** 3)

        root = -1.7
        f_root, r_root = point(root)
        (f_lo, r_lo), (f_hi, r_hi) = point(-3.0), point(-1.0)
        level = f_root
        if by_rate:
            level = solver._rate_level(-3.0, f_lo, f_hi, r_lo, r_hi, r_root)
            line = f_lo + (r_lo - r_root) / 3.0
            chord = f_lo + (r_lo - r_root) * (f_hi - f_lo) / (r_lo - r_hi)
            assert line < f_root < chord and line < level < chord
        s = solver._step(-3.0, -1.0, f_lo, f_hi, r_lo, r_hi, level, 1e-12)
        on_level = (math.sqrt(1.0 + 1.2 * (level - 0.4)) - 1.0) / 0.6 - 2.0  # f(s) = level
        assert s == pytest.approx(on_level, abs=1e-12)

    def test_rate_level_is_exact_for_quadratic_rate(self):
        # R(f) = 5 - 3 f + f**2 / 2 on f = s + 3, whose slope R'(f) = f - 3
        # is s: the model of R(f) through the supporting line at s = -3 and
        # the point at s = -1 is R itself, and meets rate 2 at 3 - sqrt(3)
        def rate(f):
            return 5.0 - 3.0 * f + 0.5 * f * f

        level = solver._rate_level(-3.0, 0.0, 2.0, rate(0.0), rate(2.0), 2.0)
        assert level == pytest.approx(3.0 - math.sqrt(3.0), abs=1e-15)

    def test_uncertified_warm_start_is_solved_again_cold(self, monkeypatch):
        # next to a kink of the curve a warm start can stall uncertified where
        # the uniform start certifies; here every warm start is cut at one
        # iteration
        src, d, f, _, _ = _criterion_05_draw(97)
        starts = []
        real = kernels.ba_fixed_slope_loop

        def stalled_when_warm(expected_f, pz, s, max_iters, gap_tol, q0=None):
            starts.extend([q0 is not None] * len(s))
            if q0 is not None:
                max_iters = 1
            return real(expected_f, pz, s, max_iters, gap_tol, q0)

        monkeypatch.setattr(kernels, "ba_fixed_slope_loop", stalled_when_warm)
        curve = sweep_curve(src, d, f, 8)
        assert curve.all_converged
        assert any(a and not b for a, b in zip(starts, starts[1:]))

    def test_memo_point_on_the_level_is_returned_without_a_solve(self, monkeypatch):
        m, src, d = bsc_problem(0.15)
        am = build_amended(src, d, m.f)
        target = float(m.f.apply(0.3))
        problem = solver._Problem(am, src.z_marginal)
        memo = _cold_memo(problem)
        first = solver._points(am, *solver._search(problem, [target], memo))[0]
        slopes = _count_solves(monkeypatch)
        again = solver._points(am, *solver._search(problem, [target], memo))[0]
        assert slopes == []
        for name in ("slope", "rate", "f_distortion", "gap"):
            assert getattr(again, name) == getattr(first, name)
        kept = [solve[0] for solve in memo]  # slopes ascending, ending at the s = 0 solve
        assert kept[-1] == 0.0 and all(a < b < 0.0 for a, b in zip(kept, kept[1:-1]))


@pytest.fixture(scope="module")
def criterion_05_targets():
    """The criterion-05 draws whose transform-domain span exceeds 1e-9 (the
    others end at the analytic zero-rate point)."""
    targets = []
    for src, d, f, am, D in itertools.islice(_criterion_05_draws(), 100):
        lo, hi = f_domain_bounds(am, src.z_marginal)
        if hi - lo > 1e-9:
            targets.append((src, d, f, am, D))
    return targets


class TestLoneLevel:
    """A lone level target: a start climbed to a loose gap, and the
    joint Newton iteration on (q, s) from it, certified where it lands."""

    def test_certified_on_level_and_on_the_curve(self, criterion_05_targets):
        for src, d, f, am, D in criterion_05_targets:
            pt = solve_at_distortion(src, d, f, D)
            assert pt.converged and pt.gap <= GAP_TOL
            assert abs(pt.f_distortion - f.apply(D)) <= solver._Problem(am, src.z_marginal).tol_f
            e, pz = _reduced(am, src.z_marginal)
            lower = _blahut_lower_bound(e, pz, pt.slope, pt.q_out, pt.f_distortion)
            assert pt.rate - lower <= pt.gap + 1e-12

    def test_rate_matches_the_search(self, monkeypatch, criterion_05_targets):
        # at the default level tolerance the search's point may sit |s| *
        # tol_f off in rate (4e-7 nats on one draw, where s = -930), while
        # the joint point is on the level to roundoff; at a level tolerance
        # of 1e-12 the two agree
        monkeypatch.setattr(solver, "_BISECTION_TOL", 1e-12)
        for src, d, f, am, D in criterion_05_targets:
            pt = solve_at_distortion(src, d, f, D)
            problem = solver._Problem(am, src.z_marginal)
            found = solver._search(problem, [float(f.apply(D))], _cold_memo(problem))
            alone = solver._points(am, *found)[0]
            assert alone.converged and abs(pt.rate - alone.rate) <= 1e-9

    def test_work_budget(self, criterion_05_targets):
        # start iterations plus joint points, summed over the targets: a
        # cheaper step must not be bought with more steps (357 when the
        # budget was set)
        work = sum(solve_at_distortion(src, d, f, D).iterations
                   for src, d, f, _, D in criterion_05_targets)
        assert work <= 357

    def test_kernel_calls_per_solve(self, monkeypatch, criterion_05_targets):
        # the slope search alone took 7.0 one-lane calls per solve, and a
        # second call that certified the joint point 2; the start climbs
        # outside the fixed-point kernel, whose one call per solve certifies
        # the joint point
        slopes = _count_solves(monkeypatch)
        calls = []
        for src, d, f, _, D in criterion_05_targets:
            before = len(slopes)
            solve_at_distortion(src, d, f, D)
            calls.append(len(slopes) - before)  # the certifying call's one lane
        assert calls == [1] * len(criterion_05_targets)

    @pytest.mark.parametrize(
        "f", [FTransform.identity(), FTransform.sqrt(), FTransform.exponential(9.2)],
        ids=["identity", "sqrt", "exponential"])
    @pytest.mark.parametrize("beta", [0.05, 0.15, 0.3])
    def test_sweep_with_one_unsolved_level(self, monkeypatch, beta, f):
        # a 2-point sweep's second level is the zero-rate end, so its first
        # is a lone level: one kernel call and no search (a cold lane at
        # -1/span and doubling took 6 to 8 calls)
        def no_search(*args, **kwargs):
            raise AssertionError("the slope search ran")

        monkeypatch.setattr(solver, "_search", no_search)
        slopes = _count_solves(monkeypatch)
        m, src, d = bsc_problem(beta, f)
        curve = sweep_curve(src, d, f, 2)
        assert len(slopes) == 1 and curve.all_converged
        tol_f = solver._Problem(build_amended(src, d, f), src.z_marginal).tol_f
        level = f.apply(0.5 * (curve.d_min + curve.d_max))
        assert abs(curve.points[0].f_distortion - level) <= tol_f
        for pt in curve.points:
            assert abs(pt.rate - bsc_irdf(m, pt.distortion)) <= 1e-12

    def test_certified_point_is_returned_without_a_search(self, monkeypatch,
                                                          criterion_05_targets):
        # a certified joint point on its level goes straight to its
        # SlopePoint: no memo, no zero-rate solve, no search round
        def no_search(*args, **kwargs):
            raise AssertionError("the slope search ran")

        monkeypatch.setattr(solver, "_search", no_search)
        for src, d, f, _, D in criterion_05_targets:
            assert solve_at_distortion(src, d, f, D).converged

    def test_joint_iteration_starts_at_the_secant_slope(self, monkeypatch,
                                                        criterion_05_targets):
        # s0 (hi - level) / (hi - f0), the slope where the level meets the
        # secant through the start's point (s0, f0) and the zero-rate
        # end (0, hi), clamped to [0.5, 1.2] s0
        starts, joint = [], []
        real_start, real_newton = kernels.level_start, kernels.level_newton

        def start(e, pz, s, *args):
            out = real_start(e, pz, s, *args)
            starts.append((s, out[1]))
            return out

        def newton(e, pz, s, *args):
            joint.append(s)
            return real_newton(e, pz, s, *args)

        monkeypatch.setattr(kernels, "level_start", start)
        monkeypatch.setattr(kernels, "level_newton", newton)
        ratios = []
        for src, d, f, am, D in criterion_05_targets:
            lo, hi = f_domain_bounds(am, src.z_marginal)
            # the drawn level, and one near the left end, past the secant's upper clamp
            for raw in (D, float(f.invert(lo + 0.01 * (hi - lo)))):
                starts.clear()
                joint.clear()
                pt = solve_at_distortion(src, d, f, raw)
                assert pt.converged and len(starts) == len(joint) == 1
                (s0, f0), s1 = starts[0], joint[0]
                assert s0 == -1.0 / (hi - lo)
                ratio = (hi - f.apply(raw)) / (hi - f0)
                assert s1 == s0 * min(max(ratio, 0.5), 1.2)
                ratios.append(ratio)
        # the drawn levels meet the lower clamp and the open range, and the
        # levels near the left end the upper clamp
        assert min(ratios) < 0.5 < max(r for r in ratios if r < 1.2) and max(ratios) > 1.2

    @pytest.mark.parametrize("frac", [1e-4, 0.1, 0.5])
    def test_large_transform_values_do_not_overflow(self, frac):
        # f reaches e**520 ~ 2e225 with a span of ~1e221: the slope's
        # variance term squared the raw deviations, ~1e442, and overflowed
        m, src, _ = bsc_problem(0.1)
        d = DistortionMatrix(250.0 + 10.0 * DistortionMatrix.hamming(2).values)
        f = FTransform.exponential(2.0)
        am = build_amended(src, d, f)
        lo, hi = f_domain_bounds(am, src.z_marginal)
        D = float(f.invert(lo + frac * (hi - lo)))
        with np.errstate(over="raise"):
            pt = solve_at_distortion(src, d, f, D)
        assert pt.converged
        assert abs(pt.f_distortion - f.apply(D)) <= solver._Problem(am, src.z_marginal).tol_f

    def test_kernel_certifies_the_point_at_its_start(self, criterion_05_targets):
        # the joint point's certificate is the kernel's own: solved again at
        # its slope from its pmf, it is certified before any ascent step, at
        # the same rate and distortion
        for src, d, f, am, D in criterion_05_targets:
            pt = solve_at_distortion(src, d, f, D)
            e, pz = _reduced(am, src.z_marginal)
            _, _, f_dist, rate, iters, gap = _one_lane(e, pz, pt.slope, MAX_ITERS, GAP_TOL,
                                                       pt.q_out)
            assert iters == 1 and gap <= GAP_TOL
            assert abs(rate - pt.rate) <= 1e-12
            assert abs(f_dist - pt.f_distortion) <= 1e-12

    def test_joint_iteration_is_row_shift_invariant(self, criterion_05_targets):
        # a constant c(z) added to row z adds p(z) c(z) to every distortion
        # and leaves the tilt, and so the slope and the fixed point, alone:
        # the iteration works on each row less its minimum over the support
        rng = np.random.default_rng(5)
        for src, d, f, am, D in criterion_05_targets:
            e, pz = _reduced(am, src.z_marginal)
            lo, hi = f_domain_bounds(am, src.z_marginal)
            tol_f = BISECTION_TOL * max(1.0, hi - lo)
            level, s0 = float(f.apply(D)), -1.0 / (hi - lo)
            c = rng.uniform(-10.0, 10.0, len(e)) * max(1.0, hi - lo)
            start = kernels.level_start(e, pz, s0, MAX_ITERS)[3]
            start_c = kernels.level_start(e + c[:, None], pz, s0, MAX_ITERS)[3]
            s, q_out, _ = kernels.level_newton(e, pz, s0, start, level, tol_f, MAX_ITERS, GAP_TOL)
            s_c, q_c, _ = kernels.level_newton(e + c[:, None], pz, s0, start_c, level + pz @ c,
                                               tol_f, MAX_ITERS, GAP_TOL)
            assert s_c == pytest.approx(s, rel=1e-9, abs=0.0)
            np.testing.assert_allclose(q_c, q_out, rtol=1e-9, atol=0.0)
            # the distortions of the two points, as the lone level certifies them
            f_dist = _one_lane(e, pz, s, 1, GAP_TOL, q_out)[2]
            f_c = _one_lane(e + c[:, None], pz, s_c, 1, GAP_TOL, q_c)[2]
            assert f_c == pytest.approx(f_dist + pz @ c, rel=1e-12, abs=1e-12)

    def test_zero_rate_point_is_built_only_when_a_level_needs_it(self, monkeypatch,
                                                                 criterion_05_targets):
        # the zero-rate SlopePoint costs an f.invert; an interior level
        # inverts once, for its own point's raw distortion
        src, d, f, am, D = criterion_05_targets[0]
        pz = src.z_marginal
        lo, hi = f_domain_bounds(am, pz)
        inverted = []
        invert = FTransform.invert

        def counting(self, y):
            inverted.append(y)
            return invert(self, y)

        monkeypatch.setattr(FTransform, "invert", counting)
        pt = solver._solve_levels(solver._Problem(am, pz), [float(f.apply(D))])[0]
        assert pt.converged and not pt.clamped and len(inverted) == 1
        above = solver._solve_levels(solver._Problem(am, pz), [hi + 1e-3 * (hi - lo)])[0]
        assert above.clamped and above.converged
        assert (above.slope, above.rate, above.f_distortion, above.gap) == (0.0, 0.0, hi, 0.0)
        assert above.distortion == invert(f, hi)
        at_hi = solver._solve_levels(solver._Problem(am, pz), [hi])[0]
        assert not at_hi.clamped and at_hi.rate == 0.0 and at_hi.f_distortion == hi


def _stress_targets():
    """The lone-level stress recipe: 400 draws of the criterion-05
    generator without its level draw, and levels at 0.01, 0.3, 0.7 and 0.99
    of the span of each draw whose span exceeds 1e-9 (692 targets)."""
    rng = np.random.default_rng(20240817)
    for _ in range(400):
        nx, nz, nh = rng.integers(2, 5, size=3)
        joint = rng.random((nx, nz)) ** 2
        src = JointSource.from_joint(joint / joint.sum())
        d = DistortionMatrix(rng.random((nx, nh)))
        f = _random_transform(rng)
        am = build_amended(src, d, f)
        lo, hi = f_domain_bounds(am, src.z_marginal)
        if hi - lo > 1e-9:
            for frac in (0.01, 0.3, 0.7, 0.99):
                yield src, d, f, am, lo, hi, lo + frac * (hi - lo)


def test_lone_levels_under_stress(monkeypatch):
    # every lone level of the stress recipe is certified and on its level in
    # one kernel call: the joint point, never the search's fallback; its
    # start iterations and joint points stay within the budget (7,878 when
    # it was set)
    slopes = _count_solves(monkeypatch)
    n = work = 0
    for src, d, f, am, lo, hi, level in _stress_targets():
        before = len(slopes)
        D = float(f.invert(level))
        pt = solve_at_distortion(src, d, f, D)
        assert pt.converged and pt.gap <= GAP_TOL
        assert abs(pt.f_distortion - f.apply(D)) <= solver._Problem(am, src.z_marginal).tol_f
        assert len(slopes) - before == 1
        n += 1
        work += pt.iterations
    assert n == 692 and work <= 7878


def _awgn_source(k):
    """A discretized Gaussian seen through an AWGN channel at SNR 4: x on k
    points of [-2.5, 2.5] with weights exp(-x**2 / 2), z on k points of
    [-3, 3] with p(z | x) proportional to exp(-(z - x)**2 / 0.5), and
    squared error to the x grid."""
    x, z = np.linspace(-2.5, 2.5, k), np.linspace(-3.0, 3.0, k)
    channel = np.exp(-(z[None, :] - x[:, None]) ** 2 / 0.5)
    joint = np.exp(-x**2 / 2.0)[:, None] * channel / channel.sum(axis=1, keepdims=True)
    return (JointSource.from_joint(joint / joint.sum()),
            DistortionMatrix((x[:, None] - x[None, :]) ** 2))


@pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("f", [FTransform.identity(), FTransform.exponential(1.0)],
                         ids=["identity", "exponential"])
def test_mid_size_lone_levels(f, frac):
    # 16 letters each for x, z and xhat, where every tier-1 source above has
    # at most 5: the point is certified, on its level and on the remote
    # Blahut-Arimoto reference
    src, d = _awgn_source(16)
    am = build_amended(src, d, f)
    problem = solver._Problem(am, src.z_marginal)
    level = problem.lo + frac * (problem.hi - problem.lo)
    D = float(f.invert(level))
    pt = solve_at_distortion(src, d, f, D)
    assert pt.converged and abs(pt.f_distortion - f.apply(D)) <= problem.tol_f
    lower, _ = _remote_ba_lower_bound(src.joint, d, f, pt.slope, pt.f_distortion)
    assert abs(pt.rate - lower) <= 1e-8


class TestTransformScale:
    @pytest.mark.parametrize("scale", [1.0, 1e12, 1e16])
    def test_scaled_loss_gives_unscaled_answers(self, scale):
        # target slopes are ~1 / span, so a bracket stop that does not scale
        # with s ends the search before it reaches the level
        m, src, _ = bsc_problem(0.15)
        d = DistortionMatrix(DistortionMatrix.hamming(2).values * scale)
        f = FTransform.identity()
        pt = solve_at_distortion(src, d, f, 0.3 * scale)
        tol_f = solver._Problem(build_amended(src, d, f), src.z_marginal).tol_f
        assert abs(pt.f_distortion - 0.3 * scale) <= tol_f
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
    def test_distortion_at_rate(self, monkeypatch):
        # every kernel lane reports a gap above the gap tolerance
        real = kernels.ba_fixed_slope_loop

        def uncertified(*args):
            *out, gap = real(*args)
            return (*out, gap + 1e-6)

        monkeypatch.setattr(kernels, "ba_fixed_slope_loop", uncertified)
        src, d, f, _, _ = _criterion_05_draw(97)
        with pytest.raises(NotConverged):
            distortion_at_rate(src, d, f, 0.1)


class TestSweepDeterminism:
    def test_identical_sweeps_are_array_equal(self):
        m, src, d = bsc_problem(0.15, FTransform.exponential(9.2))
        first = sweep_curve(src, d, m.f, 12)
        second = sweep_curve(src, d, m.f, 12)
        np.testing.assert_array_equal(first.distortions, second.distortions)
        np.testing.assert_array_equal(first.rates, second.rates)


def _criterion_05_draw(index):
    """Draw ``index`` (0-based) of the criterion-05 generator."""
    return next(itertools.islice(_criterion_05_draws(), index, None))


def _segment_draw(index, seed=20240817, sizes=5):
    """Draw ``index`` (0-based) of the criterion-05 generator without its
    level draw: source, distortion, transform and amended matrices. Another
    seed, and alphabet sizes below another bound, give a variant."""
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        nx, nz, nh = rng.integers(2, sizes, size=3)
        joint = rng.random((nx, nz)) ** 2
        src = JointSource.from_joint(joint / joint.sum())
        d = DistortionMatrix(rng.random((nx, nh)))
        f = _random_transform(rng)
    return src, d, f, build_amended(src, d, f)


def _check_segment_level(draw, frac):
    """solve_at_distortion at ``frac`` of the span of segment draw ``draw``
    is on its level, flagged as its gap says and within its gap of Blahut's
    bound."""
    src, d, f, am = _segment_draw(draw)
    lo, hi = f_domain_bounds(am, src.z_marginal)
    level = lo + frac * (hi - lo)
    pt = solve_at_distortion(src, d, f, float(f.invert(level)))
    assert abs(pt.f_distortion - level) <= BISECTION_TOL * max(1.0, hi - lo)
    assert pt.converged == (pt.gap <= GAP_TOL)
    e, pz = _reduced(am, src.z_marginal)
    lower = _blahut_lower_bound(e, pz, pt.slope, pt.q_out, pt.f_distortion)
    assert pt.rate - lower <= pt.gap + 1e-12


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


def _one_lane(e, pz, s, max_iters, gap_tol, q0=None):
    """The kernel's results for a one-lane call at slope s, read at lane 0."""
    out = kernels.ba_fixed_slope_loop(
        e, pz, np.array([s]), max_iters, gap_tol, None if q0 is None else np.asarray(q0)[None]
    )
    return tuple(v[0] for v in out)


class TestKernel:
    def test_matches_bsc_closed_form(self):
        m, src, d = bsc_problem(0.15)
        e, pz = _reduced(build_amended(src, d, m.f), src.z_marginal)
        for s in (-0.5, -3.0, -20.0):
            _, q_out, f_dist, rate, iters, gap = _one_lane(
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
            q_cond, q_out, f_dist, rate, iters, gap = _one_lane(
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
        _, q_out, f_dist, rate, iters, gap = _one_lane(e, pz, s, 20000, 1e-12)
        assert gap <= 1e-12 and iters <= 100
        assert rate - _blahut_lower_bound(e, pz, s, q_out, f_dist) <= gap + 1e-12

    @pytest.mark.parametrize("s", [-3.0, -(2.0**40)])
    def test_dropped_letters_return(self, s):
        # boundary steps drop letters that the optimum needs back; at the
        # steep slope a step that empties a row's only letter is refused
        e, pz = _dropping_problem()
        with np.errstate(all="raise"):
            _, q_out, f_dist, rate, iters, gap = _one_lane(
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
        _, q_cold, _, rate_cold, _, _ = _one_lane(e, pz, -3.0, 20000, 1e-12)
        x = int(np.argmax(q_cold))
        q0 = np.full(q_cold.size, 1.0)
        q0[x] = 0.0
        with np.errstate(all="raise"):
            _, q_out, f_dist, rate, iters, gap = _one_lane(
                e, pz, -3.0, 20000, 1e-12, q0
            )
        assert q_out[x] > 0.0
        assert gap <= 1e-12 and iters <= 100
        assert abs(rate - rate_cold) <= 1e-10
        assert rate - _blahut_lower_bound(e, pz, -3.0, q_out, f_dist) <= gap + 1e-12

    @pytest.mark.parametrize("q0", [[0.0, 0.0, 0.0, 0.0], [0.5, -0.1, 0.3, 0.3], [0.5, 0.5],
                                    [0.5, math.inf, 0.3, 0.3], [0.5, math.nan, 0.3, 0.3]],
                             ids=["no_mass", "negative", "wrong_size", "infinite", "nan"])
    def test_invalid_start_rejected(self, q0):
        e, pz = _dropping_problem()
        with pytest.raises(ValueError, match="q0"):
            _one_lane(e, pz, -3.0, 20000, 1e-12, np.array(q0))

    def test_starved_letter_returns_with_useful_mass(self):
        # a letter that alone serves a light row comes back with mass near
        # its best share; grown by Newton steps alone it needed 142 iterations
        e, pz = _starving_problem()
        *_, iters, gap = _one_lane(e, pz, -300.0, 20000, 1e-12)
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
            _, q_out, _, _, iters, gap = _one_lane(e, pz, s, cap, 1e-12)
            c = (pz / (tilt @ q_out)) @ tilt
            assert gap == pytest.approx(np.log(c.max()), abs=1e-12)
            dropped += bool(np.any(q_out == 0.0))
            if gap <= 1e-12:
                break
        assert gap <= 1e-12 and dropped > 0

    @pytest.mark.parametrize("draw, r", [(49, 0.25), (49, 1.0)])
    def test_row_minimum_letter_drops(self, draw, r):
        # a sweep's ladder lane at -r/span on a stress-recipe draw: an
        # accepted step drops the letter that holds a row's minimum, which
        # moves that row's m, so Phi is compared across the drop as
        # sum_z p(z) (log den(z) + s m(z)); the lane still certifies
        src, _, _, am = _segment_draw(draw)
        lo, hi = f_domain_bounds(am, src.z_marginal)
        e, pz = _reduced(am, src.z_marginal)
        moved, before = 0, None
        for cap in range(1, 11):
            _, q_out, _, _, iters, gap = _one_lane(e, pz, -r / (hi - lo), cap, 1e-12)
            m = np.where(q_out > 0.0, e, np.inf).min(axis=1)
            moved += before is not None and bool(np.any(m > before))
            before = m
            if gap <= 1e-12:
                break
        assert moved > 0 and gap <= 1e-12 and iters <= 10

    def test_damping_keeps_newton_system_regular(self):
        # tied distortions make H singular on a support of 12 letters over 7
        # rows; the smallest damping, _LAM_MIN max c on the diagonal, keeps
        # each Newton system regular (a damping below roundoff of H once
        # left them exactly singular, and the ascent took 148 iterations)
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
        *_, iters, gap = _one_lane(e, pz, -30.0, 20000, 1e-12)
        assert gap <= 1e-12 and iters <= 100

    def test_gap_tol_below_roundoff_ends_uncertified(self):
        # the gap cannot fall below roundoff; once no halved step raises Phi
        # or, with Phi flat to roundoff, lowers max c, the kernel stops
        # uncertified rather than halving on or stepping to max_iters
        rng = np.random.default_rng(22)
        e = rng.random((3, 3))
        pz = rng.random(3) + 0.1
        pz /= pz.sum()
        with np.errstate(all="raise"):
            _, q_out, _, _, iters, gap = _one_lane(e, pz, -1.0, 20000, 1e-20)
        assert iters < 20
        assert 1e-20 < gap <= 1e-15
        assert q_out.sum() == pytest.approx(1.0, abs=1e-14)

    def test_flat_trials_end_the_ascent(self, monkeypatch):
        # draw 46 of the seed-99 variant (2x2 joint, 2x5 loss, identity):
        # next to a kink of the curve, warm lanes start with a letter at a
        # tiny mass, where Phi is flat to roundoff and max c does not fall.
        # A halved trial that leaves both unchanged to the last bit ends the
        # ascent, as a trial Phi ranks below the start does; halving on to
        # the 1e-15 floor took the worst lane to 68 iterations (41 now)
        iters = []
        real = kernels.ba_fixed_slope_loop

        def recorded(*args):
            out = real(*args)
            iters.extend(out[4].tolist())
            return out

        monkeypatch.setattr(kernels, "ba_fixed_slope_loop", recorded)
        src, d, f, _ = _segment_draw(46, seed=99, sizes=6)
        assert sweep_curve(src, d, f, 10).all_converged
        assert max(iters) <= 50

    @pytest.mark.parametrize("draw", [0, 19, 49, 72, 97])
    def test_lanes_match_one_lane_calls(self, draw):
        # lanes are independent: a call with several slopes gives each lane
        # what a call with that slope alone gives
        src, _, _, am, _ = _criterion_05_draw(draw)
        e, pz = _reduced(am, src.z_marginal)
        slopes = np.array([-0.5, -4.0, -32.0])
        _, _, _, rates, iters, gaps = kernels.ba_fixed_slope_loop(e, pz, slopes, 20000, 1e-12)
        for b, s in enumerate(slopes):
            *_, rate, it, gap = _one_lane(e, pz, s, 20000, 1e-12)
            assert iters[b] == it
            assert gaps[b] <= 1e-12 and gap <= 1e-12
            assert abs(rates[b] - rate) <= gaps[b] + gap + 1e-15

    def test_lanes_retire_on_their_own_certificates(self):
        # one lane certified at its start, one that needs Newton steps, and
        # one whose start has a zero-mass letter that the optimum uses
        e, pz = _dropping_problem()
        _, q_opt, *_ = _one_lane(e, pz, -3.0, 20000, 1e-12)
        starved = np.ones(q_opt.size)
        starved[np.argmax(q_opt)] = 0.0
        uniform = np.full(q_opt.size, 1.0 / q_opt.size)
        slopes = np.array([-3.0, -1.0, -3.0])
        starts = np.array([q_opt, uniform, starved])
        with np.errstate(all="raise"):
            _, q_out, _, rates, iters, gaps = kernels.ba_fixed_slope_loop(
                e, pz, slopes, 20000, 1e-12, starts
            )
        assert iters[0] == 1 and iters[1] > 1 and iters[2] > 1
        assert np.all(gaps <= 1e-12)
        assert q_out[2, np.argmax(q_opt)] > 0.0
        for b in range(3):
            *_, rate, it, _ = _one_lane(e, pz, slopes[b], 20000, 1e-12, starts[b])
            assert iters[b] == it and abs(rates[b] - rate) <= 1e-15

    @pytest.mark.parametrize("problem", [_dropping_problem, _starving_problem],
                             ids=["dropping", "starving"])
    def test_lanes_are_certified_from_their_pmfs(self, problem):
        # lanes that climb, drop letters and take them back: each result is
        # the end assembly at the lane's slope and returned pmf, bit for bit
        e, pz = problem()
        slopes = -np.geomspace(0.5, 80.0, 9)
        q_cond, q_out, f_dist, rate, iters, gap = kernels.ba_fixed_slope_loop(
            e, pz, slopes, 20000, 1e-12
        )
        assert np.all(iters > 1) and np.any(q_out == 0.0)
        again = kernels._assemble(e, pz, slopes, q_out, *kernels._tilted(e, pz, slopes, q_out))
        for got, want in zip((q_cond, f_dist, rate, gap), again):
            np.testing.assert_array_equal(got, want)

    def test_joint_points_are_certified_from_their_pmfs(self, monkeypatch,
                                                        criterion_05_targets):
        # a lone level's point is the fixed-point kernel's one-iteration
        # result at level_newton's last slope and pmf, bit for bit, from the
        # one kernel call the level makes
        real_newton, real_lane = kernels.level_newton, kernels.ba_fixed_slope_loop
        ends, lanes = [], []

        def newton(e, pz, *args):
            out = real_newton(e, pz, *args)
            ends.append(out)
            return out

        def lane(e, pz, s, max_iters, *args):
            lanes.append((s.tolist(), max_iters))
            return real_lane(e, pz, s, max_iters, *args)

        monkeypatch.setattr(kernels, "level_newton", newton)
        monkeypatch.setattr(kernels, "ba_fixed_slope_loop", lane)
        for src, d, f, am, D in criterion_05_targets:
            ends.clear()
            lanes.clear()
            pt = solve_at_distortion(src, d, f, D)
            (s, q, _), = ends
            assert lanes == [([s], 1)]
            e, pz = _reduced(am, src.z_marginal)
            q_cond, q_out, f_dist, rate, iters, gap = _one_lane(e, pz, s, 1, GAP_TOL, q)
            assert iters == 1 and pt.slope == s and pt.rate == max(rate, 0.0)
            for got, want in ((pt.q_cond[am.used_z], q_cond), (pt.q_out, q_out),
                              (pt.f_distortion, f_dist), (pt.gap, gap)):
                np.testing.assert_array_equal(got, want)

    def test_start_climb_is_the_lane_kernels_climb(self, criterion_05_targets):
        # a lone level's start is the ascent of a fixed-point lane at s0 =
        # -1/span from the uniform pmf to the start gap, with no end assembly
        climbed = 0
        for src, d, f, am, D in criterion_05_targets:
            e, pz = _reduced(am, src.z_marginal)
            lo, hi = f_domain_bounds(am, src.z_marginal)
            s0 = -1.0 / (hi - lo)
            q, f0, iters, _ = kernels.level_start(e, pz, s0, MAX_ITERS)
            _, q_lane, f_lane, _, it_lane, _ = _one_lane(e, pz, s0, MAX_ITERS,
                                                         kernels._START_GAP)
            assert iters == it_lane
            assert np.abs(q - q_lane).max() <= 1e-12
            assert abs(f0 - f_lane) <= 1e-12 * max(1.0, abs(f_lane))
            climbed += iters > 1
        assert climbed > len(criterion_05_targets) // 2

    def test_overflowing_gradient_off_the_support(self):
        # the row minimum's letter has mass 1e-300, so t = p / den ~ 5e299 and
        # c of the dropped letter (tilt e**23) overflows; its gap comes by
        # log-sum-exp and the results stay finite at every cap
        e = np.array([[0.023, 1.0, 0.0], [1.0, 0.0, 1.0]])
        pz = np.array([0.5, 0.5])
        q0 = [1e-300, 1.0, 0.0]
        with np.errstate(all="raise"):
            first = _one_lane(e, pz, -1000.0, 1, 1e-12, q0)
            final = _one_lane(e, pz, -1000.0, 20000, 1e-12, q0)
        for q_cond, q_out, f_dist, rate, _, gap in (first, final):
            assert all(np.all(np.isfinite(v)) for v in (q_cond, q_out, f_dist, rate, gap))
        assert first[5] == pytest.approx(math.log(0.5) + 23.0 + 300.0 * math.log(10.0), rel=1e-12)
        assert final[5] <= 1e-12

    def test_flat_direction_certifies(self):
        # the whole gap lies along a direction of near-zero curvature: the
        # damped Newton step along it is long, stops at the simplex boundary
        # and drops the worse letter; shortened there, it stalled at gap
        # 2.5e-10
        e = np.array([[5.04e-7, 2.80e-10]])
        with np.errstate(all="raise"):
            *_, iters, gap = _one_lane(e, np.array([1.0]), -0.001, 20000, 1e-12)
        assert gap <= 1e-12 and iters <= 5


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
            pt = solve_at_distortion(src, d, f, D)
            assert pt.converged and pt.gap <= GAP_TOL
            e, pz = _reduced(am, src.z_marginal)
            lower = _blahut_lower_bound(e, pz, pt.slope, pt.q_out, pt.f_distortion)
            assert pt.rate - lower <= pt.gap + 1e-12

    def test_zero_rate_point_has_zero_gap(self):
        _, src, d = bsc_problem(0.15)
        pt = ba_fixed_slope(build_amended(src, d, FTransform.identity()), src.z_marginal, 0.0)
        assert pt.gap == 0.0 and pt.converged

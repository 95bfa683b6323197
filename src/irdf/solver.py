"""Curve solver for the reduced direct problem on (z, xhat).

Every point on the curve is the fixed point of the slope-tilted update

    q(xhat|z) ∝ q(xhat) exp(s * expected_f[z, xhat]),   s <= 0,
    q(xhat)   = sum_z p(z) q(xhat|z),

whose output pmf q(xhat) maximizes sum_z p(z) log sum_xhat q(xhat)
exp(s * expected_f[z, xhat]) on the simplex; the kernel finds it by a damped
active-set Newton ascent (see ``kernels``). The slope parameterizes the
curve, and both the achieved transform-domain distortion and the rate are
monotone in s, so one search on s serves a distortion target and a rate
target alike: doubling from s = -1/(hi - lo), the inverse of the
transform-domain span, brackets the target, then Illinois (modified regula
falsi) steps close in on it. The bracket-width stop is relative to the
slopes, so the search behaves alike at every transform-domain scale.
All rates are nats internally; unit conversion happens only at reporting
boundaries.

The rate of a point is the mutual information of its conditional. A point is
converged when Blahut's duality gap at its output pmf is at most ``gap_tol``
nats; the gap is recorded on every point and bounds the rate's distance
from the curve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .distortion import AmendedDistortions, DistortionMatrix, build_amended
from .errors import DomainError, NotConverged
from .ftransform import FTransform
from .source import JointSource

LN2 = float(np.log(2.0))

_BRACKET_EPS = 1e-15  # bracket width, relative to its slopes, at which the search stops
_MAX_SEARCH = 200
_MAX_DOUBLINGS = 60


@dataclass(frozen=True)
class SolverConfig:
    """Iteration and tolerance knobs; defaults suit desk-scale alphabets."""

    max_iters: int = 20000
    gap_tol: float = 1e-12           # Blahut duality gap that certifies a fixed point, nats
    bisection_tol: float = 1e-9      # on achieved distortion; scaled by the transform-domain span

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        for name in ("gap_tol", "bisection_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


@dataclass(frozen=True, eq=False)
class SlopePoint:
    """One solved point: slope, optimal conditional, rate and distortion.

    ``gap`` is Blahut's duality gap at ``q_out`` in nats: the rate exceeds
    the curve's lower bound at ``f_distortion`` by at most this much.
    ``converged`` means ``gap <= gap_tol``.
    """

    slope: float
    q_cond: np.ndarray        # (|Z|, |Xhat|); rows for unused z repeat q_out
    q_out: np.ndarray
    rate: float               # nats, mutual information, clamped at 0
    f_distortion: float       # transform-domain expected distortion
    distortion: float         # raw units
    iterations: int
    gap: float                # nats; 0.0 for the analytic zero-rate point
    converged: bool
    clamped: bool = False     # positive-part clamp applied (rate or level at a boundary)


@dataclass(frozen=True, eq=False)
class RdCurve:
    """Distortion-sorted solved points plus the feasible raw-distortion span."""

    points: tuple[SlopePoint, ...]
    d_min: float
    d_max: float

    @property
    def distortions(self) -> np.ndarray:
        return np.array([p.distortion for p in self.points])

    @property
    def rates(self) -> np.ndarray:
        return np.array([p.rate for p in self.points])

    @property
    def all_converged(self) -> bool:
        return all(p.converged for p in self.points)


def _reduced(amended: AmendedDistortions, pz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expected-f rows of the used z and their renormalized weights."""
    used = amended.used_z
    w = np.asarray(pz, dtype=float)[used]
    return amended.expected_f[used], w / w.sum()


def f_domain_bounds(amended: AmendedDistortions, pz: np.ndarray) -> tuple[float, float]:
    """Transform-domain distortion endpoints of the reduced problem.

    Lower endpoint: expected row minimum (rate saturates there). Upper
    endpoint: best single reconstruction letter (rate hits zero there).
    """
    e, w = _reduced(amended, pz)
    return float(w @ e.min(axis=1)), float((w @ e).min())


def _zero_rate_point(amended: AmendedDistortions, pz: np.ndarray, clamped=False) -> SlopePoint:
    """Analytic s=0 end of the curve: mass split over the best columns."""
    e, w = _reduced(amended, pz)
    col = w @ e
    mask = col == col.min()
    q_out = mask / mask.sum()
    q_cond = np.tile(q_out, (amended.used_z.shape[0], 1))
    f_dist = float(col[mask].mean())
    return SlopePoint(
        slope=0.0,
        q_cond=q_cond,
        q_out=q_out,
        rate=0.0,
        f_distortion=f_dist,
        distortion=float(amended.f.invert(f_dist)),
        iterations=0,
        gap=0.0,
        converged=True,
        clamped=clamped,
    )


def ba_fixed_slope(
    amended: AmendedDistortions,
    pz: np.ndarray,
    s: float,
    cfg: SolverConfig | None = None,
) -> SlopePoint:
    """Solve the fixed point at one slope s <= 0."""
    cfg = cfg or SolverConfig()
    if s > 0:
        raise ValueError(f"slope must be <= 0, got {s}")
    if s == 0.0:
        return _zero_rate_point(amended, pz)
    used = amended.used_z
    e, w = _reduced(amended, pz)
    q_cond_u, q_out, f_dist, rate, iters, gap = kernels.ba_fixed_slope_loop(
        e, w, float(s), cfg.max_iters, cfg.gap_tol
    )
    q_cond = np.tile(q_out, (used.shape[0], 1))
    q_cond[used] = q_cond_u
    return SlopePoint(
        slope=float(s),
        q_cond=q_cond,
        q_out=q_out,
        rate=max(0.0, float(rate)),
        f_distortion=float(f_dist),
        distortion=float(amended.f.invert(f_dist)),
        iterations=int(iters),
        gap=float(gap),
        converged=bool(gap <= cfg.gap_tol),
        clamped=bool(rate < 0.0),
    )


def _slope_search(
    amended: AmendedDistortions,
    pz: np.ndarray,
    span: float,
    residual,
    done,
    cfg: SolverConfig,
) -> SlopePoint:
    """Search the slope for a point that ``done(pt, residual(pt))`` accepts.

    ``residual`` must be positive at s = 0 and fall monotonically as s
    decreases, as the distortion above a target level and the rate short of
    a target rate do. Doubling the slope magnitude from 1/span, span = hi -
    lo > 0, brackets its root; Illinois steps, or the midpoint when the
    secant leaves the bracket, then close in on it. If the root is never
    bracketed (the target is the left curve endpoint) the steepest point is
    returned. The point may be uncertified; callers that use its rate check.
    """

    def run(s: float) -> tuple[SlopePoint, float]:
        pt = ba_fixed_slope(amended, pz, s, cfg)
        return pt, residual(pt)

    s_lo = -1.0 / span
    pt_lo, g_lo = run(s_lo)
    s_hi, pt_hi = 0.0, None
    for _ in range(_MAX_DOUBLINGS):
        if g_lo <= 0.0 or done(pt_lo, g_lo):
            break
        s_hi, pt_hi, g_hi = s_lo, pt_lo, g_lo
        s_lo *= 2.0
        pt_lo, g_lo = run(s_lo)
    if g_lo >= 0.0:
        # never crossed the root: the target is the left endpoint (or within tol)
        return pt_lo
    if pt_hi is None:
        pt_hi = _zero_rate_point(amended, pz)
        g_hi = residual(pt_hi)

    # Illinois (modified regula falsi) with g_lo < 0 < g_hi: when the same
    # end moves twice in a row, the value kept at the other end is halved
    best, g_best = (pt_lo, g_lo) if abs(g_lo) <= abs(g_hi) else (pt_hi, g_hi)
    kept = 0  # +1 after s_hi moved, -1 after s_lo moved
    for _ in range(_MAX_SEARCH):
        if done(best, g_best):
            return best
        if s_hi - s_lo <= _BRACKET_EPS * abs(s_lo):
            break
        s_new = (s_lo * g_hi - s_hi * g_lo) / (g_hi - g_lo)
        if not s_lo < s_new < s_hi:
            s_new = 0.5 * (s_lo + s_hi)
        pt, g = run(s_new)
        if abs(g) < abs(g_best):
            best, g_best = pt, g
        if g > 0.0:
            s_hi, g_hi = s_new, g
            if kept == 1:
                g_lo *= 0.5
            kept = 1
        else:
            s_lo, g_lo = s_new, g
            if kept == -1:
                g_hi *= 0.5
            kept = -1
    return best


def _solve_reduced_at(
    amended: AmendedDistortions,
    pz: np.ndarray,
    target_f: float,
    cfg: SolverConfig,
) -> SlopePoint:
    """The point whose achieved transform-domain distortion is within the
    level tolerance tol_f of target_f. If the target is the left curve
    endpoint itself the closest achievable point is returned (rates there
    are within slope*tolerance of the limit).
    """
    lo, hi = f_domain_bounds(amended, pz)
    tol_f = cfg.bisection_tol * max(1.0, hi - lo)
    if target_f > hi + tol_f:
        return _zero_rate_point(amended, pz, clamped=True)
    if target_f < lo - tol_f:
        raise DomainError(
            f"requested distortion {amended.f.invert(target_f):g} below the feasible "
            f"minimum {amended.f.invert(lo):g}"
        )
    if target_f >= hi - tol_f:
        return _zero_rate_point(amended, pz)
    return _slope_search(amended, pz, hi - lo, lambda pt: pt.f_distortion - target_f,
                         lambda pt, g: abs(g) <= tol_f, cfg)


def _certified(pt: SlopePoint, cfg: SolverConfig) -> SlopePoint:
    """pt itself; NotConverged if its gap exceeds gap_tol."""
    if not pt.converged:
        raise NotConverged(
            f"slope {pt.slope:g}: duality gap {pt.gap:g} nats after {pt.iterations} "
            f"iterations exceeds gap_tol {cfg.gap_tol:g}"
        )
    return pt


def solve_at_distortion(
    src: JointSource,
    d: DistortionMatrix,
    f: FTransform,
    D: float,
    cfg: SolverConfig | None = None,
    amended: AmendedDistortions | None = None,
) -> SlopePoint:
    """Rate at one raw distortion level D.

    Feasible levels run from the saturation point d_min (approached, slope
    unbounded) to d_max (zero rate). Levels above d_max return the zero-rate
    point flagged ``clamped``; levels below d_min raise DomainError.
    """
    cfg = cfg or SolverConfig()
    amended = amended if amended is not None else build_amended(src, d, f)
    return _solve_reduced_at(amended, src.z_marginal, float(f.apply(D)), cfg)


def sweep_curve(
    src: JointSource,
    d: DistortionMatrix,
    f: FTransform,
    n_points: int,
    cfg: SolverConfig | None = None,
) -> RdCurve:
    """Solve n_points levels evenly spaced in raw units over (d_min, d_max],
    sorted by distortion."""
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    cfg = cfg or SolverConfig()
    amended = build_amended(src, d, f)
    pz = src.z_marginal
    lo, hi = f_domain_bounds(amended, pz)
    d_lo = float(f.invert(lo))
    d_hi = float(f.invert(hi))

    steps = np.arange(1, n_points + 1) / n_points
    d_grid = d_lo + (d_hi - d_lo) * steps  # even in raw units, left-open
    targets = np.asarray(f.apply(d_grid), dtype=float)
    targets[-1] = hi
    pts = [_solve_reduced_at(amended, pz, float(t), cfg) for t in targets]
    pts.sort(key=lambda p: p.distortion)
    return RdCurve(points=tuple(pts), d_min=d_lo, d_max=d_hi)


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    """The three computation routes that must produce one rate."""

    remote_pooled: float          # expected-f reduction of the pooled remote problem
    remote_transformed: float     # same reduction entered via the per-letter f(d) matrix
    direct_equivalent: float      # transform of the certainty-equivalent matrix
    max_spread: float

    def rates(self) -> tuple[float, float, float]:
        return (self.remote_pooled, self.remote_transformed, self.direct_equivalent)


_EQUIV_ATOL = 1e-8


def characterize(
    src: JointSource,
    d: DistortionMatrix,
    f: FTransform,
    D: float,
    cfg: SolverConfig | None = None,
) -> EquivalenceReport:
    """Evaluate the rate at D along three algebraically equal routes.

    The routes differ only in which amended matrix enters the solver, so any
    spread beyond roundoff indicates a defect; a spread above 1e-8 nats
    raises. Uses a tighter level tolerance than the default config so route
    differences are not masked by target slack. Raises NotConverged if any
    route's point is not certified.
    """
    cfg = cfg or SolverConfig(bisection_tol=1e-12)
    amended = build_amended(src, d, f)
    pz = src.z_marginal
    target = float(f.apply(D))

    def rate(am: AmendedDistortions) -> float:
        return _certified(_solve_reduced_at(am, pz, target, cfg), cfg).rate

    r1 = rate(amended)

    expected2 = src.posterior.T @ amended.per_letter_f
    expected2[~src.used_z] = 0.0
    r2 = rate(replace(amended, expected_f=expected2))

    expected3 = f.apply(np.where(amended.used_z[:, None], amended.equivalent, 0.0))
    expected3[~amended.used_z] = 0.0
    r3 = rate(replace(amended, expected_f=expected3))

    rates = (r1, r2, r3)
    spread = max(rates) - min(rates)
    if spread > _EQUIV_ATOL:
        raise AssertionError(f"equivalent routes disagree by {spread:g} nats at D={D:g}")
    return EquivalenceReport(
        remote_pooled=r1,
        remote_transformed=r2,
        direct_equivalent=r3,
        max_spread=spread,
    )


def distortion_at_rate(
    src: JointSource,
    d: DistortionMatrix,
    f: FTransform,
    rate_nats: float,
    cfg: SolverConfig | None = None,
) -> float:
    """Invert the curve: smallest raw distortion whose rate is <= rate_nats.

    The slope search of ``solve_at_distortion`` runs on the rate instead of
    the distortion and stops once the rate is within |s| * tol_f of
    rate_nats: the level tolerance carried to the rate axis by the curve's
    slope s. A rate at or above the curve's maximum gives d_min. Raises
    NotConverged if the point it lands on is not certified.
    """
    cfg = cfg or SolverConfig()
    amended = build_amended(src, d, f)
    pz = src.z_marginal
    lo, hi = f_domain_bounds(amended, pz)
    tol_f = cfg.bisection_tol * max(1.0, hi - lo)
    d_lo, d_hi = float(f.invert(lo)), float(f.invert(hi))
    if rate_nats <= 0.0:
        return d_hi
    if hi - lo <= tol_f:  # the whole curve is within the level tolerance of d_min
        return d_lo

    def saturated(pt: SlopePoint, g: float) -> bool:
        # short of rate_nats within the level tolerance of d_min
        return g > 0.0 and pt.f_distortion <= lo + tol_f

    pt = _certified(_slope_search(
        amended, pz, hi - lo, lambda pt: rate_nats - pt.rate,
        lambda pt, g: abs(g) <= -pt.slope * tol_f or saturated(pt, g), cfg), cfg)
    return d_lo if saturated(pt, rate_nats - pt.rate) else pt.distortion

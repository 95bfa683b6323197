"""Curve solver for the reduced direct problem on (z, xhat).

Every point on the curve is the fixed point of the slope-tilted update

    q(xhat|z) ∝ q(xhat) exp(s * expected_f[z, xhat]),   s <= 0,
    q(xhat)   = sum_z p(z) q(xhat|z),

computed by alternating minimization. The slope parameterizes the curve;
hitting a requested distortion level is a bisection on s, exploiting that
the achieved transform-domain distortion is monotone in s. All rates are
nats internally; unit conversion happens only at reporting boundaries.

At a converged point the mutual-information rate and the slope-form value

    s * f_dist - sum_z p(z) log( sum_xhat exp(s * expected_f[z, xhat]) q(xhat) )

agree; both are recorded so consumers can cross-check. A point is converged
when Blahut's duality gap at its output pmf is at most ``gap_tol`` nats; the
gap is recorded on every point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .distortion import AmendedDistortions, DistortionMatrix, build_amended
from .errors import DomainError
from .ftransform import FTransform
from .source import JointSource

LN2 = float(np.log(2.0))

_BRACKET_EPS = 1e-15
_MAX_BISECT = 200


@dataclass(frozen=True)
class SolverConfig:
    """Iteration and tolerance knobs; defaults suit desk-scale alphabets."""

    max_iters: int = 20000
    gap_tol: float = 1e-12           # Blahut duality gap that certifies a fixed point, nats
    bisection_tol: float = 1e-9      # on achieved distortion; scaled by the transform-domain span
    slope_grid: tuple[float, ...] | None = None
    support_floor: float = 1e-300    # output mass below this is pinned to 0
    max_bracket_doublings: int = 60

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        for name in ("gap_tol", "bisection_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


@dataclass(frozen=True, eq=False)
class SlopePoint:
    """One solved point: slope, optimal conditional, and both rate forms.

    ``gap`` is Blahut's duality gap at ``q_out`` in nats: the rate exceeds
    the curve's lower bound at ``f_distortion`` by at most this much.
    ``converged`` means ``gap <= gap_tol``.
    """

    slope: float
    q_cond: np.ndarray        # (|Z|, |Xhat|); rows for unused z repeat q_out
    q_out: np.ndarray
    rate: float               # nats, mutual information, clamped at 0
    rate_parametric: float    # nats, slope-form value
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
    log_base: str = "nats"

    @property
    def distortions(self) -> np.ndarray:
        return np.array([p.distortion for p in self.points])

    @property
    def rates(self) -> np.ndarray:
        return np.array([p.rate for p in self.points])

    @property
    def all_converged(self) -> bool:
        return all(p.converged for p in self.points)


def f_domain_bounds(amended: AmendedDistortions, pz: np.ndarray) -> tuple[float, float]:
    """Transform-domain distortion endpoints of the reduced problem.

    Lower endpoint: expected row minimum (rate saturates there). Upper
    endpoint: best single reconstruction letter (rate hits zero there).
    """
    used = amended.used_z
    e = amended.expected_f[used]
    w = np.asarray(pz, dtype=float)[used]
    lo = float(w @ e.min(axis=1))
    hi = float((w @ e).min())
    return lo, hi


def _zero_rate_point(e: np.ndarray, w: np.ndarray, used: np.ndarray, f: FTransform,
                     clamped: bool = False) -> SlopePoint:
    """Analytic s=0 end of the curve: mass split over the best columns."""
    col = w @ e
    mask = col == col.min()
    q_out = mask / mask.sum()
    nz = used.shape[0]
    q_cond = np.tile(q_out, (nz, 1))
    f_dist = float(col[mask].mean())
    return SlopePoint(
        slope=0.0,
        q_cond=q_cond,
        q_out=q_out,
        rate=0.0,
        rate_parametric=0.0,
        f_distortion=f_dist,
        distortion=float(f.invert(f_dist)),
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
    pz = np.asarray(pz, dtype=float)
    used = amended.used_z
    e = amended.expected_f[used]
    w = pz[used]
    w = w / w.sum()
    if s == 0.0:
        return _zero_rate_point(e, w, used, amended.f)
    q_cond_u, q_out, f_dist, rate_mi, rate_par, iters, gap = kernels.ba_fixed_slope_loop(
        np.ascontiguousarray(e),
        np.ascontiguousarray(w),
        float(s),
        cfg.max_iters,
        cfg.gap_tol,
        cfg.support_floor,
    )
    q_cond = np.tile(q_out, (used.shape[0], 1))
    q_cond[used] = q_cond_u
    return SlopePoint(
        slope=float(s),
        q_cond=q_cond,
        q_out=q_out,
        rate=max(0.0, float(rate_mi)),
        rate_parametric=float(rate_par),
        f_distortion=float(f_dist),
        distortion=float(amended.f.invert(f_dist)),
        iterations=int(iters),
        gap=float(gap),
        converged=bool(gap <= cfg.gap_tol),
        clamped=bool(rate_mi < 0.0),
    )


def _solve_reduced_at(
    amended: AmendedDistortions,
    pz: np.ndarray,
    target_f: float,
    cfg: SolverConfig,
) -> SlopePoint:
    """Bisect the slope until the achieved transform-domain distortion hits
    target_f. The left curve endpoint is approached by doubling the slope
    magnitude; if the target is the endpoint itself the closest achievable
    point is returned (rates there are within slope*tolerance of the limit).
    """
    pz = np.asarray(pz, dtype=float)
    used = amended.used_z
    e = amended.expected_f[used]
    w = pz[used]
    w = w / w.sum()
    lo, hi = f_domain_bounds(amended, pz)
    tol_f = cfg.bisection_tol * max(1.0, hi - lo)

    if target_f > hi + tol_f:
        return _zero_rate_point(e, w, used, amended.f, clamped=True)
    if target_f < lo - tol_f:
        raise DomainError(
            f"requested distortion {amended.f.invert(target_f):g} below the feasible "
            f"minimum {amended.f.invert(lo):g}"
        )
    if target_f >= hi - tol_f:
        return _zero_rate_point(e, w, used, amended.f)

    def run(s: float) -> SlopePoint:
        return ba_fixed_slope(amended, pz, s, cfg)

    s_lo = -1.0
    pt_lo = run(s_lo)
    s_hi, pt_hi = 0.0, None
    doublings = 0
    while pt_lo.f_distortion > target_f + tol_f:
        if doublings >= cfg.max_bracket_doublings:
            break
        s_hi, pt_hi = s_lo, pt_lo
        s_lo *= 2.0
        pt_lo = run(s_lo)
        doublings += 1
    if pt_lo.f_distortion >= target_f:
        # never crossed the target: it is the left endpoint (or within tol)
        return pt_lo
    if pt_hi is None:
        pt_hi = _zero_rate_point(e, w, used, amended.f)

    best = min((pt_lo, pt_hi), key=lambda p: abs(p.f_distortion - target_f))
    for _ in range(_MAX_BISECT):
        if abs(best.f_distortion - target_f) <= tol_f:
            return best
        if s_hi - s_lo <= _BRACKET_EPS * max(1.0, abs(s_lo)):
            break
        s_mid = 0.5 * (s_lo + s_hi)
        pt = run(s_mid)
        if abs(pt.f_distortion - target_f) < abs(best.f_distortion - target_f):
            best = pt
        if pt.f_distortion > target_f:
            s_hi = s_mid
        else:
            s_lo = s_mid
    return best


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
    """Solve n_points levels spanning (d_min, d_max], sorted by distortion.

    With ``cfg.slope_grid`` set, those slopes are solved directly instead of
    targeting an even distortion grid.
    """
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    cfg = cfg or SolverConfig()
    amended = build_amended(src, d, f)
    pz = src.z_marginal
    lo, hi = f_domain_bounds(amended, pz)
    d_lo = float(f.invert(lo))
    d_hi = float(f.invert(hi))

    if cfg.slope_grid is not None:
        pts = [ba_fixed_slope(amended, pz, s, cfg) for s in cfg.slope_grid]
    else:
        steps = np.arange(1, n_points + 1) / n_points
        d_grid = d_lo + (d_hi - d_lo) * steps  # even in raw units, left-open
        targets = np.asarray(f.apply(d_grid), dtype=float)
        targets[-1] = hi
        pts = [_solve_reduced_at(amended, pz, float(t), cfg) for t in targets]

    pts.sort(key=lambda p: p.distortion)
    return RdCurve(points=tuple(pts), d_min=d_lo, d_max=d_hi)


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    """The four computation routes that must produce one rate."""

    remote_pooled: float          # expected-f reduction of the pooled remote problem
    remote_transformed: float     # same reduction entered via the per-letter f(d) matrix
    direct_equivalent: float      # transform of the certainty-equivalent matrix
    direct_expected: float        # expected-f matrix used as a plain direct problem
    max_spread: float

    def rates(self) -> tuple[float, float, float, float]:
        return (
            self.remote_pooled,
            self.remote_transformed,
            self.direct_equivalent,
            self.direct_expected,
        )


_EQUIV_ATOL = 1e-8


def characterize(
    src: JointSource,
    d: DistortionMatrix,
    f: FTransform,
    D: float,
    cfg: SolverConfig | None = None,
) -> EquivalenceReport:
    """Evaluate the rate at D along four algebraically equal routes.

    The routes differ only in which amended matrix enters the solver, so any
    spread beyond roundoff indicates a defect; a spread above 1e-8 nats
    raises. Uses a tighter bisection than the default config so route
    differences are not masked by target slack.
    """
    cfg = cfg or SolverConfig(bisection_tol=1e-12)
    amended = build_amended(src, d, f)
    pz = src.z_marginal
    target = float(f.apply(D))

    r1 = _solve_reduced_at(amended, pz, target, cfg).rate

    per_letter = f.apply(d.values)
    expected2 = src.posterior.T @ per_letter
    expected2[~src.used_z] = 0.0
    r2 = _solve_reduced_at(replace(amended, expected_f=expected2), pz, target, cfg).rate

    expected3 = f.apply(np.where(amended.used_z[:, None], amended.equivalent, 0.0))
    expected3[~amended.used_z] = 0.0
    r3 = _solve_reduced_at(replace(amended, expected_f=expected3), pz, target, cfg).rate

    r4 = _solve_reduced_at(replace(amended, expected_f=amended.expected_f.copy()), pz, target, cfg).rate

    rates = (r1, r2, r3, r4)
    spread = max(rates) - min(rates)
    if spread > _EQUIV_ATOL:
        raise AssertionError(f"equivalent routes disagree by {spread:g} nats at D={D:g}")
    return EquivalenceReport(
        remote_pooled=r1,
        remote_transformed=r2,
        direct_equivalent=r3,
        direct_expected=r4,
        max_spread=spread,
    )


def distortion_at_rate(
    src: JointSource,
    d: DistortionMatrix,
    f: FTransform,
    rate_nats: float,
    cfg: SolverConfig | None = None,
    tol: float = 1e-10,
) -> float:
    """Invert the curve: smallest raw distortion whose rate is <= rate_nats."""
    cfg = cfg or SolverConfig()
    amended = build_amended(src, d, f)
    pz = src.z_marginal
    lo, hi = f_domain_bounds(amended, pz)
    d_lo, d_hi = float(f.invert(lo)), float(f.invert(hi))
    if rate_nats <= 0.0:
        return d_hi
    top = _solve_reduced_at(amended, pz, lo, cfg).rate
    if rate_nats >= top:
        return d_lo
    a, b = d_lo, d_hi
    for _ in range(200):
        if b - a <= tol * max(1.0, abs(b)):
            break
        mid = 0.5 * (a + b)
        r = _solve_reduced_at(amended, pz, float(f.apply(mid)), cfg).rate
        if r > rate_nats:
            a = mid
        else:
            b = mid
    return b

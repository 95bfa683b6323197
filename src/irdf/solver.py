"""Curve solver for the reduced direct problem on (z, xhat).

Every point on the curve is the fixed point of the slope-tilted update

    q(xhat|z) ∝ q(xhat) exp(s * expected_f[z, xhat]),   s <= 0,
    q(xhat)   = sum_z p(z) q(xhat|z),

whose output pmf q(xhat) maximizes sum_z p(z) log sum_xhat q(xhat)
exp(s * expected_f[z, xhat]) on the simplex; the kernel finds it by a damped
active-set Newton ascent (see ``kernels``). The slope parameterizes the
curve, and both the achieved transform-domain distortion and the rate are
monotone in s, so one search on s serves a distortion target and a rate
target alike.

A search advances all of its targets (the levels of a sweep, or one level)
in lockstep rounds over a shared memo of solved slopes. Each round every
unresolved target proposes one slope: the memo points around the target
bracket it, or else doubling from the steepest of them (or from s = -1/(hi
- lo), the inverse of the transform-domain span) does; inside a bracket,
inverse quadratic interpolation (Brent 1973, "Algorithms for Minimization
without Derivatives"), with Illinois (modified regula falsi) and bisection
steps as fallbacks, closes in. Equal proposals merge, and the round's slopes
go to one kernel call as lanes, each started from the output pmf of the
nearest solved slope. A bracket that collapses onto one slope straddles a
linear segment of the curve, whose level is reached by time-sharing the two
ends. The bracket-width stop is relative to the slopes, so the search
behaves alike at every transform-domain scale. Raw distortions come from
one vectorized f.invert over the points a search returns. All rates are
nats internally; unit conversion happens only at reporting boundaries.

The rate of a point is the mutual information of its conditional. A point is
converged when Blahut's duality gap at its output pmf is at most ``gap_tol``
nats and, for a point a search returns, when it is on its target; the gap is
recorded on every point and bounds the rate's distance from the curve.
"""

from __future__ import annotations

import bisect
import math
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
    ``converged`` means ``gap <= gap_tol`` and, for a point returned by a
    level or rate search, that the point is on its target.
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


class _Problem:
    """One amended problem, reduced to its used z, with its transform-domain
    bounds and its analytic zero-rate point, built once for all the targets
    solved on it."""

    def __init__(self, amended: AmendedDistortions, pz: np.ndarray):
        self.amended = amended
        self.e, self.w = _reduced(amended, pz)
        self.lo, self.hi = f_domain_bounds(amended, pz)
        self.zero = _zero_rate_point(amended, pz)


def _lanes(amended: AmendedDistortions, e: np.ndarray, w: np.ndarray, slopes: list[float], q0,
           cfg: SolverConfig) -> list[SlopePoint]:
    """One kernel call on the reduced rows e, w with a lane per slope, started
    from the rows of q0 (uniform when None). Raw distortions are left NaN;
    ``_with_raw`` fills them for the points a search returns."""
    q_cond_u, q_out, f_dist, rate, iters, gap = kernels.ba_fixed_slope_loop(
        e, w, np.array(slopes, dtype=float), cfg.max_iters, cfg.gap_tol, q0
    )
    used = amended.used_z
    q_cond = q_cond_u
    if not used.all():  # rows for unused z repeat q_out
        q_cond = np.repeat(q_out[:, None, :], used.size, axis=1)
        q_cond[:, used] = q_cond_u
    return [
        SlopePoint(slope=s, q_cond=qc, q_out=qo, rate=max(0.0, r), f_distortion=fd,
                   distortion=math.nan, iterations=it, gap=g, converged=g <= cfg.gap_tol,
                   clamped=r < 0.0)
        for s, qc, qo, r, fd, it, g in zip(slopes, q_cond, q_out, rate.tolist(),
                                           f_dist.tolist(), iters.tolist(), gap.tolist())
    ]


def _with_raw(problem: _Problem, pts: list[SlopePoint], memo: list[SlopePoint]) -> list[SlopePoint]:
    """pts with their raw distortions, from one vectorized f.invert over the
    points that lack one. A memo point among them is replaced in the memo by
    its completed copy, so a later search returns that copy itself."""
    todo = {id(p): p for p in pts if math.isnan(p.distortion)}
    if not todo:
        return pts
    raw = problem.amended.f.invert(np.array([p.f_distortion for p in todo.values()])).tolist()
    done = {k: replace(p, distortion=d) for (k, p), d in zip(todo.items(), raw)}
    for i, p in enumerate(memo):
        if id(p) in done:
            memo[i] = done[id(p)]
    return [done.get(id(p), p) for p in pts]


def ba_fixed_slope(
    amended: AmendedDistortions,
    pz: np.ndarray,
    s: float,
    cfg: SolverConfig | None = None,
    q0: np.ndarray | None = None,
) -> SlopePoint:
    """Solve the fixed point at one slope s <= 0, starting the kernel from
    the output pmf q0 (uniform when None)."""
    cfg = cfg or SolverConfig()
    if s > 0:
        raise ValueError(f"slope must be <= 0, got {s}")
    if s == 0.0:
        return _zero_rate_point(amended, pz)
    if q0 is not None:
        q0 = np.asarray(q0, dtype=float)[None]
    pt = _lanes(amended, *_reduced(amended, pz), [float(s)], q0, cfg)[0]
    return replace(pt, distortion=float(amended.f.invert(pt.f_distortion)))


def _iqi(pairs) -> float:
    """Inverse quadratic interpolation: the root of the quadratic in g that
    passes through the three (s, g) pairs; nan unless the g are distinct."""
    (sa, ga), (sb, gb), (sc, gc) = pairs
    if ga == gb or ga == gc or gb == gc:
        return math.nan
    return (sa * gb * gc / ((ga - gb) * (ga - gc))
            + sb * ga * gc / ((gb - ga) * (gb - gc))
            + sc * ga * gb / ((gc - ga) * (gc - gb)))


class _Target:
    """One target of a slope search: its residual, the test that accepts a
    point, and the bracket state it carries from one round to the next.

    ``residual`` must be positive at s = 0 and fall monotonically as s
    decreases, as the distortion above a target level and the rate short of
    a target rate do.
    """

    def __init__(self, residual, done):
        self.residual, self.done = residual, done
        self.point: SlopePoint | None = None
        self.rungs = 0      # doublings of the steepest slope
        self.steps = 0      # slopes proposed inside the bracket
        self.s_lo = self.s_hi = self.g_lo = self.g_hi = math.nan
        self.kept = 0       # +1 after only s_hi moved, -1 after only s_lo moved
        self.tried: list[tuple[float, float]] | None = None  # (s, g) for interpolation
        self.seen: set[float] = set()  # the slopes in ``tried``

    def record(self, s: float, g: float) -> None:
        """Add a solved slope and its residual to the history, once."""
        if s not in self.seen:
            self.seen.add(s)
            self.tried.append((s, g))

    def propose(self, memo: list[SlopePoint], zero: SlopePoint, span: float):
        """The next lane as (slope, start pmf), the start None for a warm start
        from the memo; or None once ``point`` is set.

        memo[:i] lie at or below the root and memo[i:] above it; with none
        above, the s = 0 point closes the bracket. A memo point that ``done``
        accepts is the result. With no memo point below the root the lane is
        the next doubling of the steepest slope, or -1/span. Inside the
        bracket it is the inverse quadratic interpolation through the last
        three points of the target's history, if that falls strictly inside;
        else the Illinois secant, if that does; else the midpoint. The
        history holds the target's own lanes, seeded by the memo points
        nearest the root when it starts and joined by the bracket ends that
        other targets' lanes put there. A bracket that has collapsed onto one
        slope straddles a linear segment of the curve: its two ends are
        time-shared (see ``_mix``).
        """
        res = self.residual
        i = bisect.bisect_right(memo, 0.0, key=res)
        below = memo[max(i - 2, 0): i]
        above = memo[i: i + 2]
        if len(above) < 2:
            above.append(zero)
        near = [(p, res(p)) for p in below + above]
        hits = [(abs(g), k) for k, (p, g) in enumerate(near) if self.done(p, g)]
        if hits:
            self.point = near[min(hits)[1]][0]
            return None
        if self.tried is None:  # the memo points nearest the root seed the history
            self.tried = [(p.slope, g) for p, g in sorted(near, key=lambda pg: -abs(pg[1]))]
            self.seen = {s for s, _ in self.tried}
        hi, g_hi = near[len(below)]
        if i == 0:
            if self.rungs > _MAX_DOUBLINGS:
                # never crossed the root: the target is the left endpoint
                self.point = replace(hi, converged=False)
                return None
            self.rungs += 1
            return (2.0 * hi.slope if hi.slope < 0.0 else -1.0 / span), None
        lo, g_lo = near[len(below) - 1]
        s_lo, s_hi = lo.slope, hi.slope
        if s_hi - s_lo <= _BRACKET_EPS * abs(s_lo):
            return _mix(lo, g_lo, hi, g_hi)
        if self.steps >= _MAX_SEARCH:
            self.point = replace(min(near, key=lambda pg: abs(pg[1]))[0], converged=False)
            return None
        self.steps += 1
        # Illinois (modified regula falsi): when the same end moves twice in
        # a row, the value kept at the other end is halved
        gs_lo, gs_hi, kept = g_lo, g_hi, 0
        if s_lo == self.s_lo and s_hi != self.s_hi:
            gs_lo, kept = self.g_lo * (0.5 if self.kept == 1 else 1.0), 1
        elif s_hi == self.s_hi and s_lo != self.s_lo:
            gs_hi, kept = self.g_hi * (0.5 if self.kept == -1 else 1.0), -1
        self.s_lo, self.s_hi, self.g_lo, self.g_hi, self.kept = s_lo, s_hi, gs_lo, gs_hi, kept
        # bracket ends solved for other targets join the history, nearest last
        ends = [(s_lo, g_lo), (s_hi, g_hi)]
        if abs(g_lo) < abs(g_hi):
            ends.reverse()
        for s, g in ends:
            self.record(s, g)
        s_new = _iqi(self.tried[-3:]) if len(self.tried) >= 3 else math.nan
        if not s_lo < s_new < s_hi:
            s_new = (s_lo * gs_hi - s_hi * gs_lo) / (gs_hi - gs_lo)
        if not s_lo < s_new < s_hi:
            s_new = 0.5 * (s_lo + s_hi)
        return s_new, None


def _mix(lo: SlopePoint, g_lo: float, hi: SlopePoint, g_hi: float) -> tuple[float, np.ndarray]:
    """Time-sharing lane between the two ends of a collapsed bracket: the
    slope of their chord and the mix of their output pmfs.

    Both ends maximize Phi at (nearly) one slope s*. Phi is strictly concave
    in den = A q, so every maximizer at s* has the same den, and the
    distortion and the rate are linear along the segment between the two
    output pmfs, whose slope is s*. The weight that puts the residual on 0
    puts the point on its level. The chord's slope is taken from the ends'
    rates and distortions rather than from the bracket: near s* the solves
    are optimal only to the gap, so the bracket can collapse a little off
    s*, where the mix is not optimal and the kernel cannot certify it.
    """
    w = g_lo / (g_lo - g_hi)
    chord = (hi.rate - lo.rate) / (hi.f_distortion - lo.f_distortion)
    return chord, (1.0 - w) * lo.q_out + w * hi.q_out


def _search(problem: _Problem, targets: list[_Target], cfg: SolverConfig,
            memo: list[SlopePoint]) -> None:
    """Advance every target's slope search in lockstep rounds until each has
    its ``point``.

    ``memo`` holds the fixed-slope solves on this problem in ascending slope
    order, shared by the targets, and every regular lane of a round is added
    to it. Each round, every unresolved target proposes its next lane;
    equal slopes merge, and all lanes go to one kernel call. A lane starts
    from the output pmf of the memo point nearest its slope (uniform while
    the memo is empty), and the lanes of that call that end uncertified are
    solved again from the uniform start in one follow-up call, keeping the
    smaller gap: near a kink of the curve a warm start can stall where a cold
    one certifies. A time-sharing lane is the result of its target, flagged
    unconverged unless ``done`` accepts it. A point that a target settles on
    without ``done`` (no crossing after the doublings, or ``_MAX_SEARCH``
    bracket steps) is flagged the same way.
    """
    span = problem.hi - problem.lo
    todo = targets
    while todo:
        slopes: dict[float, list[_Target]] = {}  # equal proposals share a lane
        mixes = []
        for tg in todo:
            lane = tg.propose(memo, problem.zero, span)
            if lane is not None and lane[1] is None:
                slopes.setdefault(lane[0], []).append(tg)
            elif lane is not None:
                mixes.append((tg, *lane))
        if slopes or mixes:
            warm = list(slopes)
            starts = None  # cold while the memo is empty, which also rules out time-sharing
            if memo:
                starts = np.array([_nearest(memo, s).q_out for s in warm]
                                  + [q for _, _, q in mixes])
            pts = _lanes(problem.amended, problem.e, problem.w,
                         warm + [s for _, s, _ in mixes], starts, cfg)
            again = [b for b, p in enumerate(pts[: len(warm)]) if not p.converged]
            if again and starts is not None:
                cold = _lanes(problem.amended, problem.e, problem.w,
                              [warm[b] for b in again], None, cfg)
                for b, p in zip(again, cold):
                    if p.gap < pts[b].gap:
                        pts[b] = p
            for (s, proposers), p in zip(slopes.items(), pts):
                bisect.insort(memo, p, key=_slope)
                for tg in proposers:
                    tg.record(s, tg.residual(p))
            for (tg, _, _), p in zip(mixes, pts[len(warm):]):
                tg.point = p if tg.done(p, tg.residual(p)) else replace(p, converged=False)
        todo = [tg for tg in todo if tg.point is None]


def _slope(p: SlopePoint) -> float:
    return p.slope


def _nearest(memo: list[SlopePoint], s: float) -> SlopePoint:
    i = bisect.bisect_left(memo, s, key=_slope)
    return min(memo[max(i - 1, 0): i + 1], key=lambda p: abs(p.slope - s))


def _solve_levels(
    problem: _Problem,
    levels,
    cfg: SolverConfig,
    memo: list[SlopePoint] | None = None,
) -> list[SlopePoint]:
    """The points whose achieved transform-domain distortions are within the
    level tolerance tol_f of ``levels``, found by one lockstep search. A
    level at the left curve endpoint itself gives the closest achievable
    point (rates there are within slope*tolerance of the limit). ``memo`` is
    the search's, shared by the levels of one problem.
    """
    lo, hi, zero = problem.lo, problem.hi, problem.zero
    tol_f = cfg.bisection_tol * max(1.0, hi - lo)
    pts: list[SlopePoint | None] = []
    targets = []
    for level in levels:
        if level > hi + tol_f:
            pts.append(replace(zero, clamped=True))
        elif level < lo - tol_f:
            f = problem.amended.f
            raise DomainError(
                f"requested distortion {f.invert(level):g} below the feasible "
                f"minimum {f.invert(lo):g}"
            )
        elif level >= hi - tol_f:
            pts.append(zero)
        else:
            pts.append(None)
            targets.append(_Target(lambda pt, t=level: pt.f_distortion - t,
                                   lambda pt, g: abs(g) <= tol_f))
    memo = [] if memo is None else memo
    _search(problem, targets, cfg, memo)
    found = iter(targets)
    return _with_raw(problem, [p if p is not None else next(found).point for p in pts], memo)


def _solve_reduced_at(
    amended: AmendedDistortions,
    pz: np.ndarray,
    target_f: float,
    cfg: SolverConfig,
    memo: list[SlopePoint] | None = None,
) -> SlopePoint:
    """The point within the level tolerance tol_f of target_f
    (``_solve_levels`` with one level)."""
    return _solve_levels(_Problem(amended, pz), [target_f], cfg, memo)[0]


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
    sorted by distortion, in one lockstep search over a shared slope memo."""
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    cfg = cfg or SolverConfig()
    problem = _Problem(build_amended(src, d, f), src.z_marginal)
    d_lo, d_hi = np.asarray(f.invert(np.array([problem.lo, problem.hi])), dtype=float).tolist()

    steps = np.arange(1, n_points + 1) / n_points
    d_grid = d_lo + (d_hi - d_lo) * steps  # even in raw units, left-open
    targets = np.asarray(f.apply(d_grid), dtype=float)
    targets[-1] = problem.hi
    pts = _solve_levels(problem, targets.tolist(), cfg)
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
    problem = _Problem(build_amended(src, d, f), src.z_marginal)
    lo, hi = problem.lo, problem.hi
    tol_f = cfg.bisection_tol * max(1.0, hi - lo)
    d_lo, d_hi = np.asarray(f.invert(np.array([lo, hi])), dtype=float).tolist()
    if rate_nats <= 0.0:
        return d_hi
    if hi - lo <= tol_f:  # the whole curve is within the level tolerance of d_min
        return d_lo

    def saturated(pt: SlopePoint, g: float) -> bool:
        # short of rate_nats within the level tolerance of d_min
        return g > 0.0 and pt.f_distortion <= lo + tol_f

    target = _Target(lambda pt: rate_nats - pt.rate,
                     lambda pt, g: abs(g) <= -pt.slope * tol_f or saturated(pt, g))
    _search(problem, [target], cfg, [])
    pt = _certified(target.point, cfg)
    return d_lo if saturated(pt, rate_nats - pt.rate) else float(f.invert(pt.f_distortion))

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
in lockstep rounds over a memo: one list of solves, each one tuple of its
slope, distortion, rate, gap, iterations and pmfs, in ascending slope and
ending with the analytic s = 0 solve. It starts with a solve below s = 0:
a sweep's ladder of slopes around s = -1/(hi - lo), the inverse of the
transform-domain span, so that most levels start bracketed, a lone level's
seed lane, or a rate target's cold lane at -1/span. Each round every
unresolved target bisects the memo on its distortion (or minus its rate):
a point on its level resolves it, the points around the level bracket it,
or else doubling from the steepest of them does. Inside a bracket the step is
the root of a cubic model built from the two ends alone: in Blahut's
parametric form (Blahut 1972, "Computation of channel capacity and
rate-distortion functions") G(s) = s * D - R is convex with G'(s) = D, so
two solved slopes give G and G' at both ends, and the cubic Hermite model
of G through them has a quadratic G' whose root at a level is the step.
There is one step rule: a rate target steps toward the level where a
quadratic model of R(f) meets its rate, the supporting line at the
bracket's steeper end bent to pass through the far end; R(f) is convex, so
that level lies between the line's and the chord's, which bound the
target's level from both sides. The step is safeguarded as in
Brent 1973 ("Algorithms for Minimization without Derivatives"): clamped to
a monotone model, the secant where the bracket is too narrow for the rates'
gaps and roundoff, and bisection when two steps have not halved the
bracket. Equal proposals merge, and the round's slopes go to one kernel
call as lanes, each started from the output pmf of the nearer end of the
bracket that proposed it. A bracket that collapses onto one slope straddles
a linear segment of the curve, whose level is reached by time-sharing the
two ends. The bracket-width stop is relative to the slopes, so the search
behaves alike at every transform-domain scale. Every target on a problem is
solved to one level tolerance, tol_f = _BISECTION_TOL * max(1, hi - lo),
which ``_Problem`` computes once; a rate target to |s| * tol_f in rate.
Only the points a search returns become ``SlopePoint``s, with raw
distortions from one vectorized f.invert (``_points``).

A lone level target (``solve_at_distortion``) makes one kernel call. Its
start (``kernels.level_start``) climbs from the uniform pmf at s0 = -1/span
only to a loose start gap, and from that pmf the joint Newton iteration on
(q, s) (``kernels.level_newton``) solves the slope and the fixed point
together. It starts at the slope where the level meets the secant through
the start's own point (s0, f0) and the zero-rate end (0, hi), clamped to
[0.5, 1.2] s0. The kernel call certifies its last point, a one-iteration
lane at its slope and pmf; certified and on the level, it is the result,
with no memo, no zero-rate solve and no search round. Otherwise a lane at s0
is solved on to _GAP_TOL from the start's pmf and seeds the search. A
sweep with a single level below hi is that lone level; other sweeps and the
rate target of ``distortion_at_rate`` run the search alone. A NaN
level or rate raises DomainError before any solve.
All rates are nats internally; unit conversion happens only at reporting
boundaries.

The rate of a point is the mutual information of its conditional. A point is
converged when Blahut's duality gap at its output pmf is at most ``_GAP_TOL``
nats and, for a point a search returns, when it is on its target; the gap is
recorded on every point and bounds the rate's distance from the curve. The
tolerances and the kernel's iteration cap (``_MAX_ITERS``) are module
constants, the same for every problem.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import kernels
from .distortion import AmendedDistortions, DistortionMatrix, _level, build_amended
from .errors import DomainError, NotConverged
from .ftransform import FTransform
from .source import JointSource

LN2 = float(np.log(2.0))

_MAX_ITERS = 20000  # kernel iterations per lane
_GAP_TOL = 1e-12  # Blahut duality gap that certifies a fixed point, nats
_BISECTION_TOL = 1e-9  # on achieved distortion; scaled by the transform-domain span
_BRACKET_EPS = 1e-15  # bracket width, relative to its slopes, at which the search stops
_MAX_SEARCH = 200
_MAX_DOUBLINGS = 60
_KAPPA_ERR = 0.5  # largest error in the cubic model's kappa that a search step uses it with
_EPS = float(np.finfo(float).eps)
# the first kernel call of a multi-level search: slopes -LADDER / span
_LADDER = tuple(2.0 ** (k / 2) for k in range(-6, 5))  # 1/8 to 4, ratio sqrt(2)
# a lone level's joint iteration starts at its secant slope, kept within these times -1/span
_SECANT_LO, _SECANT_HI = 0.5, 1.2


@dataclass(frozen=True, eq=False)
class SlopePoint:
    """One solved point: slope, optimal conditional, rate and distortion.

    ``gap`` is Blahut's duality gap at ``q_out`` in nats: the rate exceeds
    the curve's lower bound at ``f_distortion`` by at most this much.
    ``converged`` means ``gap <= _GAP_TOL`` and, for a point returned by a
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


class _Problem:
    """One amended problem, reduced once to the expected-f rows of its used
    z and their renormalized weights, with its transform-domain bounds, for
    all the targets solved on it: lo, the expected row minimum (the rate
    saturates there), and hi, the best single reconstruction letter (zero
    rate). Its level tolerance, tol_f = _BISECTION_TOL * max(1, hi - lo),
    is the one every target on it is solved to. Its analytic zero-rate solve
    ``zero`` (s = 0: mass split over the best columns) is built only when
    asked for: by a slope search, which ends its memo with it, or by a level
    at or above hi."""

    def __init__(self, amended: AmendedDistortions, pz: np.ndarray):
        self.amended = amended
        rows = amended.used_z
        if rows.all():
            rows = slice(None)  # views, where a boolean mask would copy
        w = np.asarray(pz, dtype=float)[rows]
        self.e, self.w = e, w = amended.expected_f[rows], w / w.sum()
        self.col = w.dot(e)  # the distortion of each single reconstruction letter
        self.lo, self.hi = float(w.dot(e.min(axis=1))), min(self.col.tolist())
        self.tol_f = _BISECTION_TOL * max(1.0, self.hi - self.lo)

    @cached_property
    def zero(self) -> tuple:
        mask = self.col == self.hi
        q = mask / mask.sum()
        return 0.0, self.hi, 0.0, 0.0, 0, q, q[None].repeat(len(self.e), axis=0)


def f_domain_bounds(amended: AmendedDistortions, pz: np.ndarray) -> tuple[float, float]:
    """Transform-domain distortion endpoints lo and hi of the reduced
    problem: the expected row minimum, where the rate saturates, and the
    best single reconstruction letter, where it reaches zero."""
    problem = _Problem(amended, pz)
    return problem.lo, problem.hi


# A solve is one tuple (slope, f_distortion, rate before its clamp at 0, gap,
# iterations, q_out, q_cond), q_cond holding the rows of the used z only. A
# search's memo is a list of solves in ascending slope that ends with the
# s = 0 solve (``_Problem.zero``)
_SLOPE = operator.itemgetter(0)


def _lanes(e: np.ndarray, w: np.ndarray, slopes, q0, max_iters: int = _MAX_ITERS) -> list:
    """One kernel call on the reduced rows e, w with a lane per slope, started
    from the rows of q0 (uniform when None): a solve per lane."""
    slopes = np.asarray(slopes, dtype=float)
    q_cond, q_out, f_dist, rate, iters, gap = kernels.ba_fixed_slope_loop(
        e, w, slopes, max_iters, _GAP_TOL, q0)
    return list(zip(slopes.tolist(), f_dist.tolist(), rate.tolist(), gap.tolist(),
                    iters.tolist(), q_out, q_cond))


def _points(amended: AmendedDistortions, solves, converged) -> list[SlopePoint]:
    """The SlopePoints of solves, with raw distortions from one vectorized
    f.invert."""
    used = amended.used_z
    slope, f_dist, rate, gap, iters, q_out, q_cond = zip(*solves)
    q_out, q_cond = np.array(q_out), np.array(q_cond)
    if not used.all():  # rows for unused z repeat q_out
        q_cond, q_used = np.repeat(q_out[:, None, :], used.size, axis=1), q_cond
        q_cond[:, used] = q_used
    raw = np.asarray(amended.f.invert(np.array(f_dist)), dtype=float).tolist()
    # a frozen dataclass's __init__ writes each field through object.__setattr__;
    # one update of the new instance's __dict__ sets them all at ~40 % of the
    # cost (SlopePoint has no __post_init__ to skip). It stays frozen
    new = object.__new__
    pts = []
    for s, fd, r, g, it, qc, qo, d, ok in zip(slope, f_dist, rate, gap, iters, q_cond, q_out,
                                              raw, converged):
        pt = new(SlopePoint)
        pt.__dict__.update(slope=s, q_cond=qc, q_out=qo, rate=r if r > 0.0 else 0.0,
                           f_distortion=fd, distortion=d, iterations=it, gap=g,
                           converged=ok, clamped=r < 0.0)
        pts.append(pt)
    return pts


def ba_fixed_slope(
    amended: AmendedDistortions,
    pz: np.ndarray,
    s: float,
    q0: np.ndarray | None = None,
) -> SlopePoint:
    """Solve the fixed point at one slope s <= 0, starting the kernel from
    the output pmf q0 (uniform when None). Raises ValueError unless
    -inf < s <= 0.

    This is the public one-slope API. No curve path calls it (a search
    batches its slopes into one lane-batched kernel call), but it stays: the
    benchmark hooks it, CI's benchmark smoke step fails when a hook target
    is missing, and the tests use it as the one-slope reference."""
    if not -math.inf < s <= 0.0:  # NaN fails too
        raise ValueError(f"slope must be finite and <= 0, got {s}")
    problem = _Problem(amended, pz)
    if s == 0.0:
        solve = problem.zero
    else:
        if q0 is not None:
            q0 = np.asarray(q0, dtype=float)[None]
        (solve,) = _lanes(problem.e, problem.w, [s], q0)
    return _points(amended, [solve], [solve[3] <= _GAP_TOL])[0]


def _search(problem: _Problem, goals: list[float], memo: list,
            by_rate: bool = False) -> tuple[list, list[bool]]:
    """Slope searches for all ``goals`` at once, in lockstep rounds: the
    solve each one ends on and whether that point is converged.

    ``memo`` holds the solves so far in ascending slope: at least one below
    s = 0, then the s = 0 solve (``problem.zero``), which closes a bracket
    with no solve above it. The search adds its own solves to it, in one
    sort by slope per round; no new slope equals a memo slope.

    A goal is a transform-domain level, or with ``by_rate`` a rate in nats.
    The searched key is the f_distortion, or minus the clamped rate, which
    increases with the slope, so a point's residual g, its key less the
    goal's, is positive at s = 0 and falls as s decreases. A point on a
    level is one within ``problem.tol_f`` of it; a point on a rate is one
    within |s| * tol_f of it (the level tolerance carried to the rate axis
    by the curve's slope), or one short of it at f <= lo + tol_f, where the
    curve is within the level tolerance of d_min.

    Each round every unresolved target bisects the memo on the key for its
    root and takes one step over the two solves on either side: the one on
    the goal with the smaller |g| is its result; with no solve below, its
    lane doubles the steepest slope; inside the bracket it is ``_step``,
    the root of a cubic model of the curve through the two ends, or the
    midpoint once the target's last two steps have not halved its bracket.
    A rate goal takes the same step, toward the level where the bracket's
    model of R(f) meets it (``_rate_level``): the supporting line at the
    steeper end, bent to pass through the far end.
    A bracket collapsed onto one slope straddles a linear segment: its lane
    time-shares the two ends at its lower slope (``_mix``) and is the
    result, flagged unconverged unless it is on the goal, as is a solve
    settled on after ``_MAX_DOUBLINGS`` doublings or ``_MAX_SEARCH`` steps.

    Equal slopes merge into one kernel call, each regular lane started from
    the output pmf of the nearer end of the bracket that proposed it, the
    lower one on a tie and never the s = 0 solve (a doubling lane from the
    steepest solve); lanes that end uncertified are solved again from the
    uniform start, keeping the smaller gap (near a kink a warm start can
    stall where a cold one certifies), and then join the memo.
    """
    tol = problem.tol_f
    floor = problem.lo + tol  # a rate short of its goal at or below this f is at d_min
    key = (lambda x: -max(x[2], 0.0)) if by_rate else operator.itemgetter(1)
    n = len(goals)
    found, ok = [None] * n, [True] * n
    rungs, steps = [0] * n, [0] * n  # doublings, and bracket steps
    # each target's bracket widths at its last step and at the step before
    width1, width2 = [math.inf] * n, [math.inf] * n
    todo = list(range(n))
    while todo:
        m = len(memo) - 1  # the solves at s < 0
        lanes = {}  # each proposed slope: its start pmf and the targets proposing it
        shares = []  # collapsed brackets: target, the two ends and their residuals
        for t in todo:
            goal = goals[t]
            level = -goal if by_rate else goal
            # the solves below i are at or below the level, so g_lo <= 0 < g_hi; the
            # result is the solve on the goal with the smaller |g|
            i = bisect.bisect_right(memo, level, 0, m, key=key)
            lo, hi = memo[i - 1] if i else None, memo[i]
            g_lo, g_hi = key(lo) - level if i else -math.inf, key(hi) - level
            if by_rate:  # within |s| tol of the rate, or short of it at f <= floor
                on_lo = i and g_lo >= lo[0] * tol
                on_hi = g_hi <= -hi[0] * tol or hi[1] <= floor
            else:  # within tol of the level
                on_lo = i and g_lo >= -tol
                on_hi = g_hi <= tol
            if on_hi and (not on_lo or g_hi < -g_lo):
                found[t] = hi
                continue
            if on_lo:
                found[t] = lo
                continue
            if i == 0:
                if rungs[t] > _MAX_DOUBLINGS:  # never crossed: the left endpoint
                    found[t], ok[t] = hi, False
                    continue
                rungs[t] += 1
                lanes.setdefault(2.0 * hi[0], (hi[5], []))[1].append(t)
                continue
            s_lo, s_hi = lo[0], hi[0]
            width = s_hi - s_lo
            if width <= _BRACKET_EPS * -s_lo:  # s_lo < 0: a solve
                shares.append((t, lo, hi, g_lo, g_hi))
                continue
            if steps[t] >= _MAX_SEARCH:
                found[t], ok[t] = lo if -g_lo <= g_hi else hi, False
                continue
            steps[t] += 1
            w2 = width2[t]
            width2[t], width1[t] = width1[t], width
            if width > 0.5 * w2:  # the last two steps did not halve the bracket
                s_new = 0.5 * (s_lo + s_hi)
            else:
                f_lo, f_hi, r_lo, r_hi = lo[1], hi[1], lo[2], hi[2]
                if by_rate:
                    goal = _rate_level(s_lo, f_lo, f_hi, r_lo, r_hi, goal)
                s_new = _step(s_lo, s_hi, f_lo, f_hi, r_lo, r_hi, goal, _GAP_TOL)
            # started from the nearer end, the lower one on a tie, never the s = 0 solve
            end = lo if i == m or s_new - s_lo <= s_hi - s_new else hi
            lanes.setdefault(s_new, (end[5], []))[1].append(t)
        todo = [t for _, ts in lanes.values() for t in ts]
        if not (lanes or shares):
            continue
        slopes = sorted(lanes)
        starts = [lanes[s][0] for s in slopes]
        u = len(slopes)
        if shares:
            _, lo, hi, g_lo, g_hi = zip(*shares)
            slopes += [x[0] for x in lo]
            starts.extend(_mix(lo, g_lo, hi, g_hi))
        new = _lanes(problem.e, problem.w, slopes, starts)
        again = [b for b in range(u) if new[b][3] > _GAP_TOL]
        if again:
            cold = _lanes(problem.e, problem.w, [slopes[b] for b in again], None)
            for b, solve in zip(again, cold):
                if solve[3] < new[b][3]:
                    new[b] = solve
        memo.extend(new[:u])  # no new slope equals a memo slope
        memo.sort(key=_SLOPE)
        for (t, *_), solve in zip(shares, new[u:]):
            s, f, r = solve[:3]
            if by_rate:
                g = goals[t] - max(r, 0.0)
                found[t], ok[t] = solve, abs(g) <= -s * tol or (g > 0.0 and f <= floor)
            else:
                found[t], ok[t] = solve, abs(f - goals[t]) <= tol
    return found, [o and x[3] <= _GAP_TOL for o, x in zip(ok, found)]


def _step(s_lo: float, s_hi: float, f_lo: float, f_hi: float, r_lo: float, r_hi: float,
          level: float, gap_tol: float) -> float:
    """The next slope inside the bracket (s_lo, s_hi) toward ``level``.

    In Blahut's parametric form G(s) = s * f - R is convex, with G'(s) = f
    and R = s * G' - G. So the two ends give G and G' at both ends, and the
    cubic Hermite model of G through them has a quadratic derivative, in
    t = (s - s_lo) / (s_hi - s_lo):

        f(t) = f_lo + (f_hi - f_lo) * (t + kappa * t * (1 - t)),

    with kappa = 6 (mean f - f_lo) / (f_hi - f_lo) - 3 and the mean f over
    the bracket (G(s_hi) - G(s_lo)) / (s_hi - s_lo). The step is the
    model's root of f(t) = level, exact when f is quadratic in s.

    Safeguards: the model is monotone only for |kappa| <= 1; beyond that no
    quadratic fits (as where f jumps across a linear segment of the curve)
    and kappa is clamped to +-1, which keeps f(t) monotone between the two
    ends. When the bracket is too narrow for kappa to be known (mean f -
    f_lo cancels to within the rates' gaps and roundoff), the step is the
    secant; a step outside the bracket is the midpoint.

    A search takes thousands of these steps a second, so it clamps with
    comparisons, not the builtin ``min``/``max`` calls.
    """
    h, d = s_hi - s_lo, f_hi - f_lo
    if not d > 0.0:
        return 0.5 * (s_lo + s_hi)
    # h * (mean f - f_lo) is s_hi * d - (r_hi - r_lo), within a bound on its
    # error: each rate is within its gap of the curve, and every term carries
    # roundoff
    known = 6.0 * (2.0 * gap_tol + 4.0 * _EPS * (abs(s_hi) * (abs(f_lo) + abs(f_hi))
                                                 + abs(r_lo) + abs(r_hi))) <= _KAPPA_ERR * h * d
    kappa = 6.0 * (s_hi * d - (r_hi - r_lo)) / (h * d) - 3.0 if known else 0.0
    if not kappa < 1.0:
        kappa = 1.0
    elif not kappa > -1.0:
        kappa = -1.0
    u = (level - f_lo) / d
    disc = (1.0 + kappa) ** 2 - 4.0 * kappa * u
    x = 2.0 * u / ((1.0 + kappa) + math.sqrt(0.0 if disc < 0.0 else disc))
    s = s_lo + x * h
    return s if s_lo < s < s_hi else 0.5 * (s_lo + s_hi)


def _rate_level(s_lo: float, f_lo: float, f_hi: float, r_lo: float, r_hi: float,
                goal: float) -> float:
    """The level at which a bracket's model of R(f) meets the rate ``goal``,
    r_lo >= goal > r_hi: the quadratic in f with the supporting line at the
    steeper end (R' = s_lo there, in Blahut's parametric form) that passes
    through the far end. R(f) is convex, so its curvature is clamped at 0,
    and the level lies between the supporting line's, a lower bound on the
    goal's level, and the chord's, an upper bound. It is the supporting
    line's at zero curvature and exact where R is quadratic in f (the
    supporting line's alone took ~10 % more lanes per rate target)."""
    d, excess = f_hi - f_lo, r_lo - goal
    c = (r_hi - r_lo - s_lo * d) / d / d if d > 0.0 else 0.0  # d * d can underflow to 0
    disc = s_lo * s_lo - 4.0 * c * excess if c > 0.0 else s_lo * s_lo
    return f_lo + 2.0 * excess / (-s_lo + math.sqrt(disc if disc > 0.0 else 0.0))


def _mix(lo, g_lo, hi, g_hi) -> np.ndarray:
    """The start pmfs of time-sharing lanes between the solves lo and hi,
    the ends of collapsed brackets with residuals g_lo <= 0 < g_hi: the mix
    of their output pmfs with the weight that puts the residual on 0.

    Both ends maximize Phi, to their gaps, at one slope s (the bracket's
    ends differ by at most its relative width). Phi is strictly concave in
    den = A q, so every maximizer has the same den, the distortion and the
    rate are linear along the segment between the two output pmfs, and the
    mix is on the goal. It is certified at s too: each multiplier c(x) is
    convex in q, so at the mix it is at most the same mix of the ends'.
    """
    g_lo, g_hi = np.array(g_lo), np.array(g_hi)
    w = (g_lo / (g_lo - g_hi))[:, None]
    return (1.0 - w) * np.array([x[5] for x in lo]) + w * np.array([x[5] for x in hi])


def _solve_levels(problem: _Problem, levels) -> list[SlopePoint]:
    """The points whose achieved transform-domain distortions are within the
    level tolerance ``problem.tol_f`` of ``levels``, found by one lockstep
    search. A level at the left curve endpoint itself gives the closest
    achievable point (rates there are within slope*tolerance of the limit),
    and so does a level below it by no more than the roundoff of
    f(f^-1(lo)). A level at or above hi is the s = 0 solve, flagged clamped
    above hi + tol_f. A single level below hi, whether or not other levels
    sit at hi, is solved by the joint Newton iteration (``_newton_seed``),
    whose certified point on the level is returned as it is; only when it
    falls short does a lane at -1/span, solved from its start, seed a memo
    for the search. Several levels below hi seed theirs by one kernel call
    on a ladder of slopes around -1/span (``_LADDER``). All the solves
    become SlopePoints in one ``_points`` call.
    """
    lo, hi, tol_f = problem.lo, problem.hi, problem.tol_f
    solves, todo = [], []  # a solve per level, None where the search finds it
    for level in levels:
        if level < lo - tol_f:
            # the round trip f(f^-1(lo)), from which a sweep builds its grid,
            # can miss lo by more than tol_f when |lo| dwarfs the span: a level
            # below lo by no more than that roundoff is solved as lo
            f = problem.amended.f
            d_lo = f.invert(lo)
            if lo - level > abs(lo - f.apply(d_lo)):
                raise DomainError(
                    f"requested distortion {f.invert(level):g} below the feasible "
                    f"minimum {d_lo:g}"
                )
            level = lo
        if level >= hi - tol_f:
            solves.append(problem.zero)
        else:
            solves.append(None)
            todo.append(level)
    converged = [True] * len(levels)
    if todo:
        if len(todo) == 1:
            solve, hit = _newton_seed(problem, todo[0])
            found = ([solve], [True]) if hit else _search(problem, todo, [solve, problem.zero])
        else:
            ladder = _lanes(problem.e, problem.w, [-r / (hi - lo) for r in _LADDER], None)
            found = _search(problem, todo, sorted(ladder, key=_SLOPE) + [problem.zero])
        at = [j for j, solve in enumerate(solves) if solve is None]
        for j, solve, ok in zip(at, *found):
            solves[j], converged[j] = solve, ok
    pts = _points(problem.amended, solves, converged)
    return [replace(p, clamped=True) if level > hi + tol_f else p for p, level in zip(pts, levels)]


def _newton_seed(problem: _Problem, level: float) -> tuple[tuple, bool]:
    """A lone level in one kernel call: the start at s0 = -1/span
    (``kernels.level_start``, to the gap ``kernels._START_GAP``), then the
    joint Newton iteration on (q, s) (``kernels.level_newton``) from its
    pmf, started at the slope where the level meets the secant through the
    start's own point (s0, f0) and the zero-rate end (0, hi): s0 (hi -
    level) / (hi - f0), clamped to [_SECANT_LO, _SECANT_HI] s0. The kernel
    call certifies the joint point, a one-iteration lane at its slope and
    pmf. Returns its solve and True when it is certified and within
    ``problem.tol_f`` of the level; otherwise the solve of a lane at s0
    solved on from the start's pmf to _GAP_TOL, which seeds the search, and
    False. The start's iterations count toward the solve's.
    """
    e, w, hi, tol_f = problem.e, problem.w, problem.hi, problem.tol_f
    s0 = -1.0 / (hi - problem.lo)
    q0, f0, climbed, start = kernels.level_start(e, w, s0, _MAX_ITERS)
    ratio = (hi - level) / (hi - f0) if f0 < hi else _SECANT_HI
    s1 = s0 * min(max(ratio, _SECANT_LO), _SECANT_HI)
    s, q, points = kernels.level_newton(e, w, s1, start, level, tol_f, _MAX_ITERS, _GAP_TOL)
    (joint,) = _lanes(e, w, [s], q[None], 1)
    hit = joint[3] <= _GAP_TOL and abs(joint[1] - level) <= tol_f
    s, f, r, g, iters, q_out, q_cond = joint if hit else _lanes(e, w, [s0], q0[None])[0]
    return (s, f, r, g, (points if hit else iters) + climbed, q_out, q_cond), hit


def _certified(pt: SlopePoint) -> SlopePoint:
    """pt itself; NotConverged if its gap exceeds the gap tolerance."""
    if not pt.converged:
        raise NotConverged(
            f"slope {pt.slope:g}: duality gap {pt.gap:g} nats after {pt.iterations} "
            f"iterations exceeds gap_tol {_GAP_TOL:g}"
        )
    return pt


def solve_at_distortion(
    src: JointSource,
    d: DistortionMatrix,
    f: FTransform,
    D: float,
) -> SlopePoint:
    """Rate at one raw distortion level D.

    Feasible levels run from the saturation point d_min (approached, slope
    unbounded) to d_max (zero rate). Levels above d_max, +inf among them,
    return the zero-rate point flagged ``clamped``; levels below d_min, a
    negative D among them, raise DomainError, as does a NaN D.
    """
    target = _level(f, D)
    return _solve_levels(_Problem(build_amended(src, d, f), src.z_marginal), [target])[0]


def sweep_curve(
    src: JointSource,
    d: DistortionMatrix,
    f: FTransform,
    n_points: int,
) -> RdCurve:
    """Solve n_points levels evenly spaced in raw units over (d_min, d_max],
    sorted by distortion, in one lockstep search over a shared slope memo."""
    if operator.index(n_points) < 2:  # TypeError for a non-integer count
        raise ValueError("n_points must be >= 2")
    problem = _Problem(build_amended(src, d, f), src.z_marginal)
    d_lo, d_hi = np.asarray(f.invert(np.array([problem.lo, problem.hi])), dtype=float).tolist()

    steps = np.arange(1, n_points + 1) / n_points
    d_grid = d_lo + (d_hi - d_lo) * steps  # even in raw units, left-open
    targets = np.asarray(f.apply(d_grid), dtype=float)
    targets[-1] = problem.hi
    pts = _solve_levels(problem, targets.tolist())
    pts.sort(key=lambda p: p.distortion)
    return RdCurve(points=tuple(pts), d_min=d_lo, d_max=d_hi)


def distortion_at_rate(
    src: JointSource,
    d: DistortionMatrix,
    f: FTransform,
    rate_nats: float,
) -> float:
    """Invert the curve: smallest raw distortion whose rate is <= rate_nats.

    The slope search runs on the rate, from one cold lane at -1/span, each
    step the levels' step toward the level where the bracket's model of R(f)
    meets rate_nats, and stops once the rate is within |s| * tol_f of
    rate_nats: the problem's level tolerance carried to the rate axis by
    the curve's slope s. A rate at or above the curve's maximum gives d_min, and one at
    or below 0 gives d_max. Raises DomainError for a NaN rate, and
    NotConverged if the point it lands on is not certified.
    """
    if math.isnan(rate_nats):
        raise DomainError("requested rate is NaN")
    problem = _Problem(build_amended(src, d, f), src.z_marginal)
    lo, hi, tol_f = problem.lo, problem.hi, problem.tol_f
    d_lo, d_hi = np.asarray(f.invert(np.array([lo, hi])), dtype=float).tolist()
    if rate_nats <= 0.0:
        return d_hi
    if hi - lo <= tol_f:  # the whole curve is within the level tolerance of d_min
        return d_lo
    memo = _lanes(problem.e, problem.w, [-1.0 / (hi - lo)], None) + [problem.zero]
    found = _search(problem, [rate_nats], memo, by_rate=True)
    pt = _certified(_points(problem.amended, *found)[0])
    # short of rate_nats within the level tolerance of d_min
    return d_lo if rate_nats > pt.rate and pt.f_distortion <= lo + tol_f else pt.distortion

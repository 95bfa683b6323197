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
in lockstep rounds over a flat memo: slope, distortion and rate columns
sorted by slope, and the solved conditionals as rows of one array. Each
round every unresolved target bisects the memo: a point on its level
resolves it, the points around the level bracket it, or else doubling from
the steepest of them (or from s = -1/(hi - lo), the inverse of the
transform-domain span) does; inside a bracket, inverse quadratic
interpolation (Brent 1973, "Algorithms for Minimization without
Derivatives"), with Illinois (modified regula falsi) and bisection steps as
fallbacks, closes in. Equal proposals merge, and the round's slopes go to
one kernel call as lanes, each started from the output pmf of the nearest
solved slope. A bracket that collapses onto one slope straddles a linear
segment of the curve, whose level is reached by time-sharing the two ends.
The bracket-width stop is relative to the slopes, so the search behaves
alike at every transform-domain scale. Only the points a search returns
become ``SlopePoint``s, with raw distortions from one vectorized f.invert.

A lone level target (``solve_at_distortion``, each ``characterize`` route)
first takes the search's own first lane, a cold solve at s = -1/span, and
runs the joint Newton iteration on (q, s) from it (``kernels.level_newton``),
which solves the slope and the fixed point together. Its point is solved
again by the fixed-point kernel at its slope, from its pmf, in one call;
certified, it joins the memo, where the search finds it on the level and
returns it with no further solve. Otherwise the search goes on from the
solves already made. Sweeps and the rate target of ``distortion_at_rate``
run the search alone.
All rates are nats internally; unit conversion happens only at reporting
boundaries.

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


class _Problem:
    """One amended problem, reduced to its used z once, with its
    transform-domain bounds and its analytic zero-rate point (s = 0: mass
    split over the best columns), built once for all the targets solved on
    it."""

    def __init__(self, amended: AmendedDistortions, pz: np.ndarray):
        self.amended = amended
        self.e, self.w = e, w = _reduced(amended, pz)
        col = w @ e
        self.lo, self.hi = float(w @ e.min(axis=1)), float(col.min())
        mask = col == self.hi
        q_out = mask / mask.sum()
        self.zero = SlopePoint(
            slope=0.0,
            q_cond=q_out[None].repeat(amended.used_z.size, axis=0),
            q_out=q_out,
            rate=0.0,
            f_distortion=self.hi,
            distortion=float(amended.f.invert(self.hi)),
            iterations=0,
            gap=0.0,
            converged=True,
        )
        self.zero_row = np.concatenate([[0.0, self.hi, 0.0, 0.0, 0.0]] + [q_out] * (len(e) + 1))


# columns of a memo row: slope, f_distortion, rate (before its clamp at 0),
# gap and iterations, then q_out from _Q on and the q_cond rows of the used z
_S, _F, _R, _GAP, _IT, _Q = range(6)


class _Memo:
    """The fixed-slope solves (s < 0 only) on one problem: slope, f_distortion
    and rate columns in ascending slope order, and the index of each solve's
    memo row in ``rows``, which also holds the other rows a search reads."""

    def __init__(self):
        self.rows: np.ndarray | None = None
        self.slope, self.f, self.rate, self.row = [], [], [], []  # rate before its clamp at 0


def _lanes(e: np.ndarray, w: np.ndarray, slopes: np.ndarray, q0, cfg: SolverConfig) -> np.ndarray:
    """One kernel call on the reduced rows e, w with a lane per slope, started
    from the rows of q0 (uniform when None): a memo row per lane."""
    q_cond, q_out, f_dist, rate, iters, gap = kernels.ba_fixed_slope_loop(
        e, w, slopes, cfg.max_iters, cfg.gap_tol, q0
    )
    return np.concatenate((np.array((slopes, f_dist, rate, gap, iters)).T, q_out,
                           q_cond.reshape(slopes.size, -1)), axis=1)


def _join(memo: _Memo, new: np.ndarray, u: int) -> int:
    """Append the memo rows ``new`` to ``memo.rows`` and insert the first u
    of them (fixed-slope solves) in its columns; the index of the first new
    row."""
    base = 0 if memo.rows is None else len(memo.rows)
    memo.rows = new if memo.rows is None else np.concatenate((memo.rows, new))
    for b, (s, f, r) in enumerate(new[:u, :_GAP].tolist(), base):
        j = bisect.bisect_left(memo.slope, s)
        memo.slope.insert(j, s)
        memo.f.insert(j, f)
        memo.rate.insert(j, r)
        memo.row.insert(j, b)
    return base


def _points(amended: AmendedDistortions, rows: np.ndarray, converged) -> list[SlopePoint]:
    """The SlopePoints of memo rows, with raw distortions from one vectorized
    f.invert."""
    used = amended.used_z
    nx = amended.expected_f.shape[1]
    q_out = rows[:, _Q: _Q + nx]
    q_cond = rows[:, _Q + nx:].reshape(len(rows), -1, nx)
    if not used.all():  # rows for unused z repeat q_out
        q_cond, q_used = np.repeat(q_out[:, None, :], used.size, axis=1), q_cond
        q_cond[:, used] = q_used
    raw = np.asarray(amended.f.invert(rows[:, _F]), dtype=float).tolist()
    return [
        SlopePoint(slope=s, q_cond=qc, q_out=qo, rate=max(0.0, r), f_distortion=fd,
                   distortion=d, iterations=int(it), gap=g, converged=ok, clamped=r < 0.0)
        for (s, fd, r, g, it), qc, qo, d, ok in zip(rows[:, :_Q].tolist(), q_cond, q_out, raw,
                                                    converged.tolist())
    ]


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
        return _Problem(amended, pz).zero
    if q0 is not None:
        q0 = np.asarray(q0, dtype=float)[None]
    row = _lanes(*_reduced(amended, pz), np.array([float(s)]), q0, cfg)
    return _points(amended, row, row[:, _GAP] <= cfg.gap_tol)[0]


def _search(problem: _Problem, levels: list[float], key, done, cfg: SolverConfig,
            memo: _Memo) -> tuple[np.ndarray, np.ndarray]:
    """Slope searches for all ``levels`` at once, in lockstep rounds: the
    memo row each one ends on and whether that point is converged.

    ``key(f, rate)`` maps f_distortion and rate lists to the searched
    quantity, increasing with the slope (the f_distortion, or minus the
    rate); a level's residual g = key - level is positive at s = 0 and falls
    as s decreases. ``done(g, s, f)`` accepts a point.

    Each round every unresolved target bisects the key column for its root
    (the s = 0 point closes a bracket with no solve above it) and takes one
    scalar step over the two solves on either side: the one ``done``
    accepts with the smallest |g| is its result; with no solve below, its
    lane doubles the steepest slope (or is -1/span); inside the bracket it
    is the inverse quadratic interpolation through the last three (s, g) of
    the target's history if that falls strictly inside, else the Illinois
    secant (after the same end stays twice in a row its g is halved) if that
    does, else the midpoint. The solves around the root start a history;
    the bracket ends, nearest last, and the target's lanes join it, each
    slope once. A bracket collapsed onto one slope straddles a linear
    segment: its lane time-shares the two ends (``_mix``) and is the
    result, flagged unconverged unless ``done`` accepts it, as is a solve
    settled on after ``_MAX_DOUBLINGS`` doublings or ``_MAX_SEARCH`` steps.

    Equal slopes merge into one kernel call, each regular lane started from
    the output pmf of the nearest solve (uniform while the memo is empty);
    lanes that end uncertified are solved again from the uniform start,
    keeping the smaller gap (near a kink a warm start can stall where a cold
    one certifies), and then join the memo.
    """
    span = problem.hi - problem.lo
    nx = problem.e.shape[1]
    zero = problem.zero_row
    memo.rows = zero[None] if memo.rows is None else np.concatenate((memo.rows, zero[None]))
    z_f, z_row = zero[_F], len(memo.rows) - 1
    bisect_left, bisect_right = bisect.bisect_left, bisect.bisect_right
    n = len(levels)
    found, ok = [z_row] * n, [True] * n
    rungs, steps = [0] * n, [0] * n  # doublings, and bracket steps
    # the last step's bracket, its g as Illinois scaled them, and +1 when only
    # s_hi moved, -1 when only s_lo moved
    brk = [(math.nan, math.nan, math.nan, math.nan, 0)] * n
    tried: list = [None] * n  # each target's history: g by slope, in the order joined
    todo = list(range(n))
    while todo:
        m = len(memo.slope)
        # the memo's columns, the s = 0 point appended: it closes every bracket
        S, F, R = memo.slope + [0.0], memo.f + [z_f], memo.row + [z_row]
        K = key(F, memo.rate + [0.0])
        lanes: dict[float, list[int]] = {}  # the targets proposing each slope
        mixes = []
        for t in todo:
            level = levels[t]
            i = bisect_right(K, level, 0, m)  # the solves below i are at or below the level
            near = range(i - 2 if i > 2 else 0, i + 2 if i < m else m + 1)
            best = None
            for j in near:
                g = K[j] - level
                if done(g, S[j], F[j]) and (best is None or abs(g) < best[0]):
                    best = (abs(g), j)
            if best is not None:
                found[t] = R[best[1]]
                continue
            hist = tried[t]
            if hist is None:  # the solves around the root start the history, nearest last
                hist = tried[t] = dict(sorted(((S[j], K[j] - level) for j in near),
                                              key=lambda p: -abs(p[1])))
            if i == 0:
                if rungs[t] > _MAX_DOUBLINGS:  # never crossed: the left endpoint
                    found[t], ok[t] = R[0], False
                    continue
                rungs[t] += 1
                lanes.setdefault(2.0 * S[0] if m else -1.0 / span, []).append(t)
                continue
            s_lo, s_hi, g_lo, g_hi = S[i - 1], S[i], K[i - 1] - level, K[i] - level
            if s_hi - s_lo <= _BRACKET_EPS * abs(s_lo):
                mixes.append((t, R[i - 1], R[i], g_lo, g_hi))
                continue
            if steps[t] >= _MAX_SEARCH:
                found[t], ok[t] = R[min((abs(K[j] - level), j) for j in near)[1]], False
                continue
            steps[t] += 1
            p_lo, p_hi, pg_lo, pg_hi, kept = brk[t]
            gs_lo, gs_hi, k = g_lo, g_hi, 0
            if s_lo == p_lo and s_hi != p_hi:
                gs_lo, k = pg_lo * (0.5 if kept == 1 else 1.0), 1
            elif s_hi == p_hi and s_lo != p_lo:
                gs_hi, k = pg_hi * (0.5 if kept == -1 else 1.0), -1
            brk[t] = s_lo, s_hi, gs_lo, gs_hi, k
            # bracket ends solved for other targets join the history, nearest last
            ends = (s_lo, g_lo), (s_hi, g_hi)
            for s, g in ends[::-1] if abs(g_lo) < abs(g_hi) else ends:
                hist.setdefault(s, g)
            s_new = _iqi(list(hist.items())[-3:]) if len(hist) >= 3 else math.nan
            if not s_lo < s_new < s_hi:
                s_new = (s_lo * gs_hi - s_hi * gs_lo) / (gs_hi - gs_lo)
                if not s_lo < s_new < s_hi:
                    s_new = 0.5 * (s_lo + s_hi)
            lanes.setdefault(s_new, []).append(t)
        todo = [t for ts in lanes.values() for t in ts]
        if not (lanes or mixes):
            continue
        uniq = sorted(lanes)
        u = len(uniq)
        starts = None  # cold while the memo is empty, which also rules out time-sharing
        if m:  # the nearer solve, the lower one on a tie
            at = [bisect_left(S, s, 0, m) for s in uniq]
            starts = memo.rows[[R[j - 1] if j == m or (j and s - S[j - 1] <= S[j] - s) else R[j]
                                for s, j in zip(uniq, at)], _Q: _Q + nx]
        slopes = np.array(uniq)
        if mixes:
            mix_t, lo, hi, g_lo, g_hi = (list(c) for c in zip(*mixes))
            chord, mix_q = _mix(memo.rows[lo], np.array(g_lo), memo.rows[hi], np.array(g_hi), nx)
            slopes, starts = np.concatenate((slopes, chord)), np.concatenate((starts, mix_q))
        new = _lanes(problem.e, problem.w, slopes, starts, cfg)
        again = [b for b, g in enumerate(new[:u, _GAP].tolist()) if g > cfg.gap_tol] if m else []
        if again:
            cold = _lanes(problem.e, problem.w, slopes[again], None, cfg)
            better = cold[:, _GAP] < new[again, _GAP]
            new[np.array(again)[better]] = cold[better]
        base = _join(memo, new, u)
        s_col, f_col, r_col = new[:, :_GAP].T.tolist()
        if mixes:
            for b, (t, g) in enumerate(zip(mix_t, key(f_col[u:], r_col[u:])), u):
                found[t], ok[t] = base + b, done(g - levels[t], s_col[b], f_col[b])
        for s, k_new in zip(s_col, key(f_col[:u], r_col[:u])):
            for t in lanes[s]:
                tried[t][s] = k_new - levels[t]
    rows = memo.rows[found]
    return rows, np.array(ok) & (rows[:, _GAP] <= cfg.gap_tol)


def _iqi(pairs) -> float:
    """Inverse quadratic interpolation: the root of the quadratic in g that
    passes through the three (s, g) pairs; nan unless the g are distinct."""
    (sa, ga), (sb, gb), (sc, gc) = pairs
    if ga == gb or ga == gc or gb == gc:
        return math.nan
    return (sa * gb * gc / ((ga - gb) * (ga - gc))
            + sb * ga * gc / ((gb - ga) * (gb - gc))
            + sc * ga * gb / ((gc - ga) * (gc - gb)))


def _mix(lo: np.ndarray, g_lo: np.ndarray, hi: np.ndarray, g_hi: np.ndarray, nx: int):
    """Time-sharing lanes between the two ends of collapsed brackets (memo
    rows lo and hi, residuals g_lo and g_hi): the slopes of their chords and
    the mixes of their output pmfs.

    Both ends maximize Phi at (nearly) one slope s*. Phi is strictly concave
    in den = A q, so every maximizer at s* has the same den, and the
    distortion and the rate are linear along the segment between the two
    output pmfs, whose slope is s*. The weight that puts the residual on 0
    puts the point on its level. The chord's slope is taken from the ends'
    rates and distortions rather than from the bracket: near s* the solves
    are optimal only to the gap, so the bracket can collapse a little off
    s*, where the mix is not optimal and the kernel cannot certify it.
    """
    w = (g_lo / (g_lo - g_hi))[:, None]
    chord = ((np.maximum(hi[:, _R], 0.0) - np.maximum(lo[:, _R], 0.0))
             / (hi[:, _F] - lo[:, _F]))
    return chord, (1.0 - w) * lo[:, _Q: _Q + nx] + w * hi[:, _Q: _Q + nx]


def _solve_levels(
    problem: _Problem,
    levels,
    cfg: SolverConfig,
    memo: _Memo | None = None,
) -> list[SlopePoint]:
    """The points whose achieved transform-domain distortions are within the
    level tolerance tol_f of ``levels``, found by one lockstep search. A
    level at the left curve endpoint itself gives the closest achievable
    point (rates there are within slope*tolerance of the limit). ``memo`` is
    the search's, shared by the levels of one problem; without one, a lone
    level seeds a new memo by the joint Newton iteration (``_newton_seed``).
    """
    lo, hi, zero = problem.lo, problem.hi, problem.zero
    tol_f = cfg.bisection_tol * max(1.0, hi - lo)
    pts: list[SlopePoint | None] = []
    todo = []
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
            todo.append(level)
    if not todo:
        return pts
    if memo is None:
        memo = _Memo()
        if len(levels) == 1:
            _newton_seed(problem, todo[0], tol_f, cfg, memo)
    rows, conv = _search(problem, todo, lambda f, rate: f, lambda g, s, f: abs(g) <= tol_f, cfg,
                         memo)
    found = iter(_points(problem.amended, rows, conv))
    return [p if p is not None else next(found) for p in pts]


def _newton_seed(problem: _Problem, level: float, tol_f: float, cfg: SolverConfig,
                 memo: _Memo) -> None:
    """Seed an empty memo for a lone level: the search's own first lane, a
    cold solve at s = -1/span, and, when the joint Newton iteration on (q, s)
    started from it (``kernels.level_newton``) meets its tolerances, its
    point solved again by the kernel at its slope from its pmf. That solve
    joins the memo only if certified; on the level, it resolves the search
    with no further solve."""
    e, w = problem.e, problem.w
    nx = e.shape[1]
    cold = _lanes(e, w, np.array([-1.0 / (problem.hi - problem.lo)]), None, cfg)
    new = cold
    s, q, ok = kernels.level_newton(e, w, cold[0, _S], cold[0, _Q: _Q + nx], level, tol_f,
                                    cfg.max_iters, cfg.gap_tol)
    if ok and s != cold[0, _S]:  # else the cold solve is on the level itself
        final = _lanes(e, w, np.array([s]), q[None], cfg)
        if final[0, _GAP] <= cfg.gap_tol:
            new = np.concatenate((cold, final))
    _join(memo, new, len(new))


def _solve_reduced_at(
    amended: AmendedDistortions,
    pz: np.ndarray,
    target_f: float,
    cfg: SolverConfig,
    memo: _Memo | None = None,
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

    def saturated(g, f):
        # short of rate_nats within the level tolerance of d_min
        return g > 0.0 and f <= lo + tol_f

    rows, conv = _search(problem, [-rate_nats], lambda f, rate: [-max(r, 0.0) for r in rate],
                         lambda g, s, f: abs(g) <= -s * tol_f or saturated(g, f), cfg, _Memo())
    pt = _certified(_points(problem.amended, rows, conv)[0], cfg)
    return d_lo if saturated(rate_nats - pt.rate, pt.f_distortion) else pt.distortion

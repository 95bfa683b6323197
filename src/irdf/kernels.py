"""Numerical inner loops, in numpy.

Two kernels dominate runtime: the slope fixed point of the reduced direct
problem (called for every slope a curve search tries) and the exhaustive
encoder scan of the brute-force code search, which grows each encoder's
table of cell sums from its prefix's, in blocks of bounded size, rather
than summing every cell afresh. Each has one formulation.

At a fixed slope the output pmf maximizes a log-optimal portfolio
objective (Cover 1984, "An algorithm for maximizing expected log investment
return"), whose fixed point is the Blahut-Arimoto iteration written on the
output pmf alone. The kernel maximizes it by a damped active-set Newton
ascent on the simplex, which converges quadratically near the optimum, and
stops on Blahut's duality gap (Blahut 1972, "Computation of channel
capacity and rate-distortion functions"), a certified bound in nats on the
distance of the returned rate from the curve at the returned distortion.
A letter leaves the support only at the simplex boundary and may return
later; the gap covers every letter, and the one rate returned is the mutual
information at the certified output pmf. The ascent may start from any
output pmf, such as the certified one of a nearby slope (a warm start).

The problem has a row per observation z, weighted by p(z) >= 0. A z with
p(z) = 0 stays in as a zero-weight row: it adds nothing to c, the
distortion, the rate or the gap, and its conditional is its tilt of the
output pmf, the output pmf itself for the amended problem's zero rows.

The fixed-point kernel solves a batch of slopes at once, one lane each, on
one problem. Its start and its result assembly are vectorized over lanes:
the tilt, the gradient and the gap of every lane at its start, and the
conditional, distortion, rate and gap at the end. A lane certified at its
start costs no per-lane work; the others climb one at a time, because a
lane-batched Newton step costs more than a one-lane step on these small
systems, and each lane stops on its own certificate. A climbing lane hands
back only its final pmf: once any lane has climbed, the final vectorized
pass tilts every lane again from its pmf (``_tilted``) before it assembles
the results (``_assemble``), so what a lane reports depends on its slope
and its pmf alone, not on values carried out of the loop that found it.

A lone level target has a kernel of its own, ``level_newton``: Newton
steps on the joint KKT system in the output pmf and the slope (Boyd &
Vandenberghe 2004, "Convex Optimization", sections 10.2-10.3, for the
bordered Newton step), which move the slope and the fixed point together
toward the point of the curve at a given distortion. Its start
(``level_start``) is the ascent of one lane from the uniform pmf, solved
only loosely, to the gap _START_GAP, with its distortion read off the
ascent's last tilt and no end assembly; ``level_newton`` takes over the
start's support, pmf and shifted rows as they are. ``level_newton``
certifies its last point where it lands, once, instead of at every slope a
root search on s would try, and with no call of the fixed-point kernel. It
lays the tilt of its last evaluation out in the letters' order, and the
lanes' own code (``_conditional``) gives the point's conditional and
distortion there at the pmf renormalized, as the lanes' end assembly
(``_assemble``) at that slope and pmf gives them, bit for bit; the rate and
the gap come from the same evaluation's c. A tilt capped off the support understates c there,
and then the gap is the lanes' log-sum-exp (``_capped``).

On these small systems the time goes to numpy's per-call overhead, not to
arithmetic, so each point and each step is written in as few calls as the
algebra allows. A support's shifted rows, on the support and then off it,
are computed once for all the points evaluated on it, in one layout
whether or not a letter is off it; a point is one evaluation (one capped
tilt over all letters, den, one product for c on and off the support,
E[e | z], f and the residual) that serves the stop test, the merit and the
next step; and a step is one bordered system written in place, its slope
row and column from one product, and one ``np.linalg.solve``. A joint
iteration (a step and its point) makes 44 numpy calls, the solve among
them, on every support. Measured on a 2-CPU host (Python 3.11, numpy 2.4,
best of repeated in-process runs), a joint iteration costs ~28 us at 2-4
letters (the 37 criterion-05 targets), ~31 us at 16 letters and ~40 us at
64 (a discretized Gaussian seen through AWGN), ~5-8 us of it in the solve
and ~7, ~8 and ~14 us in the point's evaluation; an iteration of the
start's ascent costs ~25 us at 2-4 letters, ~40 us at 16 and ~95 us at 64.

The ascent and ``level_newton`` take one kind of step, a damped Newton step
with backtracking (Boyd & Vandenberghe 2004, sections 9.5 and 10.2), from
one set of helpers: ``_split`` splits a start pmf into its support S, its
dropped letters and their shifted rows (``_shifted``), and ``_tilt`` tilts
them; ``_bordered`` keeps the bordered Newton system of each size, its H
block damped by the fixed smallest damping _LAM_MIN max c; ``_trials``
yields the step's trial points, the step truncated at the simplex boundary
and then halved, each trial with the letters it reaches dropped and its
rows rebuilt; and a dropped letter returns (``_readmit``) once its c
exceeds every c on S. The two differ only in their merits (Phi, or the KKT
residual), in the joint system's slope row and clamps, and in the joint
iteration's branches for one letter and for saturated tilts.
"""

from __future__ import annotations

import math

import numpy as np


def ba_fixed_slope_loop(expected_f, pz, s, q0=None):
    """Fixed points q(xhat|z) ∝ q(xhat) exp(s[b] * expected_f[z, xhat]), one
    lane b per slope.

    expected_f: (nz, nx) transform-domain distortion rows, one per z.
    pz: (nz,) nonnegative, sums to 1; a row with p(z) = 0 has no weight in
    c, the distortion, the rate or the gap, and its conditional is its tilt
    of q (q itself for a zero row). s: (B,) slopes, all < 0.
    q0: (B, nx) finite nonnegative start pmfs, one row per lane with positive
    mass, or None for the uniform pmf in every lane; the caller checks them.
    The positive letters of a row form its lane's starting support,
    renormalized; its zero-mass letters start dropped and may return like
    any other.

    In each lane the output pmf q maximizes Phi(q) = sum_z p(z) log (A q)(z)
    on the simplex, with the tilt A[z, x] = exp(s * (e[z, x] - m[z])) and
    m[z] the row minimum over the support S (the letters with positive mass).
    The gradient

        c(x) = sum_z p(z) A[z, x] / den(z),   den = A q,

    certifies q once gap = max_x log c(x) <= _GAP_TOL over every letter. One
    vectorized pass computes the tilt, c and the gap of every lane at its
    start, and one comparison picks the lanes whose gap exceeds _GAP_TOL: a
    certified start costs one iteration and no per-lane work. Each other
    lane climbs on its own (``_ascend``) for at most _MAX_ITERS iterations,
    retires on its own certificate and leaves its final pmf in its row of
    q. After any climb the final vectorized pass tilts every lane again from
    its pmf, and then assembles every lane's results there.

    Returns (q_cond, q_out, f_dist, rate, iters, gap) stacked over lanes, with
    shapes (B, nz, nx), (B, nx), (B,), (B,), (B,), (B,): q_out is the output
    pmf the gap certifies, q_cond its tilted conditional, rate their mutual
    information in nats, and iters the lane's iteration count.
    """
    nx = expected_f.shape[1]
    s = np.asarray(s, dtype=float)
    if q0 is None:
        q = np.full((s.size, nx), 1.0 / nx)
    else:
        q = np.asarray(q0, dtype=float)
        q = q / np.add.reduce(q, axis=1, keepdims=True)
    iters = [1] * s.size
    # exp of very negative exponents and products of tiny masses underflow to
    # 0 by design; overflow and invalid operations still follow the caller
    with np.errstate(under="ignore"):
        tilt = _tilted(expected_f, pz, s, q)
        for b in np.flatnonzero(tilt[5] > _GAP_TOL).tolist():
            iters[b], (sup, _, q_sup, _), _ = _ascend(
                expected_f, pz, s[b], _split(expected_f, q[b]), tilt[4][b], _GAP_TOL)
            q[b] = 0.0
            q[b, sup] = q_sup
        if max(iters) > 1:  # a lane climbed: its row of q is its final pmf
            tilt = _tilted(expected_f, pz, s, q)
        q_cond, f_dist, rate, gap = _assemble(expected_f, pz, s, q, *tilt)
    return q_cond, q, f_dist, rate, np.array(iters), gap


def _assemble(expected_f, pz, s, q, m, x, a, den, c, gap):
    """The results of lanes at their output pmfs q, stacked over lanes: the
    tilted conditional, the distortion, the rate and Blahut's gap, from
    ``_tilted``'s row minima m, shifted rows x, tilt a, den, c and gap at q.
    Every lane is certified here, from its slope and its pmf alone.
    """
    if np.maximum.reduce(a, axis=None, initial=0.0) >= _A_CAP or math.inf in gap.tolist():
        c, gap = _capped(pz, s, q, x, den, c)
    q_cond, above, f_dist = _conditional(pz, q, m, x, a, den)
    # I(Z; Xhat) = sum p q_cond log(q_cond / q) - mix . log(mix / q), with
    # mix = q * c = pz @ q_cond and mix / q = c on the support
    mix = q * c
    log_c = np.log(np.where(mix > 0.0, c, 1.0))
    rate = (s[:, None] * above - np.log(den)).dot(pz) - (mix * log_c).dot(np.ones(q.shape[1]))
    return q_cond, f_dist, rate, gap


def _capped(pz, s, q, x, den, c):
    """c and the gap of lanes whose tilt is capped off the support (or whose
    c overflows there), stacked over lanes: the capped tilt understates c
    off the support, and c there may overflow, so there log c comes by
    log-sum-exp over z. Returns c zeroed off the support, and the gap."""
    sup = q > 0.0
    # log(p / den) is -inf on a zero-weight row, whose terms drop out
    log_w = np.log(pz / den, out=np.full_like(den, -np.inf), where=pz > 0.0)
    terms = log_w[:, :, None] + s[:, None, None] * x
    top = terms.max(axis=1)
    off = top + np.log(np.exp(terms - top[:, None, :]).sum(axis=1))
    c = np.where(sup, c, 0.0)
    return c, np.maximum(np.log(c.max(axis=1)), np.where(sup, -np.inf, off).max(axis=1))


def _conditional(pz, q, m, x, a, den):
    """The tilted conditional a q / den of lanes at their pmfs q, E[e | z] -
    m(z) and the distortion, stacked over lanes, from ``_tilted``'s m, x, a
    and den."""
    q_cond = a * (q[:, None, :] / den[:, :, None])
    ones = np.ones(q.shape[1])  # sums over letters as products, which beat reductions
    above = (q_cond * x).dot(ones)
    return q_cond, above, (above + m).dot(pz)


def _tilted(expected_f, pz, s, q):
    """Row minima m over each lane's support (the letters of q with positive
    mass), the rows shifted by them x = e - m, the tilt a over all letters
    (its exponent capped at _EXP_CAP off the support), den = a q, c and the
    gap log max c, stacked over lanes."""
    m = np.minimum.reduce(np.where(q[:, None, :] > 0.0, expected_f, np.inf), axis=2)
    x = expected_f - m[:, :, None]
    a = np.exp(np.minimum(s[:, None, None] * x, _EXP_CAP))
    den = np.matmul(a, q[:, :, None])[:, :, 0]
    c = np.einsum("bz,bzx->bx", pz / den, a)
    return m, x, a, den, c, np.log(np.maximum.reduce(c, axis=1))


def _ascend(expected_f, pz, s, start, c_row, gap_tol):
    """Damped active-set Newton ascent of one lane from ``start``, its pmf
    split on its support (``_split``), with c over all letters there.
    Returns its iteration count, its final pmf split the same way, and the
    distortion f at that pmf, from its last tilt.

    Each iteration computes c at q and stops once the gap is at most
    gap_tol. Otherwise the dropped letter that holds the gap, with c above
    every c on S, returns (``_readmit``), or the iteration takes the shared
    Newton step on S (``_bordered``, ``_trials``) toward the maximum of Phi:

        [H + lam * diag(1 / q_S), 1; 1', 0] [d; nu] = [c_S; 0],
        H = A_S' diag(p / den**2) A_S,   lam = _LAM_MIN * max c,

    halved until Phi rises or, with Phi flat to roundoff, max c falls; a
    halving counts as an iteration. A step that drops letters moves the row
    minima m, so Phi is compared across it as sum_z p(z) (log den(z) + s
    m(z)). The loop also ends, uncertified, at _MAX_ITERS, when no halved
    step is accepted, or once a trial leaves Phi and max c unchanged to the last bit.

    The tilt (``_tilt``) is rebuilt from the shifted rows (``_shifted``)
    whenever S changes, so every entry on S stays in [0, 1] and den(z) >=
    q(argmin) > 0 for arbitrarily negative slopes; an accepted trial on a
    new support hands over the tilt it was ranked with. One product gives c
    on S and off it. The start's c comes from the caller: when the row
    minimum's letter has a tiny mass, c off the support overflows, which
    the caller's vectorized pass tolerates. With c_row None, for a start on
    every letter (``level_start``), the ascent computes it.
    """
    sup, out, q, rows = start
    if c_row is not None:
        c, c_out = c_row[sup], c_row[out].tolist()
    k, m = q.size, rows[0]
    a_all, a = _tilt(s, rows)
    den = a.dot(q)
    phi = float(pz.dot(np.log(den)))  # Phi at q, less sum_z p(z) s m(z)
    iters, systems = 1, {}
    while True:
        t = pz / den
        # up to ~64 letters Python's max over a list beats numpy's reduction
        if iters > 1 or c_row is None:
            c_all = t.dot(a_all)  # c on S, then off it
            cl = c_all.tolist()
            c, c_out, c_top = c_all[:k], cl[k:], max(cl[:k])
        else:
            c_top = max(c.tolist())
        back = max(c_out, default=0.0)
        if math.log(max(c_top, back)) <= gap_tol or iters >= _MAX_ITERS:
            break
        iters += 1
        if back > c_top:
            x = out.pop(c_out.index(back))
            q, sup, rows = _readmit(expected_f, pz, s, m, den, q, sup, out, x)
            k, m = q.size, rows[0]
            a_all, a = _tilt(s, rows)
            den = a.dot(q)
            phi = float(pz.dot(np.log(den)))
            continue
        # the system in u = d / q: [Q H Q + lam Q, q; q', 0] [u; nu] = [q c; 0];
        # no entry of Q H Q exceeds max c, so none overflows
        kkt, rhs = _bordered(systems, a * q, q, t, den, c_top, None)
        rhs[:-1] = q * c
        u = np.linalg.solve(kkt, rhs).tolist()[:-1]
        flat = _FLAT * (1.0 + abs(phi))
        trials = _trials(expected_f, sup, out, rows, q, u, 1.0, max(map(abs, u)), iters, _MAX_ITERS)
        for iters, _, q_new, sup_new, out_new, rows_new in trials:
            a_all_new, a_new = (a_all, a) if rows_new is rows else _tilt(s, rows_new)
            den_new = a_new.dot(q_new)
            phi_new = float(pz.dot(np.log(den_new)))
            rise = phi_new - phi
            if rows_new is not rows:
                rise += s * float(pz.dot(rows_new[0] - m))
            if rise > flat:
                break
            top = max((pz / den_new).dot(a_new).tolist()) if rise >= -flat else math.inf
            if top < c_top or (rise == 0.0 and top == c_top):
                break
        else:
            break  # no halved step raises Phi
        if rise == 0.0 and top == c_top:
            break  # Phi and max c unchanged to the last bit: no halving ranks the step
        q, a_all, a, den, phi = q_new, a_all_new, a_new, den_new, phi_new
        if rows_new is not rows:
            sup, out, rows = sup_new, out_new, rows_new
            k, m = q.size, rows[0]
    return iters, (sup, out, q, rows), float(pz.dot((a * rows[1]).dot(q) / den + m))


def level_start(expected_f, pz, s):
    """The start of ``level_newton``: a ``ba_fixed_slope_loop`` lane at s
    from the uniform pmf to the gap _START_GAP, climbed by ``_ascend`` alone
    with no end assembly. Returns (q, f, iters, start): the pmf over all
    letters, its distortion from the ascent's last tilt, the iteration
    count, and the pmf split on its support with its shifted rows, which
    ``level_newton`` takes over as it is."""
    n = expected_f.shape[1]
    sup = list(range(n))
    start = sup, [], np.full(n, 1.0 / n), _shifted(expected_f, sup, [])
    with np.errstate(under="ignore"):
        iters, start, f = _ascend(expected_f, pz, s, start, None, _START_GAP)
    q = np.zeros(n)
    q[start[0]] = start[2]
    return q, f, iters, start


def level_newton(expected_f, pz, s, start, level, tol_f):
    """Joint Newton iteration on (q, s) toward the curve's point at the
    transform-domain distortion ``level`` (below the zero-rate end hi), from
    the pmf of ``start`` (``level_start``'s split pmf, taken over with its
    support and shifted rows) at slope s < 0. The pmf may be solved at
    another slope near s, such as ``level_start``'s at -1/span, with s where
    the caller expects the level (``solver._newton_seed``): within a start's
    residual of the size _START_GAP the iteration is in its quadratic
    regime, so a tighter start buys nothing.

    On the support S of q it solves c_S = 1, sum q = 1 and f = level, with c
    the kernel's gradient and f = sum_z p(z) E[e | z] the distortion of the
    tilted conditional, by Newton steps on the symmetric bordered KKT system

        [H,  g,    1] [ dq  ]   [c_S - 1  ]
        [g', -f_s, 0] [-ds  ] = [level - f]
        [1', 0,    0] [-dnu ]   [0        ]

    H = A_S' diag(p / den**2) A_S is the ascent's Hessian, g = dc_S/ds =
    df/dq_S and f_s = df/ds = sum_z p(z) Var[e | z]: Phi is concave in q and
    convex in s, and the system is that of its saddle point, written with
    its first row and its last two unknowns negated, so that it is assembled
    with no negation. It is the ascent's system (``_bordered``) with a slope
    row, solved scaled, in u = dq / q and ds / |s|, and its step is the
    ascent's (``_trials``), kept when the scaled residual |q (c_S - 1)|**2 +
    (s (level - f))**2 does not grow. A miss of the level below min(tol_f,
    1e-14 |level|) is roundoff of f and counts as none, in the step and in
    its merit: scaled by |s| (~1e7 on losses flattened to a 1e-6 spread) it
    would outweigh the residual of c_S = 1 and stall the iteration short of
    its certificate. A dropped letter whose c exceeds every c on S returns
    (``_readmit``). The slope moves at most to 3 s, and at most halfway to
    the flattest slope known to lie above the level's: 0 at first, then any
    slope at which the best letter alone was optimal (f = hi there, and the
    next slope is twice as steep, which brings a letter back).

    A point's rows depend on S alone (``_shifted``), and each point
    (``_joint_point``) is evaluated once: the tilt exp(s (e - m)), den, c on
    S and off it, E[e | z], f and the residual q (c_S - 1), which serve the
    stop test, the step's merit test and the next system, and the last
    point's tilt its certificate. The deviations e - E[e | z] are formed
    only for a point that gets a step, and scaled by |s| before they are
    squared: unscaled, their squares overflow once the transform-domain
    spread passes ~1e154.

    It stops once a point meets gap <= _GAP_TOL over every letter and |f -
    level| <= tol_f, and gives up once it has evaluated _NEWTON_ITERS
    points, or when no step reduces the residual. Either way it returns (s,
    iters, point): the last slope, the number of points evaluated, and the
    point at s and the last pmf q, (q_cond, q_out, f, rate, gap) in
    ``ba_fixed_slope_loop``'s order, from which the caller reads whether it
    is certified and on the level. q_out, q_cond and f are the lanes' end
    assembly's at (s, q), bit for bit: q renormalized, and ``_conditional``
    on the last evaluation's tilt in the letters' order.
    The rate sum_z p(z) (s E[e - m | z] - log den(z)) - sum_S q c log c
    and the gap log max c over every letter take that evaluation's c, and
    match the assembly's to roundoff; where the tilt is capped off the support
    (s (e - m) >= _EXP_CAP at a dropped letter) the gap is the lanes'
    log-sum-exp (``_capped``).
    """
    sup, out, q, rows = start
    out = list(out)
    iters, s_top, systems = 1, 0.0, {}
    # a miss of the level below this is roundoff of f, which the slope's
    # scale |s| would otherwise blow up past the residual of c_S = 1
    noise = min(tol_f, _FLAT * abs(level))
    with np.errstate(under="ignore"):
        at = _joint_point(pz, s, rows, q)
        while True:
            a, den, t, cl, mean, f, res, res_sq, _ = at
            k = q.size
            c_top, back = max(cl[:k]), max(cl[k:], default=0.0)
            if iters >= _NEWTON_ITERS or (math.log(max(c_top, back)) <= _GAP_TOL
                                and abs(f - level) <= tol_f):
                break
            iters += 1
            if back > c_top:
                x = out.pop(cl.index(back, k) - k)
                q, sup, rows = _readmit(expected_f, pz, s, rows[0], den, q, sup, out, x)
                at = _joint_point(pz, s, rows, q)
                continue
            if k == 1:
                if f < level:
                    break  # the best letter alone is below the level only by roundoff
                s_top = s
                s *= _S_STEEPER
                at = _joint_point(pz, s, rows, q)
                continue
            r = -s
            b = a * q
            dev = rows[1] - mean[:, None]
            dev *= r  # |s| (e - E[e | z])
            bd = b * dev
            kkt, rhs = _bordered(systems, b, q, t, den, c_top, bd)
            bd *= dev
            kkt[k, k] = -sum(t.dot(bd).tolist())
            rhs[:k] = res
            rhs[k] = lag = r * (level - f) if abs(level - f) > noise else 0.0
            try:
                sol = np.linalg.solve(kkt, rhs).tolist()
            except np.linalg.LinAlgError:  # taken as an unbounded step
                sol = [math.inf] * (k + 2)
            ul, ds = sol[:k], -r * sol[k]
            size = max(max(map(abs, ul)), abs(ds) / r)
            if not size < math.inf:
                # f and c stand still in s here (saturated tilts): the slope
                # alone moves, toward the level
                s = s + _S_TOWARD_ZERO * (s_top - s) if f < level else _S_STEEPER * s
                at = _joint_point(pz, s, rows, q)
                continue
            merit = res_sq + lag * lag
            top = 1.0
            if ds > 0.0:
                top = min(top, _S_TOWARD_ZERO * (s_top - s) / ds)
            elif ds < 0.0:
                top = min(top, _S_STEEPER * r / -ds)
            trials = _trials(expected_f, sup, out, rows, q, ul, top, size, iters, _NEWTON_ITERS)
            for iters, alpha, q_new, sup_new, out_new, rows_new in trials:
                trial = _joint_point(pz, s + alpha * ds, rows_new, q_new)
                miss = level - trial[5]  # trial[5] is f, trial[7] |q (c_S - 1)|**2
                lag = r * miss if abs(miss) > noise else 0.0
                if trial[7] + lag * lag <= merit:
                    break
            else:
                break  # no step reduces the residual
            q, s, sup, out, rows, at = q_new, s + alpha * ds, sup_new, out_new, rows_new, trial
        # the last point in the letters' order, one lane of ``_tilted``'s
        # layout: its pmf renormalized and its den as a lane computes them,
        # and its tilt the last evaluation's, so that ``_conditional`` gives
        # a lane's conditional and distortion at (s, q), bit for bit
        q_out = np.zeros((1, expected_f.shape[1]))
        q_out[0, sup] = q
        q_out /= np.add.reduce(q_out, axis=1, keepdims=True)
        a = np.empty((1,) + expected_f.shape)
        a[0][:, sup + out] = at[8]
        m = rows[0][None]
        x = expected_f - m[:, :, None]
        den = np.matmul(a, q_out[:, :, None])[:, :, 0]
        q_cond, above, f = _conditional(pz, q_out, m, x, a, den)
        # the rate and the gap from the last evaluation's c, on S in Python
        # lists, which beat numpy on a few letters; a capped tilt takes the
        # lanes' log-sum-exp
        rate = float((s * above[0] - np.log(den[0])).dot(pz)) - sum(
            v * w * math.log(w) for v, w in zip(q.tolist(), cl[:q.size]) if w > 0.0)
        gap = math.log(max(cl))
        if np.maximum.reduce(a, axis=None, initial=0.0) >= _A_CAP or gap == math.inf:
            c = np.zeros_like(q_out)
            c[0, sup] = cl[:q.size]
            gap = _capped(pz, np.array([s]), q_out, x, den, c)[1].item()
    return s, iters, (q_cond[0], q_out[0], f.item(), rate, gap)


def _split(expected_f, q_row):
    """A start pmf over all letters split into its support (its positive
    letters), its dropped letters (those at 0, which may return), its pmf on
    the support, renormalized, and the support's shifted rows."""
    ql = np.asarray(q_row, dtype=float).tolist()
    out = [x for x, v in enumerate(ql) if v == 0.0]
    sup = [x for x, v in enumerate(ql) if v > 0.0]
    q = np.array([v for v in ql if v > 0.0])
    return sup, out, q / q.sum(), _shifted(expected_f, sup, out)


def _bordered(systems, b, q, t, den, c_top, bd):
    """The bordered Newton system on the support of the pmf q, and its
    right-hand side, kept in ``systems`` for each size: its H block is Q H
    Q, from b = A_S Q and t = p / den, plus the smallest damping _LAM_MIN
    max c times Q, which keeps it regular where H is rank-deficient
    (whenever |S| exceeds the number of rows); its last row and column
    border sum q = 1, and with bd (the joint iteration's b times the scaled
    deviations) the row and column before them hold g = t bd, the scaled
    dc_S/ds. The caller writes the rest."""
    k = q.size
    n = k + 1 if bd is None else k + 2
    if n not in systems:
        kkt = np.zeros((n, n))
        systems[n] = (kkt, np.zeros(n), kkt[:k, :k], kkt.reshape(-1)[: k * (n + 1): n + 1],
                      kkt[k:, :k], kkt[:k, k:])
    kkt, rhs, h, diag, rows, cols = systems[n]
    h[...] = (b.T * (t / den)).dot(b)
    diag += _LAM_MIN * c_top * q
    rows[-1] = q
    if bd is not None:
        np.dot(t, bd, out=rows[0])
    cols[...] = rows.T
    return kkt, rhs


def _trials(expected_f, sup, out, rows, q, u, alpha, size, count, cap):
    """The trial points of the step u = dq / q from the pmf q on the support
    sup, with dropped letters out and shifted rows ``rows``: q (1 + alpha u),
    renormalized, with alpha at most its given bound and the simplex
    boundary, then halved while alpha * size is at least 1e-15. The letters
    a trial reaches leave its support, and its rows are rebuilt. Yields
    (count, alpha, q, sup, out, rows) of each trial, built in Python lists,
    which beat numpy on a few letters; count is the caller's iteration count
    at the trial, a halving one more, up to cap."""
    reach = [-1.0 / v if v < 0.0 else math.inf for v in u]
    alpha = min(alpha, min(reach))
    ql = q.tolist()
    for count in range(count, cap + 1):
        q_new = [0.0 if w <= alpha else v * (1.0 + alpha * d) for v, d, w in zip(ql, u, reach)]
        total = sum(q_new)
        q_new = [v / total for v in q_new]
        if 0.0 not in q_new:
            yield count, alpha, np.array(q_new), sup, out, rows
        else:  # the letters the step reaches leave
            out_new = out + [x for x, v in zip(sup, q_new) if v == 0.0]
            sup_new = [x for x, v in zip(sup, q_new) if v > 0.0]
            q_sup = np.array([v for v in q_new if v > 0.0])
            yield count, alpha, q_sup, sup_new, out_new, _shifted(expected_f, sup_new, out_new)
        alpha *= 0.5
        if alpha * size < 1e-15:
            return


def _shifted(expected_f, sup, out):
    """The rows of a support sup and of its dropped letters out, shifted by
    the row minima m over sup: (m, e_S - m, x), with x the shifted rows of
    sup and then out, and e_S - m the view of its first |S| columns, also
    when no letter is out. They change only with the support."""
    x = expected_f[:, sup + out]
    e = x[:, :len(sup)]
    m = np.minimum.reduce(e, axis=1)
    x -= m[:, None]
    return m, e, x


def _tilt(s, rows):
    """The tilt exp(s x) of a support's shifted rows over all letters, its
    exponent capped at _EXP_CAP (so that c off the support stays finite; on
    the support s x <= 0, so the cap never binds there), and the view of its
    block on the support."""
    _, e, x = rows
    a = np.exp(np.minimum(s * x, _EXP_CAP))
    return a, a[:, :e.shape[1]]


def _joint_point(pz, s, rows, q):
    """At slope s and the pmf q on a support with shifted rows ``rows``
    (``_shifted``): the tilt of the support, den, t = pz / den, c on the
    support and then off it as a list, E[e | z] - m(z), the
    distortion f, the residual q (c - 1) of the conditions c_S = 1 with
    its squared norm, and the tilt over all letters (``_tilt``)."""
    m, e, _ = rows
    a_all, a = _tilt(s, rows)
    den = a.dot(q)
    t = pz / den
    c_all = t.dot(a_all)
    mean = (a * e).dot(q) / den  # E[e | z] - m(z)
    res = c_all[:q.size] - 1.0
    res *= q
    return (a, den, t, c_all.tolist(), mean, float(pz.dot(mean + m)), res, float(res.dot(res)),
            a_all)


_GAP_TOL = 1e-12     # nats: the Blahut duality gap that certifies a fixed point
_MAX_ITERS = 20000   # iterations of a fixed-point lane or a start climb
_NEWTON_ITERS = 40   # points a joint Newton iteration evaluates before it gives up
_START_GAP = 1e-2    # nats: the gap to which a joint Newton iteration's start is solved
_S_TOWARD_ZERO = 0.5  # of the way to the flattest slope known to be too flat
_S_STEEPER = 2.0      # times |s|


_FLAT = 1e-14        # a change of Phi below this (relative) is roundoff
_LAM_MIN = 1e-12     # times max c: the damping of every Newton system
_EXP_CAP = 300.0
_A_CAP = float(np.exp(_EXP_CAP))  # the capped tilt


def _readmit(expected_f, pz, s, m, den, q, sup, out, x):
    """Move mass w to dropped letter x: q <- (1 - w) q + w e_x. Returns the
    grown pmf and support, and the support's rows shifted anew
    (``_shifted``), with out the dropped letters left.

    Along the move Phi rises by psi(w) = sum_z p(z) log(1 + w r(z)), with
    r = A[:, x] / den - 1 >= -1 (capped so that r**2 stays finite). psi is
    concave and psi'(0) = c(x) - 1 > 0. With h = sum p r**2 the step
    w = psi'(0) / (psi'(0) + h) raises Phi, because log(1 + y) >= y - y**2 /
    (2 (1 - w)) for y >= -w. When one row dominates r that step can be tiny,
    so w then moves toward the maximizer of psi, up to 1/2, by bisection on
    log w that keeps psi' > 0 at w.
    """
    r = np.exp(np.minimum(s * (expected_f[:, x] - m) - np.log(den), _EXP_CAP)) - 1.0
    g = float(pz.dot(r))
    lo, hi = g / (g + float(pz.dot(r * r))), 0.5
    while 0.0 < 2.0 * lo < hi:
        mid = math.sqrt(lo * hi)
        if float(pz.dot(r / (1.0 + mid * r))) > 0.0:
            lo = mid
        else:
            hi = mid
    sup = sup + [x]
    return np.append((1.0 - lo) * q, lo), sup, _shifted(expected_f, sup, out)


def best_code_fold_loop(cost, M, total):
    """Scan all M**n_zseq encoder maps in lexicographic order.

    cost[j, k] is the criterion contribution of observation sequence j when
    its cell decodes to reconstruction sequence k. For a fixed encoder the
    cells decouple, so each cell takes its first-minimum column, and the
    encoder's value is the sum of its cells' minima. total must be M**n_zseq,
    the number of encoders scanned.

    An encoder's (M, n_dseq) table of cell sums is its prefix's table plus
    one cost row, added to the cell of its last digit. The tables of the
    leading digits are built once; a block then expands the trailing digits
    of a run of leading prefixes, at most ``_BLOCK`` floats (and at least
    one encoder), so an encoder costs about M * n_dseq adds, not the
    n_zseq * M * n_dseq of summing its cells afresh. Every cell sum still
    accumulates from 0.0 in observation-sequence order, and blocks run in
    lexicographic order: the first minimum within a block, and a strict
    ``<`` across blocks, keep the lexicographically smallest optimal code.
    """
    n_zseq, n_dseq = cost.shape
    if total != M**n_zseq:
        raise ValueError(f"total must be M**{n_zseq} = {M**n_zseq}, got {total}")
    # steps[j, v] adds cost row j to cell v: digit j of an encoder set to v
    steps = np.eye(M)[None, :, :, None] * cost[:, None, None, :]
    per_block = max(1, _BLOCK // (M * n_dseq))   # encoders
    n_tail = n_zseq
    while M**n_tail > per_block:
        n_tail -= 1
    width = M**n_tail                            # encoders per leading prefix
    run = max(1, per_block // width)             # leading prefixes per block
    tables = np.zeros((1, M, n_dseq))
    for j in range(n_zseq - n_tail):
        tables = (tables[:, None] + steps[j]).reshape(-1, M, n_dseq)
    best_val = np.inf
    best_idx = 0
    best_dec = np.zeros(M, np.int64)
    for start in range(0, len(tables), run):
        block = tables[start:start + run]
        for j in range(n_zseq - n_tail, n_zseq):
            block = (block[:, None] + steps[j]).reshape(-1, M, n_dseq)
        vals = block.min(axis=2).sum(axis=1)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_idx = start * width + i
            best_dec = block[i].argmin(axis=1).astype(np.int64)
    best_enc = np.array([best_idx // M**(n_zseq - 1 - j) % M for j in range(n_zseq)], np.int64)
    return best_val, best_enc, best_dec


_BLOCK = 2**15  # floats of cell sums in one scan block

BACKEND = "numpy"

"""Numerical inner loops, in numpy.

Two kernels dominate runtime: the slope fixed point of the reduced direct
problem (called thousands of times per curve) and the exhaustive encoder
scan of the brute-force code search. Each has one formulation.

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
"""

from __future__ import annotations

import math

import numpy as np


def ba_fixed_slope_loop(expected_f, pz, s, max_iters, gap_tol, q0=None):
    """Fixed point of q(xhat|z) ∝ q(xhat) exp(s * expected_f[z, xhat]).

    expected_f: (nz, nx) transform-domain distortion rows for used z only.
    pz: (nz,) strictly positive, sums to 1. s < 0.
    q0: (nx,) nonnegative start for the output pmf, or None for the uniform
    pmf. Its positive letters form the starting support, renormalized; its
    zero-mass letters start dropped and may return like any other.

    The output pmf q maximizes Phi(q) = sum_z p(z) log (A q)(z) on the
    simplex, with the tilt A[z, x] = exp(s * (e[z, x] - m[z])) and m[z] the
    row minimum over the support S (the letters with positive mass). Each
    iteration after a move first computes the gradient

        c(x) = sum_z p(z) A[z, x] / den(z),   den = A q,

    and stops once gap = max_x log c(x) <= gap_tol over every letter, so a
    start that is already certified costs one iteration. Otherwise a dropped
    letter with c > 1 returns (``_readmit``), or the iteration tries a damped
    Newton step on S:

        [H + lam * diag(1 / q_S), 1; 1', 0] [d; nu] = [c_S; 0],
        H = A_S' diag(p / den**2) A_S.

    lam -> 0 gives Newton's step, which converges quadratically; a large lam
    gives a short step along Cover's multiplicative update q <- q * c. The
    damping is needed because H is rank-deficient whenever |S| exceeds the
    number of rows. The step is accepted when Phi rises or, with Phi flat to
    roundoff, when max c falls; lam then shrinks. After a rejection lam
    grows and the next iteration tries again from the same q. A step that
    would leave the simplex stops at its boundary and drops the letters it
    reaches, the only way a letter leaves S; every dropped letter stays a
    candidate for return. The loop also ends, uncertified, at max_iters or
    when the damped step no longer changes q.

    The tilt is rebuilt whenever S changes, so every entry on S stays in
    [0, 1] and den(z) >= q(argmin) > 0 for arbitrarily negative slopes. The
    returned gap, over all letters, bounds the rate's excess over Blahut's
    lower bound on the curve.

    Returns (q_cond, q_out, f_dist, rate, iters, gap): q_out is the output
    pmf the gap certifies, q_cond its tilted conditional, and rate their
    mutual information in nats.
    """
    nz, nx = expected_f.shape
    out = []  # letters at 0, set there by a boundary step or by q0; they may return
    if q0 is None:
        sup = np.arange(nx)
        q = np.full(nx, 1.0 / nx)
    else:
        # on a few letters Python lists beat numpy's masks and reductions
        q0 = np.asarray(q0, dtype=float)
        ql = q0.tolist()
        if q0.shape != (nx,) or not min(ql) >= 0.0 or not max(ql) > 0.0:
            raise ValueError(f"q0 must be a nonnegative ({nx},) vector with positive mass")
        sup = [x for x, v in enumerate(ql) if v > 0.0]
        out = [x for x, v in enumerate(ql) if v == 0.0]
        q = q0[sup] / sum(ql)
        sup = np.array(sup)
    lam = _LAM_START
    iters = 0
    fresh = True  # q changed since c was last computed
    # exp of very negative exponents and products of tiny masses underflow to
    # 0 by design; overflow and invalid operations still follow the caller
    with np.errstate(under="ignore"):
        e, m, expo, a, a_out = _tilt(expected_f, sup, out, s)
        den = a.dot(q)
        while True:
            iters += 1
            if fresh:
                t = pz / den
                c = t.dot(a)
                # up to ~64 letters Python's max over a list beats numpy's reduction
                c_top = max(c.tolist())
                back = 0.0
                if out:
                    c_out = t.dot(a_out).tolist()
                    back = max(c_out)
                gap = math.log(max(c_top, back))
                if gap <= gap_tol or iters >= max_iters:
                    break
                if back > 1.0:
                    x = out.pop(c_out.index(back))
                    q, sup = _readmit(expected_f, pz, s, m, den, q, sup, x)
                    e, m, expo, a, a_out = _tilt(expected_f, sup, out, s)
                    den = a.dot(q)
                    continue
                phi = float(pz.dot(np.log(den)))
                # The system in u = d / q: [Q H Q + lam Q, q; q', 0] [u; nu] =
                # [q c; 0]. No entry of Q H Q exceeds max c, so none overflows.
                k = q.size
                b = a * q
                kkt = np.zeros((k + 1, k + 1))
                kkt[:k, :k] = (b * (t / den)[:, None]).T.dot(b)
                kkt[:k, k] = kkt[k, :k] = q
                diag = kkt.reshape(-1)[: k * (k + 2) : k + 2]  # view on the H block's diagonal
                qhq_diag = diag.copy()
                rhs = np.zeros(k + 1)
                rhs[:k] = q * c
                # damping below roundoff of H would leave the system singular
                lam = max(lam, _LAM_MIN * c_top)
            elif iters >= max_iters:
                break
            diag[:] = qhq_diag + lam * q
            u = np.linalg.solve(kkt, rhs)[:k]
            # go at most to the simplex boundary; the letters it reaches leave
            ul = u.tolist()
            reach = [-1.0 / v if v < 0.0 else math.inf for v in ul]
            alpha = min(1.0, min(reach))
            if alpha * max(map(abs, ul)) < 1e-15:
                break  # no step moves q any more
            q_new = q * (1.0 + alpha * u)
            for i, r in enumerate(reach):
                if r <= alpha:
                    q_new[i] = 0.0
            q_new /= sum(q_new.tolist())
            den_new = a.dot(q_new)
            fresh = False
            if min(den_new.tolist()) > 0.0:
                rise = float(pz.dot(np.log(den_new))) - phi
                flat = _FLAT * (1.0 + abs(phi))
                fresh = rise > flat or (
                    rise >= -flat and max((pz / den_new).dot(a).tolist()) < c_top
                )
            if not fresh:
                lam *= _LAM_GROW
                continue
            lam *= _LAM_SHRINK
            q, den = q_new, den_new
            if min(q.tolist()) <= 0.0:  # reached, or just past by roundoff
                keep = q > 0.0
                out.extend(sup[~keep].tolist())
                sup, q = sup[keep], q[keep] / q[keep].sum()
                e, m, expo, a, a_out = _tilt(expected_f, sup, out, s)
                den = a.dot(q)

        q_cond = a * (q / den[:, None])
        mix = q * c  # = pz @ q_cond
        log_c = np.log(c, out=np.zeros_like(c), where=c > 0.0)
        # I(Z; Xhat) = sum p q_cond log(q_cond / q) - mix . log(mix / q), mix / q = c
        rate = float(pz @ (q_cond * expo).sum(axis=1) - pz @ np.log(den)) - float(mix @ log_c)
        f_dist = float(pz @ (q_cond * e).sum(axis=1))
        if sup.size < nx:
            gap = max(gap, _off_support_gap(expected_f, sup, s, m, t))

    q_cond_full = np.zeros((nz, nx))
    q_cond_full[:, sup] = q_cond
    q_full = np.zeros(nx)
    q_full[sup] = q
    return q_cond_full, q_full, f_dist, rate, iters, gap


_FLAT = 1e-14        # a change of Phi below this (relative) is roundoff
_LAM_START = 0.01
_LAM_SHRINK = 0.1
_LAM_GROW = 10.0
_LAM_MIN = 1e-12     # times max c
_EXP_CAP = 300.0


def _tilt(expected_f, sup, out, s):
    """Support columns e, their row minima m, s * (e - m) and its exp, and
    the tilt of the dropped letters, capped so that c stays finite."""
    e = expected_f[:, sup]
    m = e.min(axis=1)
    expo = s * (e - m[:, None])
    a_out = None
    if out:
        a_out = np.exp(np.minimum(s * (expected_f[:, out] - m[:, None]), _EXP_CAP))
    return e, m, expo, np.exp(expo), a_out


def _off_support_gap(expected_f, sup, s, m, t):
    """max log c(x) over letters off the support, by log-sum-exp over z: their
    tilt relative to the support's row minimum may exceed exp(709)."""
    off = np.ones(expected_f.shape[1], dtype=bool)
    off[sup] = False
    log_terms = np.log(t)[:, None] + s * (expected_f[:, off] - m[:, None])
    top = log_terms.max(axis=0)
    return float((top + np.log(np.exp(log_terms - top).sum(axis=0))).max())


def _readmit(expected_f, pz, s, m, den, q, sup, x):
    """Move mass w to dropped letter x: q <- (1 - w) q + w e_x.

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
    return np.append((1.0 - lo) * q, lo), np.append(sup, x)


def best_code_fold_loop(cost, M, total):
    """Scan all M**n_zseq encoder maps in lexicographic order.

    cost[j, k] is the criterion contribution of observation sequence j when
    its cell decodes to reconstruction sequence k. For a fixed encoder the
    cells decouple, so each cell takes its first-minimum column; ties keep
    the lexicographically smallest code overall. Encoders are enumerated in
    chunks of ``_CHUNK`` to bound memory.
    """
    n_zseq, n_dseq = cost.shape
    place = M ** (n_zseq - 1 - np.arange(n_zseq, dtype=np.int64))
    best_val = np.inf
    best_enc = np.zeros(n_zseq, np.int64)
    best_dec = np.zeros(M, np.int64)
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        enc = (idx[:, None] // place[None, :]) % M          # (c, n_zseq)
        onehot = (enc[:, :, None] == np.arange(M)[None, None, :]).astype(float)
        group = np.einsum("cjw,jk->cwk", onehot, cost)       # (c, M, n_dseq)
        vals = group.min(axis=2).sum(axis=1)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_enc = enc[i].copy()
            best_dec = group[i].argmin(axis=1).astype(np.int64)
    return best_val, best_enc, best_dec


_CHUNK = 4096  # encoders per scan step

BACKEND = "numpy"

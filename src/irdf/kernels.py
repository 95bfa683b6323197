"""Numerical inner loops, in numpy.

Two kernels dominate runtime: the slope fixed point of the reduced direct
problem (called thousands of times per curve) and the exhaustive encoder
scan of the brute-force code search. Each has one formulation.

The fixed point is solved with Cover's multiplicative update (Cover 1984,
"An algorithm for maximizing expected log investment return"), which is
the Blahut-Arimoto iteration written on the output pmf alone, and it stops
on Blahut's duality gap (Blahut 1972, "Computation of channel capacity and
rate-distortion functions"), a certified bound in nats on the distance of
the returned rate from the curve at the returned distortion.
"""

from __future__ import annotations

import math

import numpy as np


def ba_fixed_slope_loop(expected_f, pz, s, max_iters, gap_tol, support_floor):
    """Fixed point of q(xhat|z) ∝ q(xhat) exp(s * expected_f[z, xhat]).

    expected_f: (nz, nx) transform-domain distortion rows for used z only.
    pz: (nz,) strictly positive, sums to 1. s < 0.

    With the tilt A[z, x] = exp(s * (e[z, x] - m[z])), m[z] the row minimum
    over the current support, each iteration computes

        c(x) = sum_z p(z) A[z, x] / sum_x' q(x') A[z, x']

    and stops once gap = max_x log c(x) <= gap_tol, taken over all letters;
    otherwise it sets q <- q * c. The gap bounds the returned rate's excess
    over Blahut's lower bound on the curve. A and m are built once per
    support: a letter whose mass falls to support_floor is pinned to 0
    and the tilt is rebuilt, so every entry on the support stays in [0, 1]
    and den(z) >= q(argmin) > 0 for arbitrarily negative slopes.

    Returns (q_cond, q_out, f_dist, rate_mi, rate_par, iters, gap): q_out is
    the certified output pmf, q_cond its tilted conditional, rates in nats.
    """
    nz, nx = expected_f.shape
    sup = np.arange(nx)
    q = np.full(nx, 1.0 / nx)
    iters = 0
    # exp of very negative exponents and products of tiny masses underflow to
    # 0 by design; overflow and invalid operations still follow the caller
    with np.errstate(under="ignore"):
        e, m, expo, a = _tilt(expected_f, sup, s)
        while True:
            iters += 1
            den = a.dot(q)
            t = pz / den
            c = t.dot(a)
            # up to ~64 letters Python's max/min over a list beat numpy's reductions
            gap = math.log(max(c.tolist()))
            if gap <= gap_tol or iters >= max_iters:
                break
            q *= c
            if min(q.tolist()) <= support_floor:
                keep = q > support_floor
                sup, q = sup[keep], q[keep]
                e, m, expo, a = _tilt(expected_f, sup, s)

        q_cond = a * (q / den[:, None])
        mix = q * c  # = pz @ q_cond
        log_c = np.log(c, out=np.zeros_like(c), where=c > 0.0)
        rate_par = float(pz @ (q_cond * expo).sum(axis=1) - pz @ np.log(den))
        rate_mi = rate_par - float(mix @ log_c)
        f_dist = float(pz @ (q_cond * e).sum(axis=1))
        if sup.size < nx:
            gap = max(gap, _off_support_gap(expected_f, sup, s, m, t))

    q_cond_full = np.zeros((nz, nx))
    q_cond_full[:, sup] = q_cond
    q_full = np.zeros(nx)
    q_full[sup] = q
    return q_cond_full, q_full, f_dist, rate_mi, rate_par, iters, gap


def _tilt(expected_f, sup, s):
    """Support columns e, their row minima m, s * (e - m) and its exp."""
    e = expected_f[:, sup]
    m = e.min(axis=1)
    expo = s * (e - m[:, None])
    return e, m, expo, np.exp(expo)


def _off_support_gap(expected_f, sup, s, m, t):
    """max log c(x) over letters pinned to 0, by log-sum-exp over z: their
    tilt relative to the support's row minimum may exceed exp(709)."""
    off = np.ones(expected_f.shape[1], dtype=bool)
    off[sup] = False
    log_terms = np.log(t)[:, None] + s * (expected_f[:, off] - m[:, None])
    top = log_terms.max(axis=0)
    return float((top + np.log(np.exp(log_terms - top).sum(axis=0))).max())


def best_code_fold_loop(cost, M, total, chunk=4096):
    """Scan all M**n_zseq encoder maps in lexicographic order.

    cost[j, k] is the criterion contribution of observation sequence j when
    its cell decodes to reconstruction sequence k. For a fixed encoder the
    cells decouple, so each cell takes its first-minimum column; ties keep
    the lexicographically smallest code overall. Encoders are enumerated in
    chunks of ``chunk`` to bound memory.
    """
    n_zseq, n_dseq = cost.shape
    place = M ** (n_zseq - 1 - np.arange(n_zseq, dtype=np.int64))
    best_val = np.inf
    best_enc = np.zeros(n_zseq, np.int64)
    best_dec = np.zeros(M, np.int64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
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


BACKEND = "numpy"

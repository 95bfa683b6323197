"""Accuracy certificate for a solved point: Blahut's lower bound.

For the reduced direct problem with transform-domain distortion e[z, xhat]
and observation pmf p(z), any slope s <= 0 and any output pmf q give
(Blahut 1972, "Computation of channel capacity and rate-distortion
functions", Theorem 2)

    R(D) >= s*D - sum_z p(z) log sum_xhat q(xhat) exp(s e[z, xhat])
               - max_xhat log c(xhat),
    c(xhat) = sum_z p(z) exp(s e[z, xhat]) / sum_x' q(x') exp(s e[z, x']).

The returned rate is achieved at the returned distortion, so
``rate - lower_bound`` bounds how far the point is from the true curve.
Everything here is computed from the point's public fields and
``build_amended``; the solver is not consulted.
"""

from __future__ import annotations

import numpy as np


def blahut_lower_bound(amended, pz, slope: float, q_out, f_distortion: float) -> float:
    """Lower bound, in nats, on the rate at transform-domain level f_distortion."""
    used = np.asarray(amended.used_z, dtype=bool)
    e = np.asarray(amended.expected_f, dtype=float)[used]
    w = np.asarray(pz, dtype=float)[used]
    w = w / w.sum()
    q = np.asarray(q_out, dtype=float)
    row_min = e.min(axis=1)
    a = np.exp(slope * (e - row_min[:, None]))  # rows scaled by exp(-s * row_min)
    den = a @ q
    c = (w / den) @ a
    log_den = np.log(den) + slope * row_min
    return float(slope * f_distortion - w @ log_den - np.log(c.max()))


def certificate_gap(amended, pz, point) -> float:
    """``point.rate`` minus Blahut's lower bound at the point's own level."""
    lb = blahut_lower_bound(amended, pz, point.slope, point.q_out, point.f_distortion)
    return float(point.rate - lb)

"""Host-speed reference for scaling measured times.

The benchmark shares its machine with others, and the same computation's
time swings by up to 2x over tens of seconds (a 20-point sweep, timed
back to back for 90 s on 2 CPUs, took between 71 and 162 ms). A fixed
reference loop, which imports nothing from irdf, is timed between
operations on the same CPU. Each raw time is multiplied by
REF_S / (reference time measured around it), so the reported figures follow
the program and not the host's momentary speed; a change to irdf moves
them exactly as it moves the raw times. Raw figures are printed alongside.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.0125  # reference time the scaled figures are expressed against
_E = np.linspace(0.05, 0.95, 16).reshape(4, 4)
_P = np.array([0.1, 0.2, 0.3, 0.4])


def _loop() -> float:
    q = np.full(4, 0.25)
    acc = 0.0
    for _ in range(1000):
        w = q * np.exp(-3.0 * _E)
        qc = w / w.sum(axis=1)[:, None]
        q = _P @ qc
        acc += float(q[0]) + sum(j * 0.5 for j in range(20))
    return acc


def reference() -> float:
    """Seconds for one run of the fixed reference loop."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0

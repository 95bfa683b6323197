"""Analytic reference curves for the two textbook observation channels.

Both models fix a fair-coin binary source with per-letter Hamming loss and
differ only in how the encoder observes it: through a symmetric bit-flipping
channel (crossover beta) or through an erasure channel (erasure rate delta).
Their curves are evaluated directly from formulas, no iteration, which makes
this module the independent oracle for the solver.

Rates are in nats; "one bit" appears as log 2 throughout.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .distortion import DistortionMatrix, _level
from .errors import DomainError
from .ftransform import FTransform
from .source import Alphabet, JointSource

LN2 = float(np.log(2.0))

_EDGE_SLACK = 1e-12


def binary_entropy(p):
    """Binary entropy in nats, with h(0) = h(1) = 0; scalar or array.
    DomainError outside [0, 1], NaN included."""
    arr = np.asarray(p, dtype=float)
    if not (np.all(arr >= -_EDGE_SLACK) and np.all(arr <= 1.0 + _EDGE_SLACK)):
        raise DomainError(f"binary entropy argument outside [0, 1]: {arr!r}")
    arr = np.clip(arr, 0.0, 1.0)
    out = np.zeros_like(arr)
    inner = (arr > 0.0) & (arr < 1.0)
    q = arr[inner]
    out[inner] = -q * np.log(q) - (1.0 - q) * np.log1p(-q)
    return float(out) if out.ndim == 0 else out


def binary_entropy_inverse(h: float) -> float:
    """Inverse of binary_entropy restricted to [0, 1/2], by bisection.
    DomainError outside [0, ln 2], NaN included."""
    if not -_EDGE_SLACK <= h <= LN2 + _EDGE_SLACK:
        raise DomainError(f"binary entropy value outside [0, ln 2]: {h!r}")
    h = min(max(h, 0.0), LN2)
    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) < h:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True, eq=False)
class BscModel:
    """Fair bit observed through a symmetric crossover channel."""

    beta: float
    f: FTransform = field(default_factory=FTransform.identity)

    def __post_init__(self):
        if not 0.0 <= self.beta < 0.5:
            raise ValueError(f"crossover must lie in [0, 1/2), got {self.beta}")

    def source(self) -> JointSource:
        b = self.beta
        return JointSource.from_prior_and_channel(
            (0.5, 0.5),
            [[1.0 - b, b], [b, 1.0 - b]],
            Alphabet(("0", "1")),
            Alphabet(("0", "1")),
        )

    def distortion(self) -> DistortionMatrix:
        return DistortionMatrix.hamming(2)


@dataclass(frozen=True, eq=False)
class BecModel:
    """Fair bit observed through an erasure channel (z in {0, e, 1})."""

    delta: float
    f: FTransform = field(default_factory=FTransform.identity)

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"erasure rate must lie in [0, 1], got {self.delta}")

    def source(self) -> JointSource:
        d = self.delta
        return JointSource.from_prior_and_channel(
            (0.5, 0.5),
            [[1.0 - d, d, 0.0], [0.0, d, 1.0 - d]],
            Alphabet(("0", "1")),
            Alphabet(("0", "e", "1")),
        )

    def distortion(self) -> DistortionMatrix:
        return DistortionMatrix.hamming(2)


def _endpoints(model) -> tuple[float, float]:
    """Transform-domain feasible span [lo, hi] for either model."""
    f = model.f
    f0, f1 = float(f.apply(0.0)), float(f.apply(1.0))
    if isinstance(model, BscModel):
        lo = (1.0 - model.beta) * f0 + model.beta * f1
    else:
        lo = (1.0 - model.delta / 2.0) * f0 + (model.delta / 2.0) * f1
    hi = 0.5 * (f0 + f1)
    return lo, hi


def domain_bounds(model) -> tuple[float, float]:
    """Raw-distortion span (d_min, d_max] on which the curve is defined."""
    lo, hi = _endpoints(model)
    return float(model.f.invert(lo)), float(model.f.invert(hi))


def _reported_level(model, D: float) -> tuple[float, float]:
    """The raw and transform-domain levels a row at raw level D reports:
    (D, f(D)), or the zero-rate end (d_max, hi) for a level past d_max, as
    the solver clamps it. DomainError for a NaN or negative D."""
    lo, hi = _endpoints(model)
    fd = _level(model.f, D)
    if fd > hi + _EDGE_SLACK * max(1.0, hi - lo):
        return float(model.f.invert(hi)), hi
    return D, fd


def _check_level(model, D: float) -> tuple[float, float, float] | None:
    """Common domain handling; None means the zero-rate region past d_max."""
    lo, hi = _endpoints(model)
    fd = _level(model.f, D)
    slack = _EDGE_SLACK * max(1.0, hi - lo)
    if fd < lo - slack:
        raise DomainError(
            f"distortion {D:g} below the feasible minimum {model.f.invert(lo):g}"
        )
    if fd > hi + slack:
        warnings.warn(
            f"distortion {D:g} beyond the zero-rate level {model.f.invert(hi):g}; rate is 0",
            stacklevel=3,
        )
        return None
    return fd, lo, hi


def bsc_irdf(model: BscModel, D: float) -> float:
    """Rate in nats at raw distortion D for the crossover model."""
    checked = _check_level(model, D)
    if checked is None:
        return 0.0
    fd, lo, hi = checked
    f0, f1 = float(model.f.apply(0.0)), float(model.f.apply(1.0))
    span = (1.0 - 2.0 * model.beta) * (f1 - f0)
    t = min(max((fd - lo) / span, 0.0), 1.0)
    return max(0.0, LN2 - binary_entropy(t))


def bec_irdf(model: BecModel, D: float) -> float:
    """Rate in nats at raw distortion D for the erasure model."""
    checked = _check_level(model, D)
    if checked is None:
        return 0.0
    fd, lo, hi = checked
    if model.delta == 1.0:
        return 0.0  # everything erased; the domain is the single point d_max
    f0, f1 = float(model.f.apply(0.0)), float(model.f.apply(1.0))
    span = (1.0 - model.delta) * (f1 - f0)
    t = min(max((fd - lo) / span, 0.0), 1.0)
    return max(0.0, (1.0 - model.delta) * (LN2 - binary_entropy(t)))


def bec_optimal_conditional(model: BecModel, D: float) -> tuple[np.ndarray, np.ndarray]:
    """Optimal q(xhat|z) (rows z = 0, e, 1) and output marginal for the
    erasure model at raw distortion D; DomainError outside the curve domain."""
    lo, hi = _endpoints(model)
    fd = _level(model.f, D)
    slack = _EDGE_SLACK * max(1.0, hi - lo)
    if fd < lo - slack or fd > hi + slack:
        raise DomainError(
            f"distortion {D:g} outside the feasible span "
            f"[{model.f.invert(lo):g}, {model.f.invert(hi):g}]"
        )
    if model.delta == 1.0:
        q = np.full((3, 2), 0.5)
        return q, np.array([0.5, 0.5])
    f0, f1 = float(model.f.apply(0.0)), float(model.f.apply(1.0))
    dlt = model.delta
    span = (1.0 - dlt) * (f1 - f0)
    keep = (f1 * (1.0 - dlt / 2.0) + (dlt / 2.0) * f0 - fd) / span
    keep = min(max(keep, 0.0), 1.0)
    flip = 1.0 - keep  # the complementary formula, kept exact so rows sum to 1
    q = np.array([[keep, flip], [0.5, 0.5], [flip, keep]])
    return q, np.array([0.5, 0.5])

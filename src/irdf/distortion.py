"""Per-letter distortion matrices, pooled block distortion, and the
single-letter reductions used by the curve solver.

The block penalty for a length-n reconstruction is the quasi-arithmetic mean
of the per-letter values under a transform f:

    pooled(x_1..n, xhat_1..n) = f^{-1}( (1/n) * sum_i f(d(x_i, xhat_i)) )

With the identity transform this is the ordinary arithmetic-mean distortion.
Because the encoder sees only the observation z, the solver works with the
conditional expectation of f(d) given z. ``build_amended`` produces this one
single-letter matrix, which carries the whole reduction:

    expected_f[z, xhat]    = E[ f(d(x, xhat)) | z ]

A raw level D is solved at the transform-domain level f(D) (``_level``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DomainError, EmptyInput, LengthMismatch, OutOfRange
from .ftransform import FTransform
from .source import JointSource

# margin below which a pooled-vs-mean comparison counts as an equality
SUBADD_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class DistortionMatrix:
    """Per-letter distortion d(x, xhat) >= 0 with a finite maximum."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 2:
            raise ValueError("distortion matrix must be 2-D")
        if not np.all(np.isfinite(vals)):
            raise ValueError("distortion entries must be finite")
        if vals.min() < 0.0:
            raise ValueError(f"distortion entries must be >= 0, got {vals.min():g}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @cached_property
    def d_max(self) -> float:
        return float(self.values.max())

    @property
    def n_source(self) -> int:
        return self.values.shape[0]

    @property
    def n_reconstruction(self) -> int:
        return self.values.shape[1]

    @classmethod
    def hamming(cls, n: int, m: int | None = None) -> "DistortionMatrix":
        m = n if m is None else m
        vals = np.ones((n, m)) - np.eye(n, m)
        return cls(vals)

    @classmethod
    def from_spec(cls, spec, n_source: int | None = None) -> "DistortionMatrix":
        """Parse 'hamming', a JSON fragment, a matrix, or a path to one."""
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, (list, tuple, np.ndarray)):
            return cls(np.array(spec, dtype=float))
        if isinstance(spec, (str, Path)):
            text = str(spec).strip()
            if Path(text).exists():
                spec = json.loads(Path(text).read_text())
            elif text.startswith(("{", "[")):
                spec = json.loads(text)
            else:
                spec = {"kind": text}
        if isinstance(spec, list):
            return cls(np.array(spec, dtype=float))
        if isinstance(spec, dict):
            if spec.get("kind") == "hamming":
                if n_source is None:
                    raise ValueError("hamming spec needs the source alphabet size")
                return cls.hamming(n_source, spec.get("m"))
            if "values" in spec:
                return cls(np.array(spec["values"], dtype=float))
        raise ValueError(f"cannot parse distortion spec {spec!r}")


@dataclass(frozen=True, eq=False)
class AmendedDistortions:
    """The single-letter reduction of one (source, d, f) triple."""

    f: FTransform
    expected_f: np.ndarray    # (|Z|, |Xhat|); rows with p(z)=0 zero-filled
    used_z: np.ndarray        # (|Z|,) bool


def _finite_f(f: FTransform, values: np.ndarray, pool=None) -> np.ndarray:
    """f(values), or pool(f(values)) (a mean, say); OutOfRange, with no
    RuntimeWarning on the way, when it is not finite: exponential at rho * d
    above ~709.78, say, or a sum of values near the largest double."""
    with np.errstate(over="ignore"):
        out = f.apply(values)
        if pool is not None:
            out = pool(out)
    if not np.isfinite(out).all():
        raise OutOfRange(f"{f.name()} overflows on the distortions, up to {np.max(values):g}")
    return out


def _level(f: FTransform, D: float) -> float:
    """f(D), the transform-domain level of a raw level D: +inf, with no
    RuntimeWarning, where f overflows (such a D lies above d_max).
    DomainError for a NaN D, and for a negative one, which lies below every
    distortion (the entries are >= 0) and where a transform may be undefined
    (sqrt gives NaN) or decreasing."""
    if math.isnan(D):
        raise DomainError("requested distortion is NaN")
    if D < 0.0:
        raise DomainError(f"requested distortion {D:g} is negative, below the feasible minimum")
    with np.errstate(over="ignore"):
        return float(f.apply(D))


def f_separable_n(f: FTransform, d: DistortionMatrix, xs, xhats) -> float:
    """Pooled distortion of two equal-length symbol-index sequences."""
    xs = np.asarray(xs, dtype=int)
    xhats = np.asarray(xhats, dtype=int)
    if xs.shape != xhats.shape or xs.ndim != 1 or xs.size < 1:
        raise LengthMismatch(f"sequence shapes {xs.shape} and {xhats.shape}")
    f.check_domain(d.d_max)
    return float(f.invert(_finite_f(f, d.values[xs, xhats], np.mean)))


def quasi_arithmetic_mean(f: FTransform, xis) -> float:
    """f^{-1} of the arithmetic mean of f-values.

    Symmetric, monotone in each coordinate, idempotent on constant tuples,
    and stable under replacing a subset of entries by their own mean.
    Raises ValueError for a NaN value and DomainError for a negative one,
    where a transform may be undefined (sqrt gives NaN) or decreasing.
    """
    arr = np.asarray(xis, dtype=float).ravel()
    if arr.size == 0:
        raise EmptyInput("quasi-arithmetic mean of an empty tuple")
    if np.isnan(arr).any():
        raise ValueError("quasi-arithmetic mean of a NaN value")
    if arr.min() < 0.0:
        raise DomainError(f"quasi-arithmetic mean of a negative value {arr.min():g}")
    return float(f.invert(_finite_f(f, arr, np.mean)))


@dataclass(frozen=True, eq=False)
class SubadditivityReport:
    all_passed: bool
    worst_margin: float      # min over trials of (arithmetic mean - pooled)
    worst_xs: np.ndarray
    worst_xhats: np.ndarray
    trials: int
    n: int


def is_subadditive_sample(
    f: FTransform,
    d: DistortionMatrix,
    trials: int,
    n: int,
    seed: int = 0,
) -> SubadditivityReport:
    """Randomized search for pooled distortion exceeding the arithmetic mean.

    Concave transforms can never fail this (the pooled value sits below the
    mean); convex ones generally do. Equalities are accepted with a small
    slack because constant tuples round-trip through f.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    f.check_domain(d.d_max)
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, d.n_source, size=(trials, n))
    xhats = rng.integers(0, d.n_reconstruction, size=(trials, n))
    letters = d.values[xs, xhats]
    pooled = f.invert(_finite_f(f, letters, lambda v: v.mean(axis=1)))
    margins = letters.mean(axis=1) - pooled
    worst = int(np.argmin(margins))
    return SubadditivityReport(
        all_passed=bool(margins[worst] >= -SUBADD_SLACK),
        worst_margin=float(margins[worst]),
        worst_xs=xs[worst].copy(),
        worst_xhats=xhats[worst].copy(),
        trials=trials,
        n=n,
    )


def build_amended(src: JointSource, d: DistortionMatrix, f: FTransform) -> AmendedDistortions:
    """Reduce a remote problem to its single-letter matrix E[f(d) | z].

    Rows of ``expected_f`` for unused observation symbols are zero, from the
    posterior's zero-filled columns; consumers must weight by p(z), which is
    zero there.
    """
    if d.n_source != src.x_alphabet.size:
        raise ValueError(
            f"distortion has {d.n_source} source rows, alphabet has {src.x_alphabet.size}"
        )
    f.check_domain(d.d_max)
    expected = src.posterior.T.dot(_finite_f(f, d.values))
    expected.setflags(write=False)
    return AmendedDistortions(f=f, expected_f=expected, used_z=src.used_z)

"""Per-letter distortion matrices, pooled block distortion, and the
single-letter reductions used by the curve solver.

The block penalty for a length-n reconstruction is the quasi-arithmetic mean
of the per-letter values under a transform f:

    pooled(x_1..n, xhat_1..n) = f^{-1}( (1/n) * sum_i f(d(x_i, xhat_i)) )

With the identity transform this is the ordinary arithmetic-mean distortion.
Because the encoder sees only the observation z, the solver works with the
conditional expectation of f(d) given z. ``build_amended`` produces the three
single-letter matrices that carry the whole reduction:

    per_letter_f[x, xhat]  = f(d(x, xhat))
    expected_f[z, xhat]    = E[ f(d(x, xhat)) | z ]
    equivalent[z, xhat]    = f^{-1}( expected_f[z, xhat] )

``equivalent`` is the certainty-equivalent per-letter distortion as seen from
the observation; applying f to it must reproduce ``expected_f`` up to
roundoff relative to the entry's size, which is checked at construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyInput, LengthMismatch
from .ftransform import FTransform
from .source import JointSource

# slack for the f(equivalent) == expected_f identity, relative to entries above 1
_AMEND_ATOL = 1e-10
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

    @property
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
    """Single-letter reduction matrices for one (source, d, f) triple."""

    f: FTransform
    per_letter_f: np.ndarray  # (|X|, |Xhat|)
    expected_f: np.ndarray    # (|Z|, |Xhat|); rows with p(z)=0 zero-filled
    equivalent: np.ndarray    # (|Z|, |Xhat|); rows with p(z)=0 zero-filled
    used_z: np.ndarray        # (|Z|,) bool


def f_separable_n(f: FTransform, d: DistortionMatrix, xs, xhats) -> float:
    """Pooled distortion of two equal-length symbol-index sequences."""
    xs = np.asarray(xs, dtype=int)
    xhats = np.asarray(xhats, dtype=int)
    if xs.shape != xhats.shape or xs.ndim != 1 or xs.size < 1:
        raise LengthMismatch(f"sequence shapes {xs.shape} and {xhats.shape}")
    f.check_strictly_increasing(d.d_max)
    letters = d.values[xs, xhats]
    return float(f.invert(np.mean(f.apply(letters))))


def quasi_arithmetic_mean(f: FTransform, xis) -> float:
    """f^{-1} of the arithmetic mean of f-values.

    Symmetric, monotone in each coordinate, idempotent on constant tuples,
    and stable under replacing a subset of entries by their own mean.
    """
    arr = np.asarray(xis, dtype=float).ravel()
    if arr.size == 0:
        raise EmptyInput("quasi-arithmetic mean of an empty tuple")
    return float(f.invert(np.mean(f.apply(arr))))


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
    f.check_strictly_increasing(d.d_max)
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, d.n_source, size=(trials, n))
    xhats = rng.integers(0, d.n_reconstruction, size=(trials, n))
    letters = d.values[xs, xhats]
    pooled = f.invert(f.apply(letters).mean(axis=1))
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
    """Reduce a remote problem to the three single-letter matrices.

    Rows of ``expected_f`` and ``equivalent`` for unused observation symbols
    are zero-filled; consumers must weight by p(z), which is zero there.
    """
    if d.n_source != src.x_alphabet.size:
        raise ValueError(
            f"distortion has {d.n_source} source rows, alphabet has {src.x_alphabet.size}"
        )
    f.check_strictly_increasing(d.d_max)
    per_letter = f.apply(d.values)
    expected = np.einsum("xz,xh->zh", src.posterior, per_letter)
    used = src.used_z
    expected[~used] = 0.0
    equivalent = np.zeros_like(expected)
    if used.any():
        equivalent[used] = f.invert(expected[used])
        drift = np.abs(f.apply(equivalent[used]) - expected[used])
        err = np.max(drift / np.maximum(1.0, np.abs(expected[used])))
        if err > _AMEND_ATOL:
            raise AssertionError(
                f"relative transform inverse drift {err:g} exceeds {_AMEND_ATOL:g}"
            )
    per_letter.setflags(write=False)
    expected.setflags(write=False)
    equivalent.setflags(write=False)
    return AmendedDistortions(
        f=f,
        per_letter_f=per_letter,
        expected_f=expected,
        equivalent=equivalent,
        used_z=used,
    )

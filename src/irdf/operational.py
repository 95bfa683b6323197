"""Desk-scale exhaustive evaluation of block codes for the remote source.

A block code maps observation sequences to an index and indices back to
reconstruction sequences. At the sizes handled here everything is computed
by exact enumeration of the product law, so distortion statistics and the
best-code search are free of sampling error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .distortion import DistortionMatrix
from .errors import TooLarge
from .ftransform import FTransform
from .source import JointSource

ENUM_CAP = 10**7


@dataclass(frozen=True, eq=False)
class BlockCode:
    """Encoder table over observation sequences, decoder table over indices."""

    n: int
    M: int
    encoder: np.ndarray  # (n_obs**n,) values in [0, M)
    decoder: np.ndarray  # (M, n) reconstruction symbol indices

    def __post_init__(self):
        enc = np.asarray(self.encoder, dtype=np.int64)
        dec = np.asarray(self.decoder, dtype=np.int64)
        if enc.ndim != 1:
            raise ValueError("encoder must be a flat table over observation sequences")
        if dec.shape != (self.M, self.n):
            raise ValueError(f"decoder shape {dec.shape}, expected {(self.M, self.n)}")
        if enc.min(initial=0) < 0 or enc.max(initial=0) >= self.M:
            raise ValueError("encoder indices out of range")
        object.__setattr__(self, "encoder", enc)
        object.__setattr__(self, "decoder", dec)


@dataclass(frozen=True, eq=False)
class CodeEvaluation:
    avg_distortion: float
    excess_prob: float
    threshold: float
    comparator: str


def _seq_digits(count: int, n: int, base: int) -> np.ndarray:
    """Digit table (count, n), most significant position first."""
    idx = np.arange(count, dtype=np.int64)
    place = base ** (n - 1 - np.arange(n, dtype=np.int64))
    return (idx[:, None] // place[None, :]) % base


def _seq_index(digits: np.ndarray, base: int) -> np.ndarray:
    n = digits.shape[-1]
    place = base ** (n - 1 - np.arange(n, dtype=np.int64))
    return digits @ place


def _product_pmf(joint: np.ndarray, n: int) -> np.ndarray:
    """p(x_1..n, z_1..n) as a (|X|**n, |Z|**n) matrix."""
    out = np.array([[1.0]])
    for _ in range(n):
        out = (out[:, None, :, None] * joint[None, :, None, :]).reshape(
            out.shape[0] * joint.shape[0], out.shape[1] * joint.shape[1]
        )
    return out


def _mean_f_table(d: DistortionMatrix, f: FTransform, n: int) -> np.ndarray:
    """(1/n) sum_i f(d(x_i, xhat_i)) for all sequence pairs, as a
    (|X|**n, |Xhat|**n) matrix."""
    fd = f.apply(d.values)
    acc = np.array([[0.0]])
    for _ in range(n):
        acc = (acc[:, None, :, None] + fd[None, :, None, :]).reshape(
            acc.shape[0] * fd.shape[0], acc.shape[1] * fd.shape[1]
        )
    return acc / n


def _check_exact_size(src: JointSource, d: DistortionMatrix, n: int) -> None:
    nx, nz = src.x_alphabet.size, src.z_alphabet.size
    nh = d.n_reconstruction
    if (nx**n) * (nz**n) > ENUM_CAP or (nx**n) * (nh**n) > ENUM_CAP:
        raise TooLarge(f"exact enumeration at n={n} exceeds {ENUM_CAP} joint sequences")


def _comparator_fn(comparator: str):
    if comparator == ">":
        return np.greater
    if comparator == ">=":
        return np.greater_equal
    raise ValueError(f"comparator must be '>' or '>=', got {comparator!r}")


def _check_code(src: JointSource, d: DistortionMatrix, code: BlockCode) -> None:
    """ValueError unless the code's tables fit the source and the distortion."""
    n_zseq = src.z_alphabet.size**code.n
    if code.encoder.size != n_zseq:
        raise ValueError(
            f"encoder has {code.encoder.size} entries, expected {n_zseq} observation sequences"
        )
    syms = code.decoder.ravel().tolist()  # Python's min/max beat numpy's on a few symbols
    if min(syms, default=0) < 0 or max(syms, default=0) >= d.n_reconstruction:
        raise ValueError(f"decoder symbols outside [0, {d.n_reconstruction})")


def _decoded_columns(code: BlockCode, n_xhat: int) -> np.ndarray:
    """Reconstruction-sequence index chosen for each observation sequence."""
    dec_idx = _seq_index(code.decoder, n_xhat)
    return dec_idx[code.encoder]


def evaluate_code(
    src: JointSource,
    d: DistortionMatrix,
    f: FTransform,
    code: BlockCode,
    threshold: float,
    comparator: str = ">",
) -> CodeEvaluation:
    """Average pooled distortion and exceedance probability of a code, by
    exact enumeration of the product law (TooLarge past the cap). Raises
    ValueError if the code does not fit the source or the distortion.
    """
    _check_code(src, d, code)
    f.check_strictly_increasing(d.d_max)
    cmp = _comparator_fn(comparator)
    _check_exact_size(src, d, code.n)
    pjoint = _product_pmf(src.joint, code.n)
    pooled = f.invert(_mean_f_table(d, f, code.n))
    vals = pooled[:, _decoded_columns(code, d.n_reconstruction)]  # aligned with pjoint
    return CodeEvaluation(
        avg_distortion=float((pjoint * vals).sum()),
        excess_prob=float((pjoint * cmp(vals, threshold)).sum()),
        threshold=float(threshold),
        comparator=comparator,
    )


@dataclass(frozen=True, eq=False)
class ExcessEquivalence:
    p_pooled: float   # P[pooled block distortion beyond D + gamma]
    p_mean: float     # P[transform-domain mean beyond f(D) + delta]
    equal: bool
    events_agree: bool


def excess_event_equivalence(
    src: JointSource,
    d: DistortionMatrix,
    f: FTransform,
    code: BlockCode,
    D: float,
    gamma: float,
    comparator: str = ">",
) -> ExcessEquivalence:
    """Check that the raw-domain excess event equals the transform-domain one.

    The pooled distortion exceeds D + gamma exactly when the transform-domain
    mean exceeds f(D) + delta with delta = f(D + gamma) - f(D); both
    probabilities are accumulated from the same exact enumeration. Raises
    ValueError if the code does not fit the source or the distortion.
    """
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    _check_code(src, d, code)
    f.check_strictly_increasing(d.d_max)
    delta = float(f.apply(D + gamma)) - float(f.apply(D))
    cmp = _comparator_fn(comparator)
    _check_exact_size(src, d, code.n)
    pjoint = _product_pmf(src.joint, code.n)
    means = _mean_f_table(d, f, code.n)
    pooled = f.invert(means)
    cols = _decoded_columns(code, d.n_reconstruction)
    ev_pooled = cmp(pooled[:, cols], D + gamma)
    ev_mean = cmp(means[:, cols], float(f.apply(D)) + delta)
    p1 = float((pjoint * ev_pooled).sum())
    p2 = float((pjoint * ev_mean).sum())
    return ExcessEquivalence(
        p_pooled=p1,
        p_mean=p2,
        equal=(p1 == p2),
        events_agree=bool((ev_pooled == ev_mean).all()),
    )


def best_code_search(
    src: JointSource,
    d: DistortionMatrix,
    f: FTransform,
    n: int,
    M: int,
    criterion: str = "average",
    threshold: float | None = None,
    comparator: str = ">",
) -> tuple[BlockCode, CodeEvaluation]:
    """Exhaustive best code of blocklength n with M indices.

    criterion 'average' minimizes expected pooled distortion; 'excess'
    minimizes the exceedance probability at the given threshold. The scan is
    exhaustive over encoders with exact per-cell decoder minimization, which
    returns the same optimum and the same lexicographically-first tie-break
    as scanning every (encoder, decoder) pair.
    """
    f.check_strictly_increasing(d.d_max)
    nz, nh = src.z_alphabet.size, d.n_reconstruction
    n_zseq, n_dseq = nz**n, nh**n
    conceptual = (M**n_zseq) * (nh ** (n * M))
    if conceptual > ENUM_CAP:
        raise TooLarge(f"code space size {conceptual} exceeds {ENUM_CAP}")
    _check_exact_size(src, d, n)

    pjoint = _product_pmf(src.joint, n)
    means = _mean_f_table(d, f, n)
    pooled = f.invert(means)
    if criterion == "average":
        weight = pooled
    elif criterion == "excess":
        if threshold is None:
            raise ValueError("excess criterion needs a threshold")
        weight = _comparator_fn(comparator)(pooled, threshold).astype(float)
    else:
        raise ValueError(f"criterion must be 'average' or 'excess', got {criterion!r}")
    cost = pjoint.T @ weight  # (n_zseq, n_dseq)

    best_val, best_enc, best_dec = kernels.best_code_fold_loop(cost, M, M**n_zseq)
    decoder = _seq_digits(n_dseq, n, nh)[best_dec]
    code = BlockCode(n=n, M=M, encoder=best_enc, decoder=decoder)
    thr = d.d_max + 1.0 if threshold is None else threshold
    evaluation = evaluate_code(src, d, f, code, thr, comparator=comparator)
    return code, evaluation


@dataclass(frozen=True, eq=False)
class BoundReport:
    delta: float                 # analytic supremum of the pooled distortion
    sup_by_n: dict[int, float]   # enumerated suprema for small n
    holds: bool                  # every enumerated supremum <= delta (+slack)


def boundedness_check(d: DistortionMatrix, f: FTransform, n_max: int) -> BoundReport:
    """Verify the pooled distortion stays below the per-letter maximum.

    Idempotency of the transform-domain mean pins the supremum at d_max for
    every blocklength; small n are enumerated outright as a cross-check.
    """
    f.check_strictly_increasing(d.d_max)
    delta = d.d_max
    sup_by_n: dict[int, float] = {}
    size = d.n_source * d.n_reconstruction
    for n in range(1, n_max + 1):
        if size**n > 10**6:
            break
        sup_by_n[n] = float(f.invert(_mean_f_table(d, f, n)).max())
    holds = all(v <= delta + 1e-12 for v in sup_by_n.values())
    return BoundReport(delta=delta, sup_by_n=sup_by_n, holds=holds)

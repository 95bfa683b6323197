"""Desk-scale exhaustive evaluation of block codes for the remote source.

A block code maps observation sequences to an index and indices back to
reconstruction sequences. At the sizes handled here everything is computed
by exact enumeration of the product law, so distortion statistics and the
best-code search are free of sampling error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .distortion import DistortionMatrix, _finite_f, _level
from .errors import TooLarge
from .ftransform import FTransform
from .source import JointSource

ENUM_CAP = 10**7


def _check_block(n: int, M: int) -> None:
    """ValueError unless the blocklength n and the index count M are >= 1."""
    if n < 1 or M < 1:
        raise ValueError(f"blocklength n and index count M must be >= 1, got n={n}, M={M}")


@dataclass(frozen=True, eq=False)
class BlockCode:
    """Encoder table over observation sequences, decoder table over indices."""

    n: int
    M: int
    encoder: np.ndarray  # (n_obs**n,) values in [0, M)
    decoder: np.ndarray  # (M, n) reconstruction symbol indices

    def __post_init__(self):
        _check_block(self.n, self.M)
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


def _seq_digits(idx: np.ndarray, n: int, base: int) -> np.ndarray:
    """Digits (len(idx), n) of sequence indices, most significant position first."""
    place = base ** (n - 1 - np.arange(n, dtype=np.int64))
    return (idx[:, None] // place[None, :]) % base


def _seq_index(digits: np.ndarray, base: int) -> np.ndarray:
    n = digits.shape[-1]
    place = base ** (n - 1 - np.arange(n, dtype=np.int64))
    return digits @ place


def _product_pmf(joint: np.ndarray, n: int) -> np.ndarray:
    """p(x_1..n, z_1..n) as a (|X|**n, |Z|**n) matrix."""
    out = joint
    for _ in range(n - 1):
        out = (out[:, None, :, None] * joint[None, :, None, :]).reshape(
            out.shape[0] * joint.shape[0], out.shape[1] * joint.shape[1]
        )
    return out


def _mean_f_table(d: DistortionMatrix, f: FTransform, n: int) -> np.ndarray:
    """(1/n) sum_i f(d(x_i, xhat_i)) for all sequence pairs, as a
    (|X|**n, |Xhat|**n) matrix. OutOfRange, with no RuntimeWarning, when f
    or a sum of n of its values overflows on the losses."""

    def block_mean(fd):
        acc = fd + 0.0  # a -0.0 entry (sqrt of a -0.0 loss) sums as 0.0
        for _ in range(n - 1):
            acc = (acc[:, None, :, None] + fd[None, :, None, :]).reshape(
                acc.shape[0] * fd.shape[0], acc.shape[1] * fd.shape[1]
            )
        return acc / n

    return _finite_f(f, d.values, block_mean)


def _block_tables(
    src: JointSource, d: DistortionMatrix, f: FTransform, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tables every exact evaluation at blocklength n reads: the product
    pmf (|X|**n, |Z|**n), the transform-domain means and the pooled
    distortions (both (|X|**n, |Xhat|**n)). Raises OutOfRange unless f covers
    [0, d_max] and the means are finite, and TooLarge past the enumeration
    cap.
    """
    f.check_domain(d.d_max)
    nx, nz = src.x_alphabet.size, src.z_alphabet.size
    nh = d.n_reconstruction
    if (nx**n) * (nz**n) > ENUM_CAP or (nx**n) * (nh**n) > ENUM_CAP:
        raise TooLarge(f"exact enumeration at n={n} exceeds {ENUM_CAP} joint sequences")
    means = _mean_f_table(d, f, n)
    return _product_pmf(src.joint, n), means, f.invert(means)


def _comparator_fn(comparator: str):
    if comparator == ">":
        return np.greater
    if comparator == ">=":
        return np.greater_equal
    raise ValueError(f"comparator must be '>' or '>=', got {comparator!r}")


def _check_threshold(threshold: float) -> None:
    """ValueError for a NaN threshold, which every comparison would call
    never exceeded."""
    if math.isnan(threshold):
        raise ValueError("threshold must be a number, got NaN")


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


def _score(
    pjoint: np.ndarray, vals: np.ndarray, threshold: float, comparator: str
) -> CodeEvaluation:
    """Evaluation of a code from its pooled distortions vals, aligned with pjoint."""
    exceeds = _comparator_fn(comparator)(vals, threshold)
    return CodeEvaluation(
        avg_distortion=float((pjoint * vals).sum()),
        excess_prob=float((pjoint * exceeds).sum()),
        threshold=float(threshold),
        comparator=comparator,
    )


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
    ValueError if the code does not fit the source or the distortion, or for
    a NaN threshold.
    """
    _check_code(src, d, code)
    _check_threshold(threshold)
    _comparator_fn(comparator)  # an unknown comparator fails before the tables are built
    pjoint, _, pooled = _block_tables(src, d, f, code.n)
    return _score(pjoint, pooled[:, _decoded_columns(code, d.n_reconstruction)],
                  threshold, comparator)


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
    ValueError if the code does not fit the source or the distortion, or for
    a NaN D or gamma, and DomainError for a negative D, below every
    distortion, where a transform may be undefined.
    """
    if math.isnan(D):
        raise ValueError("D must be a number, got NaN")
    if not gamma > 0:  # written so that NaN fails
        raise ValueError(f"gamma must be > 0, got {gamma}")
    _check_code(src, d, code)
    cmp = _comparator_fn(comparator)
    # inf where f overflows, above every finite mean
    f_D, f_Dg = _level(f, D), _level(f, D + gamma)
    pjoint, means, pooled = _block_tables(src, d, f, code.n)
    delta = f_Dg - f_D  # NaN when both are inf: no mean exceeds f_D + delta
    cols = _decoded_columns(code, d.n_reconstruction)
    ev_pooled = cmp(pooled[:, cols], D + gamma)
    ev_mean = cmp(means[:, cols], f_D + delta)
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
    as scanning every (encoder, decoder) pair. The returned evaluation, at
    the threshold or at d_max + 1 without one, is scored from the tables the
    search built and equals ``evaluate_code`` on the returned code bit for
    bit. Raises ValueError for n < 1, M < 1, an unknown criterion or
    comparator, or a missing or NaN threshold, before the size cap, the
    tables and the scan.
    """
    _check_block(n, M)
    if criterion not in ("average", "excess"):
        raise ValueError(f"criterion must be 'average' or 'excess', got {criterion!r}")
    if threshold is None:
        if criterion == "excess":
            raise ValueError("excess criterion needs a threshold")
    else:
        _check_threshold(threshold)
    exceeds = _comparator_fn(comparator)
    nz, nh = src.z_alphabet.size, d.n_reconstruction
    n_zseq = nz**n
    conceptual = (M**n_zseq) * (nh ** (n * M))
    if conceptual > ENUM_CAP:
        raise TooLarge(f"code space size {conceptual} exceeds {ENUM_CAP}")

    pjoint, _, pooled = _block_tables(src, d, f, n)
    if criterion == "average":
        weight = pooled
    else:
        weight = exceeds(pooled, threshold).astype(float)
    cost = pjoint.T @ weight  # (n_zseq, n_dseq)

    _, best_enc, best_dec = kernels.best_code_fold_loop(cost, M, M**n_zseq)
    code = BlockCode(n=n, M=M, encoder=best_enc, decoder=_seq_digits(best_dec, n, nh))
    # best_dec holds each index's reconstruction-sequence index, so these are
    # the columns _decoded_columns gives for the code
    vals = pooled[:, best_dec[best_enc]]
    thr = d.d_max + 1.0 if threshold is None else threshold
    return code, _score(pjoint, vals, thr, comparator)

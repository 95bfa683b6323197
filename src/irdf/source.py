"""Finite-alphabet memoryless remote sources.

A remote source is a letter pair (x, z): x is the hidden letter the fidelity
criterion cares about, z is the letter the encoder actually observes.
Everything downstream needs only the joint pmf p(x, z) and its derived
marginals and posterior, so this module owns that bookkeeping.

Observation symbols with p(z) = 0 are kept in the alphabet but flagged via
``used_z``; their posterior columns are zero-filled and must never enter an
expectation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import NegativeProbability, NonStochastic

# input validation slack on probability sums; values are renormalized after
PROB_ATOL = 1e-9
_NEG_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class Alphabet:
    """Ordered, distinct symbol labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        if len(self.labels) < 1:
            raise ValueError("alphabet needs at least one symbol")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate symbols in alphabet: {self.labels}")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        return self.labels.index(str(label))

    @classmethod
    def of_size(cls, n: int, prefix: str = "") -> "Alphabet":
        return cls(tuple(f"{prefix}{i}" for i in range(n)))


def _clean_probs(arr: np.ndarray, what: str) -> np.ndarray:
    """Reject non-finite and genuinely negative entries, zero out float dust."""
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} has a non-finite entry")
    if arr.min(initial=0.0) < -_NEG_ATOL:
        raise NegativeProbability(f"{what} has negative entry {arr.min():g}")
    return np.clip(arr, 0.0, None)


@dataclass(frozen=True, eq=False)
class JointSource:
    """Joint pmf p(x, z) over finite alphabets, with cached marginals.

    Immutable after construction; all derived quantities are pure functions
    of ``joint``, so instances are safe to share across threads.
    """

    x_alphabet: Alphabet
    z_alphabet: Alphabet
    joint: np.ndarray  # shape (|X|, |Z|), renormalized to total mass 1

    def __post_init__(self):
        joint = np.array(self.joint, dtype=float)
        expect = (self.x_alphabet.size, self.z_alphabet.size)
        if joint.shape != expect:
            raise ValueError(f"joint pmf shape {joint.shape}, expected {expect}")
        joint = _clean_probs(joint, "joint pmf")
        total = joint.sum()
        if abs(total - 1.0) > PROB_ATOL:
            raise NonStochastic(f"joint pmf sums to {total!r}, expected 1")
        joint = joint / total
        joint.setflags(write=False)
        object.__setattr__(self, "joint", joint)

    @classmethod
    def from_prior_and_channel(
        cls,
        prior,
        channel,
        x_alphabet: Alphabet | None = None,
        z_alphabet: Alphabet | None = None,
    ) -> "JointSource":
        """Build p(x, z) = p(x) p(z|x) from a prior vector and a row-stochastic channel."""
        prior = _clean_probs(np.array(prior, dtype=float), "prior")
        channel = _clean_probs(np.array(channel, dtype=float), "channel")
        if channel.ndim != 2 or channel.shape[0] != prior.shape[0]:
            raise ValueError(
                f"channel shape {channel.shape} incompatible with prior of length {prior.shape[0]}"
            )
        if abs(prior.sum() - 1.0) > PROB_ATOL:
            raise NonStochastic(f"prior sums to {prior.sum()!r}, expected 1")
        row_sums = channel.sum(axis=1)
        bad = np.abs(row_sums - 1.0) > PROB_ATOL
        if bad.any():
            raise NonStochastic(
                f"channel rows {np.flatnonzero(bad).tolist()} sum to {row_sums[bad].tolist()}"
            )
        joint = (prior / prior.sum())[:, None] * (channel / row_sums[:, None])
        nx, nz = joint.shape
        return cls(
            x_alphabet or Alphabet.of_size(nx, "x"),
            z_alphabet or Alphabet.of_size(nz, "z"),
            joint,
        )

    @classmethod
    def from_joint(
        cls,
        joint,
        x_alphabet: Alphabet | None = None,
        z_alphabet: Alphabet | None = None,
    ) -> "JointSource":
        joint = np.array(joint, dtype=float)
        if joint.ndim != 2:
            raise ValueError("joint pmf must be a 2-D matrix")
        nx, nz = joint.shape
        return cls(
            x_alphabet or Alphabet.of_size(nx, "x"),
            z_alphabet or Alphabet.of_size(nz, "z"),
            joint,
        )

    @cached_property
    def x_marginal(self) -> np.ndarray:
        v = self.joint.sum(axis=1)
        v.setflags(write=False)
        return v

    @cached_property
    def z_marginal(self) -> np.ndarray:
        v = self.joint.sum(axis=0)
        v.setflags(write=False)
        return v

    @cached_property
    def used_z(self) -> np.ndarray:
        """Mask of observation symbols with positive probability."""
        m = self.z_marginal > 0.0
        m.setflags(write=False)
        return m

    @cached_property
    def posterior(self) -> np.ndarray:
        """p(x|z) with columns indexed by z; p(z)=0 columns are zero-filled.

        Zero-probability columns are deliberately not fabricated: consult
        ``used_z`` before reading a column.
        """
        post = np.zeros_like(self.joint)
        cols = self.used_z
        post[:, cols] = self.joint[:, cols] / self.z_marginal[cols]
        post.setflags(write=False)
        return post


def load_source(spec) -> JointSource:
    """Build a JointSource from a dict, a JSON string, or a path to a JSON file.

    Schema: {"x_alphabet": [...], "z_alphabet": [...]} together with exactly
    one of {"prior": [...], "channel": [[...]]} or {"joint": [[...]]}.
    """
    if isinstance(spec, (str, Path)):
        text = Path(spec).read_text() if Path(str(spec)).exists() else str(spec)
        spec = json.loads(text)
    if not isinstance(spec, dict):
        raise ValueError("source spec must be a JSON object")

    x_alpha = Alphabet(tuple(spec["x_alphabet"])) if "x_alphabet" in spec else None
    z_alpha = Alphabet(tuple(spec["z_alphabet"])) if "z_alphabet" in spec else None

    has_joint = "joint" in spec
    has_pc = "prior" in spec or "channel" in spec
    if has_joint and has_pc:
        raise ValueError("source spec must give either joint or prior+channel, not both")
    if has_joint:
        return JointSource.from_joint(spec["joint"], x_alpha, z_alpha)
    if "prior" in spec and "channel" in spec:
        return JointSource.from_prior_and_channel(spec["prior"], spec["channel"], x_alpha, z_alpha)
    raise ValueError("source spec needs a joint matrix or a prior and a channel")

"""Strictly increasing transforms of per-letter distortion and their inverses.

Block distortion in this package is always a transform-domain mean mapped
back to raw units, so every transform must come with a genuine inverse.
Parametric kinds invert in closed form; tabulated transforms interpolate
piecewise-linearly, and the inverse of that map is the piecewise-linear
interpolation of the swapped table.

A transform may take negative values (the shifted cubic does at 0); nothing
here clamps. Every kind is strictly increasing by construction: power needs
p > 0, exponential needs rho > 0, and a tabulated table must increase
strictly in both columns; every parameter and table entry must be finite.
What remains to check per problem is that a tabulated table covers the
distortions it is applied to.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import MonotonicityError, OutOfRange

KINDS = ("identity", "power", "sqrt", "shifted_cubic", "exponential", "tabulated")
# the one parameter of each parametric kind, by name
_PARAMS = {"power": "p", "shifted_cubic": "a", "exponential": "rho", "tabulated": "points"}

_RANGE_SLACK = 1e-12


def _as_array(x) -> tuple[np.ndarray, bool]:
    """x as a float array and whether it was a scalar. A scalar becomes one
    element: numpy's scalar ``**`` can round an ulp away from its array loop,
    and a value should get the same bits alone as inside an array."""
    arr = np.asarray(x, dtype=float)
    return (arr.reshape(1), True) if arr.ndim == 0 else (arr, False)


@dataclass(frozen=True, eq=False)
class FTransform:
    """One member of the supported transform families.

    kind/parameter pairs: power needs p > 0, shifted_cubic needs a,
    exponential needs rho > 0, tabulated needs a strictly increasing
    (xi, f(xi)) table, all finite. identity and sqrt take no parameters.
    """

    kind: str
    p: float | None = None
    a: float | None = None
    rho: float | None = None
    points: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown transform kind {self.kind!r}")
        # written so that NaN fails each test
        if self.kind == "power":
            if self.p is None or not 0.0 < self.p < math.inf:
                raise ValueError(f"power transform needs a finite p > 0, got {self.p}")
        if self.kind == "shifted_cubic":
            if self.a is None or not math.isfinite(self.a):
                raise ValueError(f"shifted_cubic transform needs a finite shift a, got {self.a}")
        if self.kind == "exponential":
            if self.rho is None or not 0.0 < self.rho < math.inf:
                raise ValueError(f"exponential transform needs a finite rho > 0, got {self.rho}")
        if self.kind == "tabulated":
            pts = np.array(self.points, dtype=float)
            if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
                raise ValueError("tabulated transform needs at least two (xi, y) rows")
            if not np.isfinite(pts).all():
                raise ValueError("tabulated transform needs finite (xi, y) rows")
            if np.any(np.diff(pts[:, 0]) <= 0) or np.any(np.diff(pts[:, 1]) <= 0):
                raise MonotonicityError("tabulated transform must be strictly increasing")
            pts.setflags(write=False)
            object.__setattr__(self, "points", pts)

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls) -> "FTransform":
        return cls("identity")

    @classmethod
    def power(cls, p: float) -> "FTransform":
        return cls("power", p=float(p))

    @classmethod
    def sqrt(cls) -> "FTransform":
        return cls("sqrt")

    @classmethod
    def shifted_cubic(cls, a: float) -> "FTransform":
        return cls("shifted_cubic", a=float(a))

    @classmethod
    def exponential(cls, rho: float) -> "FTransform":
        return cls("exponential", rho=float(rho))

    @classmethod
    def tabulated(cls, points) -> "FTransform":
        return cls("tabulated", points=points)

    @classmethod
    def from_spec(cls, spec) -> "FTransform":
        """Parse {"kind": ...} JSON fragments (dict or JSON text)."""
        if isinstance(spec, str):
            stripped = spec.strip()
            if stripped.startswith("{"):
                spec = json.loads(stripped)
            else:
                spec = {"kind": stripped}
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ValueError(f"transform spec needs a 'kind': {spec!r}")
        kind = spec["kind"]
        if kind not in KINDS:
            raise ValueError(f"unknown transform kind {kind!r}")
        param = _PARAMS.get(kind)
        if param is None:
            return cls(kind)
        if param not in spec:
            raise ValueError(f"{kind} transform spec needs {param!r}")
        return getattr(cls, kind)(spec[param])

    def to_spec(self) -> dict:
        param = _PARAMS.get(self.kind)
        if param is None:
            return {"kind": self.kind}
        value = getattr(self, param)
        return {"kind": self.kind, param: value.tolist() if param == "points" else value}

    # -- application -------------------------------------------------------

    def apply(self, xi):
        """f(xi) for scalars or arrays of nonnegative raw distortion values."""
        arr, scalar = _as_array(xi)
        if self.kind == "identity":
            out = arr + 0.0
        elif self.kind == "power":
            out = arr ** self.p
        elif self.kind == "sqrt":
            out = np.sqrt(arr)
        elif self.kind == "shifted_cubic":
            out = (arr - self.a) ** 3
        elif self.kind == "exponential":
            out = np.exp(self.rho * arr)
        else:
            xs, ys = self.points[:, 0], self.points[:, 1]
            if (arr < xs[0] - _RANGE_SLACK).any() or (arr > xs[-1] + _RANGE_SLACK).any():
                raise OutOfRange(
                    f"tabulated transform queried outside [{xs[0]:g}, {xs[-1]:g}]"
                )
            out = np.interp(np.clip(arr, xs[0], xs[-1]), xs, ys)
        return float(out[0]) if scalar else out

    def invert(self, y):
        """f^{-1}(y); raises OutOfRange when y cannot be a transform value."""
        arr, scalar = _as_array(y)
        if self.kind == "identity":
            out = arr + 0.0
        elif self.kind == "power":
            if (arr < -_RANGE_SLACK).any():
                raise OutOfRange("power transform values are nonnegative")
            out = np.maximum(arr, 0.0) ** (1.0 / self.p)
        elif self.kind == "sqrt":
            if (arr < -_RANGE_SLACK).any():
                raise OutOfRange("sqrt transform values are nonnegative")
            out = np.maximum(arr, 0.0) ** 2
        elif self.kind == "shifted_cubic":
            out = np.cbrt(arr) + self.a
        elif self.kind == "exponential":
            if (arr <= 0.0).any():
                raise OutOfRange("exponential transform values are positive")
            out = np.log(arr) / self.rho
        else:
            out = self._invert_tabulated(arr)
        return float(out[0]) if scalar else out

    def _invert_tabulated(self, arr: np.ndarray) -> np.ndarray:
        xs, ys = self.points[:, 0], self.points[:, 1]
        if (arr < ys[0] - _RANGE_SLACK).any() or (arr > ys[-1] + _RANGE_SLACK).any():
            raise OutOfRange(f"value outside tabulated range [{ys[0]:g}, {ys[-1]:g}]")
        return np.interp(arr, ys, xs)

    # -- admissibility -----------------------------------------------------

    def check_domain(self, d_max: float) -> None:
        """Raise OutOfRange unless f is defined on all of [0, d_max]: every
        parametric kind is, a tabulated one only where its table reaches."""
        if self.kind == "tabulated":
            lo, hi = self.points[0, 0], self.points[-1, 0]
            if lo > _RANGE_SLACK or hi < float(d_max) - _RANGE_SLACK:
                raise OutOfRange(
                    f"tabulated transform covers [{lo:g}, {hi:g}], not [0, {float(d_max):g}]"
                )

    def name(self) -> str:
        if self.kind == "power":
            return f"power(p={self.p:g})"
        if self.kind == "shifted_cubic":
            return f"shifted_cubic(a={self.a:g})"
        if self.kind == "exponential":
            return f"exponential(rho={self.rho:g})"
        return self.kind

"""Transform families: application, inversion, monotonicity, JSON parsing."""

import math

import numpy as np
import pytest

from irdf import (
    DistortionMatrix,
    FTransform,
    JointSource,
    MonotonicityError,
    OutOfRange,
    sweep_curve,
)
from irdf.distortion import build_amended
from irdf.solver import f_domain_bounds

FAMILIES = [
    FTransform.identity(),
    FTransform.sqrt(),
    FTransform.power(2.0),
    FTransform.shifted_cubic(0.4),
    FTransform.exponential(9.2),
]


def test_identity_values():
    f = FTransform.identity()
    assert f.apply(0.3) == 0.3
    assert f.invert(0.3) == 0.3


def test_exponential_value():
    f = FTransform.exponential(9.2)
    assert f.apply(1.0) == pytest.approx(math.exp(9.2), rel=1e-15)


def test_shifted_cubic_values():
    # (xi - 0.4)^3 at the Hamming letters
    f = FTransform.shifted_cubic(0.4)
    assert f.apply(0.0) == pytest.approx(-0.064, abs=1e-15)
    assert f.apply(1.0) == pytest.approx(0.216, abs=1e-15)


@pytest.mark.parametrize("f", FAMILIES, ids=lambda f: f.name())
def test_roundtrip_on_grid(f):
    xs = np.linspace(0.0, 1.0, 1024)
    np.testing.assert_allclose(f.invert(f.apply(xs)), xs, atol=1e-10)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0, 1.0 / 3.0, 200.0])
def test_power_and_sqrt_invert_clamp_at_zero_bitwise(p):
    # values below 0 by no more than the range slack invert as 0, and -0.0
    # as +0.0, exactly as the clip they replaced (outputs, zero signs too);
    # a scalar gets the bits of its entry in the array
    grid = np.concatenate([[-1e-12, -5e-13, -1e-300, -0.0, 0.0, 5e-324, 1e-300],
                           np.linspace(-1e-12, 2.0, 37)])
    for f, power in ((FTransform.power(p), 1.0 / p), (FTransform.sqrt(), 2.0)):
        want = np.clip(grid, 0.0, None) ** power
        got = f.invert(grid)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
        for y, w in zip(grid.tolist(), want.tolist()):
            g = f.invert(y)
            assert g == w and math.copysign(1.0, g) == math.copysign(1.0, w)


def test_tabulated_roundtrip():
    knots = np.linspace(0.0, 1.0, 65)
    f = FTransform.tabulated(np.column_stack([knots, knots**3 + knots]))
    xs = np.linspace(0.0, 1.0, 257)
    np.testing.assert_allclose(f.invert(f.apply(xs)), xs, atol=1e-10)


def test_tabulated_inverse_is_exact_including_edges():
    knots = np.array([0.0, 0.1, 0.35, 0.5, 0.9, 1.0])
    f = FTransform.tabulated(np.column_stack([knots, np.exp(3.0 * knots) - 0.5]))
    xs = np.concatenate([knots, np.linspace(0.0, 1.0, 1001),
                         np.random.default_rng(5).uniform(0.0, 1.0, 200)])
    assert np.abs(f.invert(f.apply(xs)) - xs).max() <= 1e-14
    for edge in (0.0, 1.0):
        assert abs(f.invert(f.apply(edge)) - edge) <= 1e-14


def test_tabulated_non_monotone_rejected():
    with pytest.raises(MonotonicityError):
        FTransform.tabulated([[0.0, 0.0], [0.5, 0.4], [1.0, 0.3]])


def test_tabulated_out_of_range():
    f = FTransform.tabulated([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(OutOfRange):
        f.apply(2.0)
    with pytest.raises(OutOfRange):
        f.invert(1.5)


def test_exponential_invert_domain():
    with pytest.raises(OutOfRange):
        FTransform.exponential(2.0).invert(-0.5)


def test_power_invert_domain():
    with pytest.raises(OutOfRange):
        FTransform.power(2.0).invert(-1.0)


def test_shifted_cubic_inverts_negative_values():
    f = FTransform.shifted_cubic(0.4)
    assert f.invert(-0.064) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("f", FAMILIES, ids=lambda f: f.name())
def test_strictly_increasing_check_passes(f):
    # every parametric kind is strictly increasing by its parameter check and
    # defined on [0, d_max] for any d_max
    f.check_domain(1.0)
    f.check_domain(1e6)
    assert np.all(np.diff(f.apply(np.linspace(0.0, 1.0, 101))) > 0.0)


def test_tabulated_table_must_cover_the_distortions():
    f = FTransform.tabulated([[0.0, 0.0], [0.5, 1.0], [1.0, 1.5]])
    f.check_domain(1.0)
    with pytest.raises(OutOfRange):
        f.check_domain(1.5)
    with pytest.raises(OutOfRange):
        FTransform.tabulated([[0.2, 0.0], [1.0, 1.0]]).check_domain(1.0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        FTransform.power(0.0)
    with pytest.raises(ValueError):
        FTransform.exponential(-1.0)
    with pytest.raises(ValueError):
        FTransform("nonsense")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind", ["power", "shifted_cubic", "exponential"])
def test_non_finite_parameters_rejected(kind, value):
    # `p <= 0` and `rho <= 0` are false for NaN, which passed as a parameter
    with pytest.raises(ValueError, match="finite"):
        getattr(FTransform, kind)(value)


@pytest.mark.parametrize("table", [[[0.0, 0.0], [math.nan, 1.0]], [[0.0, 0.0], [1.0, math.inf]],
                                   [[-math.inf, 0.0], [1.0, 1.0]]], ids=["nan", "inf", "-inf"])
def test_tabulated_non_finite_entries_rejected(table):
    # a NaN difference is not <= 0, so [[0, 0], [nan, 1]] passed the
    # monotonicity check
    with pytest.raises(ValueError, match="finite"):
        FTransform.tabulated(table)


@pytest.mark.parametrize(
    "spec, kind",
    [
        ({"kind": "identity"}, "identity"),
        ({"kind": "power", "p": 2}, "power"),
        ({"kind": "sqrt"}, "sqrt"),
        ({"kind": "shifted_cubic", "a": 0.4}, "shifted_cubic"),
        ({"kind": "exponential", "rho": 9.2}, "exponential"),
        ({"kind": "tabulated", "points": [[0, 0], [1, 2]]}, "tabulated"),
    ],
)
def test_spec_roundtrip(spec, kind):
    f = FTransform.from_spec(spec)
    assert f.kind == kind
    again = FTransform.from_spec(f.to_spec())
    assert again.kind == kind


def test_spec_from_json_text():
    f = FTransform.from_spec('{"kind": "exponential", "rho": 9.2}')
    assert f.rho == 9.2
    assert FTransform.from_spec("sqrt").kind == "sqrt"


@pytest.mark.parametrize("f", FAMILIES + [FTransform.power(1.0 / 3.0), FTransform.power(4.7)],
                         ids=lambda f: f.name())
def test_scalar_gets_the_bits_of_its_array_entry(f):
    # numpy's scalar ** rounded an ulp away from the array loop on about 3 %
    # of power-transform queries
    rng = np.random.default_rng(31)
    xs = rng.uniform(0.0, 2.0, 1200)
    ys = f.apply(xs)
    for x, y, x2, y2 in zip(xs.tolist(), ys.tolist(), xs[::-1].tolist(), ys[::-1].tolist()):
        assert f.apply(x) == f.apply(np.array([x, x2]))[0]
        assert f.invert(y) == f.invert(np.array([y, y2]))[0]


def test_sweep_d_min_is_the_scalar_inverse_of_lo():
    # 100 draws, 4 of which differed by an ulp when scalars took numpy's scalar **
    rng = np.random.default_rng(2024)
    for _ in range(100):
        src = JointSource.from_joint(rng.dirichlet(np.ones(4)).reshape(2, 2))
        d = DistortionMatrix(rng.random((2, 2)))
        f = FTransform.power(float(rng.uniform(0.3, 5.0)))
        lo, _ = f_domain_bounds(build_amended(src, d, f), src.z_marginal)
        assert sweep_curve(src, d, f, 2).d_min == f.invert(lo)

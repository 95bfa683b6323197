"""Analytic curves: entropy helpers, both channel models, special cases."""

import math

import numpy as np
import pytest

from irdf import (
    BecModel,
    BscModel,
    DomainError,
    FTransform,
    bec_irdf,
    bec_optimal_conditional,
    binary_entropy,
    binary_entropy_inverse,
    bsc_irdf,
    domain_bounds,
)

LN2 = math.log(2.0)

FAMILIES = [
    FTransform.identity(),
    FTransform.sqrt(),
    FTransform.power(2.0),
    FTransform.shifted_cubic(0.4),
    FTransform.exponential(9.2),
]


class TestBinaryEntropy:
    def test_edges(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(LN2, abs=1e-15)

    def test_direct_evaluation(self):
        p = 0.2143
        expected = -p * math.log(p) - (1 - p) * math.log(1 - p)
        assert binary_entropy(p) == pytest.approx(expected, rel=1e-15)

    def test_array_input(self):
        out = binary_entropy(np.array([0.0, 0.5, 1.0]))
        np.testing.assert_allclose(out, [0.0, LN2, 0.0], atol=1e-15)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            binary_entropy(1.2)
        with pytest.raises(DomainError):
            binary_entropy(-0.1)

    def test_nan_raises(self):
        # NaN compares false with both ends of the range: binary_entropy gave
        # 0.0 and its inverse 1.6e-61
        with pytest.raises(DomainError):
            binary_entropy(math.nan)
        with pytest.raises(DomainError):
            binary_entropy(np.array([0.2, math.nan]))
        with pytest.raises(DomainError):
            binary_entropy_inverse(math.nan)

    def test_slack_clamped(self):
        assert binary_entropy(1.0 + 5e-13) == 0.0

    def test_inverse(self):
        for t in (0.0, 0.05, 0.21, 0.37, 0.5):
            assert binary_entropy_inverse(binary_entropy(t)) == pytest.approx(t, abs=1e-8)


class TestBscClosedForm:
    def test_identity_reduction_on_grid(self):
        beta = 0.15
        m = BscModel(beta)
        for D in np.linspace(beta, 0.5, 23):
            expected = max(0.0, LN2 - binary_entropy((D - beta) / (1 - 2 * beta)))
            assert bsc_irdf(m, float(D)) == pytest.approx(expected, abs=1e-14)

    def test_classical_fair_bit_at_beta_zero(self):
        m = BscModel(0.0)
        for D in (0.1, 0.25, 0.4):
            assert bsc_irdf(m, D) == pytest.approx(LN2 - binary_entropy(D), abs=1e-14)

    def test_zero_at_half(self):
        assert bsc_irdf(BscModel(0.15), 0.5) == 0.0

    def test_below_domain_raises(self):
        with pytest.raises(DomainError):
            bsc_irdf(BscModel(0.15), 0.1)

    def test_above_domain_warns_and_clamps(self):
        with pytest.warns(UserWarning):
            assert bsc_irdf(BscModel(0.15), 0.8) == 0.0

    def test_level_whose_transform_overflows(self):
        # exp(9.2 * 100) overflows: f(D) is inf, above the zero-rate level,
        # with no RuntimeWarning on the way
        with pytest.warns(UserWarning):
            assert bsc_irdf(BscModel(0.1, FTransform.exponential(9.2)), 100.0) == 0.0

    def test_left_endpoint_is_full_bit(self):
        # closed on the left by choice: maximal rate there
        for f in FAMILIES:
            m = BscModel(0.15, f)
            d_min, _ = domain_bounds(m)
            assert bsc_irdf(m, d_min) == pytest.approx(LN2, abs=1e-9)

    def test_continuous_and_zero_at_upper_endpoint(self):
        for f in FAMILIES:
            m = BscModel(0.15, f)
            d_min, d_max = domain_bounds(m)
            grid = np.linspace(d_min, d_max, 200)
            vals = np.array([bsc_irdf(m, float(D)) for D in grid])
            assert vals[-1] == pytest.approx(0.0, abs=1e-12)
            assert np.max(np.abs(np.diff(vals))) < 0.05

    def test_identity_f_curve_is_convex(self):
        m = BscModel(0.15)
        grid = np.linspace(0.15, 0.5, 101)
        vals = np.array([bsc_irdf(m, float(D)) for D in grid])
        assert np.all(vals[1:-1] <= 0.5 * (vals[:-2] + vals[2:]) + 1e-12)

    def test_exponential_f_curve_is_not_convex(self):
        m = BscModel(0.01, FTransform.exponential(9.2))
        d_min, d_max = domain_bounds(m)
        grid = np.linspace(d_min + 1e-9, d_max, 101)
        vals = np.array([bsc_irdf(m, float(D)) for D in grid])
        n = len(vals)
        worst = max(
            float(np.max(vals[step : n - step] - 0.5 * (vals[: n - 2 * step] + vals[2 * step :])))
            for step in range(1, n // 2)
        )
        assert worst > 1e-3


class TestBecClosedForm:
    def test_identity_reduction_on_grid(self):
        delta = 0.4
        m = BecModel(delta)
        for D in np.linspace(delta / 2, 0.5, 23):
            expected = max(
                0.0, (1 - delta) * (LN2 - binary_entropy((D - delta / 2) / (1 - delta)))
            )
            assert bec_irdf(m, float(D)) == pytest.approx(expected, abs=1e-14)

    def test_no_erasures_recovers_fair_bit(self):
        m = BecModel(0.0)
        for D in (0.1, 0.25, 0.4):
            assert bec_irdf(m, D) == pytest.approx(LN2 - binary_entropy(D), abs=1e-14)

    def test_left_endpoint_value(self):
        # at D = delta/2 the entropy term vanishes: (1-delta) * ln 2
        assert bec_irdf(BecModel(0.4), 0.2) == pytest.approx(0.6 * LN2, abs=1e-14)

    def test_full_erasure_degenerate(self):
        m = BecModel(1.0)
        assert bec_irdf(m, 0.5) == 0.0

    def test_full_erasure_past_d_max_warns_and_is_zero(self):
        # every z is the erasure, so d_min = d_max = 1/2; a level past it is
        # the zero-rate region
        with pytest.warns(UserWarning, match="rate is 0"):
            assert bec_irdf(BecModel(1.0), 0.7) == 0.0

    def test_agrees_with_bsc_when_noiseless(self):
        for f in FAMILIES:
            mb = BscModel(0.0, f)
            me = BecModel(0.0, f)
            d_min, d_max = domain_bounds(mb)
            assert domain_bounds(me) == pytest.approx((d_min, d_max), rel=1e-12)
            for u in np.linspace(0.0, 1.0, 17):
                D = d_min + (d_max - d_min) * u
                assert bec_irdf(me, float(D)) == pytest.approx(
                    bsc_irdf(mb, float(D)), abs=1e-12
                )


class TestBecOptimalConditional:
    def test_corner_value_identity(self):
        # keep = (0.8 - 0.3) / 0.6 at delta = 0.4, D = 0.3
        q, out = bec_optimal_conditional(BecModel(0.4), 0.3)
        assert q[0, 0] == pytest.approx(0.5 / 0.6, rel=1e-14)
        np.testing.assert_allclose(q[1], [0.5, 0.5], atol=0)
        np.testing.assert_allclose(out, [0.5, 0.5], atol=0)
        np.testing.assert_allclose(q[::-1, ::-1], q, atol=0)

    def test_rows_sum_exactly(self):
        for D in np.linspace(0.2, 0.5, 9):
            q, _ = bec_optimal_conditional(BecModel(0.4), float(D))
            np.testing.assert_array_equal(q.sum(axis=1), np.ones(3))

    def test_zero_rate_point_uniform(self):
        q, _ = bec_optimal_conditional(BecModel(0.4), 0.5)
        np.testing.assert_allclose(q, 0.5, atol=1e-14)

    def test_full_erasure_rows_are_uniform(self):
        # with every z erased no row can depend on x: each is the uniform pmf
        q, out = bec_optimal_conditional(BecModel(1.0), 0.5)
        np.testing.assert_array_equal(q, np.full((3, 2), 0.5))
        np.testing.assert_array_equal(out, [0.5, 0.5])

    def test_marginal_mixture(self):
        delta = 0.4
        q, out = bec_optimal_conditional(BecModel(delta), 0.27)
        pz = np.array([(1 - delta) / 2, delta, (1 - delta) / 2])
        np.testing.assert_allclose(pz @ q, out, atol=1e-14)

    def test_mutual_information_reproduces_rate(self):
        for f in FAMILIES:
            m = BecModel(0.4, f)
            d_min, d_max = domain_bounds(m)
            for u in (0.15, 0.5, 0.85):
                D = d_min + (d_max - d_min) * u
                q, out = bec_optimal_conditional(m, float(D))
                pz = np.array([0.3, 0.4, 0.3])
                mi = 0.0
                for z in range(3):
                    for x in range(2):
                        if q[z, x] > 0:
                            mi += pz[z] * q[z, x] * math.log(q[z, x] / out[x])
                assert mi == pytest.approx(bec_irdf(m, float(D)), abs=1e-12)

    def test_outside_domain_raises(self):
        with pytest.raises(DomainError):
            bec_optimal_conditional(BecModel(0.4), 0.1)
        with pytest.raises(DomainError):
            bec_optimal_conditional(BecModel(0.4), 0.7)


@pytest.mark.parametrize("f", FAMILIES, ids=lambda f: f.name())
def test_nan_level_raises(f):
    # NaN compares false with both ends of the domain: bsc_irdf gave 0.693,
    # bec_irdf 0.485 and bec_optimal_conditional NaN rows
    with pytest.raises(DomainError, match="NaN"):
        bsc_irdf(BscModel(0.1, f), math.nan)
    with pytest.raises(DomainError, match="NaN"):
        bec_irdf(BecModel(0.3, f), math.nan)
    with pytest.raises(DomainError, match="NaN"):
        bec_optimal_conditional(BecModel(0.3, f), math.nan)


@pytest.mark.parametrize("f", FAMILIES, ids=lambda f: f.name())
def test_negative_level_raises(f):
    # sqrt maps a negative level to NaN: bsc_irdf gave 0.693 with a
    # RuntimeWarning, and bec_optimal_conditional NaN rows
    with pytest.raises(DomainError, match="negative"):
        bsc_irdf(BscModel(0.1, f), -0.1)
    with pytest.raises(DomainError, match="negative"):
        bec_irdf(BecModel(0.3, f), -0.1)
    with pytest.raises(DomainError, match="negative"):
        bec_optimal_conditional(BecModel(0.3, f), -0.1)


class TestDomainBoundsExamples:
    def test_exponential(self):
        rho, beta = 9.2, 0.01
        m = BscModel(beta, FTransform.exponential(rho))
        d_min, d_max = domain_bounds(m)
        assert d_min == pytest.approx(math.log(1 - beta + beta * math.exp(rho)) / rho, rel=1e-14)
        assert d_max == pytest.approx(math.log((1 + math.exp(rho)) / 2) / rho, rel=1e-14)

    def test_shifted_cubic_derived_endpoint(self):
        a, beta = 0.4, 0.15
        m = BscModel(beta, FTransform.shifted_cubic(a))
        d_min, d_max = domain_bounds(m)
        assert d_min == pytest.approx(
            np.cbrt(beta * (1 - a) ** 3 - (1 - beta) * a**3) + a, rel=1e-12
        )
        assert d_max == pytest.approx(np.cbrt(((1 - a) ** 3 - a**3) / 2) + a, rel=1e-12)

    def test_quadratic(self):
        m = BscModel(0.001, FTransform.power(2.0))
        d_min, d_max = domain_bounds(m)
        assert d_min == pytest.approx(math.sqrt(0.001), rel=1e-14)
        assert d_max == pytest.approx(math.sqrt(0.5), rel=1e-14)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            BscModel(0.5)
        with pytest.raises(ValueError):
            BecModel(1.2)

"""Pooled distortion, quasi-arithmetic mean axioms, subadditivity, and the
single-letter reduction matrices."""

import math

import numpy as np
import pytest

from irdf import (
    DistortionMatrix,
    EmptyInput,
    FTransform,
    LengthMismatch,
    build_amended,
    f_separable_n,
    is_subadditive_sample,
    quasi_arithmetic_mean,
)
from irdf.source import JointSource

FAMILIES = [
    FTransform.identity(),
    FTransform.sqrt(),
    FTransform.power(2.0),
    FTransform.shifted_cubic(0.4),
    FTransform.exponential(9.2),
]

HAMMING = DistortionMatrix.hamming(2)


def bsc_source(beta):
    return JointSource.from_prior_and_channel(
        (0.5, 0.5), [[1 - beta, beta], [beta, 1 - beta]]
    )


def erasure_source(delta):
    return JointSource.from_prior_and_channel(
        (0.5, 0.5), [[1 - delta, delta, 0.0], [0.0, delta, 1 - delta]]
    )


class TestDistortionMatrix:
    def test_hamming(self):
        np.testing.assert_array_equal(HAMMING.values, [[0, 1], [1, 0]])
        assert HAMMING.d_max == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DistortionMatrix([[0.0, -0.1], [1.0, 0.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            DistortionMatrix([[0.0, np.inf], [1.0, 0.0]])

    def test_from_spec(self):
        assert DistortionMatrix.from_spec("hamming", n_source=3).values.shape == (3, 3)
        d = DistortionMatrix.from_spec({"values": [[0, 2], [2, 0]]})
        assert d.d_max == 2.0


class TestPooledDistortion:
    def test_identity_is_arithmetic_mean(self):
        # 2 errors in a block of 4
        val = f_separable_n(FTransform.identity(), HAMMING, [0, 1, 0, 1], [1, 0, 0, 1])
        assert val == pytest.approx(0.5, abs=1e-15)

    def test_square_pooling_of_hamming(self):
        # k errors in n pool to sqrt(k/n) under f = xi^2
        f = FTransform.power(2.0)
        for n in (2, 3, 5):
            for k in range(n + 1):
                xs = np.zeros(n, dtype=int)
                xhats = np.array([1] * k + [0] * (n - k))
                assert f_separable_n(f, HAMMING, xs, xhats) == pytest.approx(
                    math.sqrt(k / n), abs=1e-12
                )

    def test_exponential_single_error_pair(self):
        # direct substitution: one error in n=2 pools to ln((1+e^rho)/2)/rho
        rho = 9.2
        val = f_separable_n(FTransform.exponential(rho), HAMMING, [0, 0], [0, 1])
        assert val == pytest.approx(math.log((1 + math.exp(rho)) / 2) / rho, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            f_separable_n(FTransform.identity(), HAMMING, [0, 1], [0])

    @pytest.mark.parametrize("f", FAMILIES, ids=lambda f: f.name())
    def test_threshold_events_match_across_domains(self, f):
        # pooled > D iff transform-domain mean > f(D), exhaustively for n <= 6
        rng = np.random.default_rng(123)
        fd = f.apply(HAMMING.values)
        for n in range(1, 7):
            grids = np.arange(2**n)
            bits = (grids[:, None] >> np.arange(n)[None, :]) & 1
            xs = bits[:, None, :].repeat(2**n, axis=1)
            xh = bits[None, :, :].repeat(2**n, axis=0)
            means = fd[xs, xh].mean(axis=2).ravel()
            pooled = f.invert(means)
            atoms = np.unique(pooled)
            # collapse float-noise clusters (same error pattern, different
            # position order) before taking midpoints between true atoms
            reps = atoms[np.concatenate([[True], np.diff(atoms) > 1e-9])]
            mids = 0.5 * (reps[1:] + reps[:-1])
            thresholds = np.concatenate(
                [mids, [reps[0] - 0.125, reps[-1] + 0.125], rng.random(8) * 1.3]
            )
            for D in thresholds:
                if D < 0:
                    continue
                left = pooled > D
                right = means > f.apply(float(D))
                assert (left == right).all(), (f.name(), n, D)


class TestQuasiArithmeticMean:
    @pytest.mark.parametrize("f", FAMILIES, ids=lambda f: f.name())
    def test_idempotent_on_constants(self, f):
        for c in (0.0, 0.3, 1.0):
            assert quasi_arithmetic_mean(f, [c] * 5) == pytest.approx(c, abs=1e-10)

    def test_identity_gives_arithmetic_mean(self):
        xs = [0.1, 0.5, 0.9, 0.2]
        assert quasi_arithmetic_mean(FTransform.identity(), xs) == pytest.approx(
            np.mean(xs), abs=1e-15
        )

    @pytest.mark.parametrize("f", FAMILIES, ids=lambda f: f.name())
    def test_symmetry_monotonicity_replacement(self, f):
        rng = np.random.default_rng(42)
        for _ in range(200):
            xs = rng.random(6)
            m = quasi_arithmetic_mean(f, xs)
            assert quasi_arithmetic_mean(f, xs[rng.permutation(6)]) == pytest.approx(
                m, abs=1e-10
            )
            bumped = xs.copy()
            bumped[rng.integers(0, 6)] += 0.05
            assert quasi_arithmetic_mean(f, bumped) > m
            # replace the first two entries by their own mean
            m2 = quasi_arithmetic_mean(f, xs[:2])
            merged = np.concatenate([[m2, m2], xs[2:]])
            assert quasi_arithmetic_mean(f, merged) == pytest.approx(m, abs=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            quasi_arithmetic_mean(FTransform.identity(), [])


class TestSubadditivity:
    def test_sqrt_concave_always_passes(self):
        report = is_subadditive_sample(FTransform.sqrt(), HAMMING, trials=5000, n=6, seed=1)
        assert report.all_passed

    def test_identity_margin_zero(self):
        report = is_subadditive_sample(FTransform.identity(), HAMMING, trials=2000, n=4, seed=2)
        assert report.all_passed
        assert report.worst_margin == pytest.approx(0.0, abs=1e-15)

    def test_square_convex_violates(self):
        # one error in n=2: pooled sqrt(1/2) exceeds the plain mean 1/2
        direct = f_separable_n(FTransform.power(2.0), HAMMING, [0, 0], [1, 0])
        assert direct == pytest.approx(math.sqrt(0.5), rel=1e-12)
        assert direct > 0.5
        report = is_subadditive_sample(FTransform.power(2.0), HAMMING, trials=2000, n=2, seed=3)
        assert not report.all_passed
        assert report.worst_margin <= 0.5 - math.sqrt(0.5) + 1e-12

    @pytest.mark.parametrize("n", [0, -1])
    def test_empty_tuples_rejected(self, n):
        # pooling an empty tuple is a mean of nothing: NaN margins
        with pytest.raises(ValueError, match="n must be"):
            is_subadditive_sample(FTransform.sqrt(), HAMMING, trials=5, n=n)


class TestBuildAmended:
    @pytest.mark.parametrize("f", FAMILIES, ids=lambda f: f.name())
    def test_bsc_matrix_form(self, f):
        beta = 0.15
        am = build_amended(bsc_source(beta), HAMMING, f)
        f0, f1 = f.apply(0.0), f.apply(1.0)
        same = (1 - beta) * f0 + beta * f1
        cross = (1 - beta) * f1 + beta * f0
        np.testing.assert_allclose(
            am.expected_f, [[same, cross], [cross, same]], rtol=1e-14, atol=1e-14
        )

    @pytest.mark.parametrize("f", FAMILIES, ids=lambda f: f.name())
    def test_erasure_matrix_form(self, f):
        am = build_amended(erasure_source(0.4), HAMMING, f)
        f0, f1 = f.apply(0.0), f.apply(1.0)
        mid = 0.5 * (f0 + f1)
        np.testing.assert_allclose(
            am.expected_f, [[f0, f1], [mid, mid], [f1, f0]], rtol=1e-14, atol=1e-14
        )

    def test_identity_noiseless_reduces_to_d(self):
        src = JointSource.from_prior_and_channel((0.5, 0.5), np.eye(2))
        am = build_amended(src, HAMMING, FTransform.identity())
        np.testing.assert_allclose(am.expected_f, HAMMING.values, atol=0)

    @pytest.mark.parametrize("f", FAMILIES, ids=lambda f: f.name())
    def test_equivalent_roundtrip_identity(self, f):
        rng = np.random.default_rng(9)
        joint = rng.random((3, 4))
        src = JointSource.from_joint(joint / joint.sum())
        d = DistortionMatrix(rng.random((3, 3)))
        am = build_amended(src, d, f)
        used = am.used_z
        np.testing.assert_allclose(
            f.apply(am.equivalent[used]), am.expected_f[used], atol=1e-10
        )

    def test_unused_rows_zeroed(self):
        am = build_amended(erasure_source(0.0), HAMMING, FTransform.identity())
        assert am.used_z.tolist() == [True, False, True]
        np.testing.assert_array_equal(am.expected_f[1], [0.0, 0.0])

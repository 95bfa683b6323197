"""Block-code evaluation, excess-event identity, exhaustive best-code search."""

import itertools
import math

import numpy as np
import pytest

from irdf import (
    BlockCode,
    BscModel,
    DistortionMatrix,
    FTransform,
    JointSource,
    TooLarge,
    best_code_search,
    binary_entropy_inverse,
    boundedness_check,
    evaluate_code,
    excess_event_equivalence,
)

LN2 = math.log(2.0)
HAMMING = DistortionMatrix.hamming(2)

FAMILIES = [
    FTransform.identity(),
    FTransform.sqrt(),
    FTransform.power(2.0),
    FTransform.shifted_cubic(0.4),
    FTransform.exponential(9.2),
]


def bsc_problem(beta=0.15):
    m = BscModel(beta)
    return m.source(), m.distortion()


def identity_code():
    return BlockCode(n=1, M=2, encoder=np.array([0, 1]), decoder=np.array([[0], [1]]))


def all_codes(n, M, n_z=2, n_xhat=2):
    """Every (encoder, decoder) pair, lexicographic order."""
    encs = itertools.product(range(M), repeat=n_z**n)
    for enc in encs:
        for dec in itertools.product(itertools.product(range(n_xhat), repeat=n), repeat=M):
            yield BlockCode(n=n, M=M, encoder=np.array(enc), decoder=np.array(dec))


class TestEvaluateCode:
    def test_identity_code_average_is_crossover(self):
        src, d = bsc_problem(0.15)
        ev = evaluate_code(src, d, FTransform.identity(), identity_code(), threshold=0.5)
        assert ev.avg_distortion == pytest.approx(0.15, abs=1e-15)
        assert ev.excess_prob == pytest.approx(0.15, abs=1e-15)  # P[d=1 > 0.5]

    def test_single_index_best_constant(self):
        src, d = bsc_problem(0.15)
        code = BlockCode(n=1, M=1, encoder=np.array([0, 0]), decoder=np.array([[0]]))
        ev = evaluate_code(src, d, FTransform.identity(), code, threshold=0.5)
        assert ev.avg_distortion == pytest.approx(0.5, abs=1e-15)

    def test_threshold_above_dmax_never_exceeded(self):
        src, d = bsc_problem(0.15)
        ev = evaluate_code(src, d, FTransform.exponential(9.2), identity_code(), threshold=1.5)
        assert ev.excess_prob == 0.0

    def test_comparators(self):
        src, d = bsc_problem(0.15)
        strict = evaluate_code(src, d, FTransform.identity(), identity_code(), 1.0, ">")
        loose = evaluate_code(src, d, FTransform.identity(), identity_code(), 1.0, ">=")
        assert strict.excess_prob == 0.0
        assert loose.excess_prob == pytest.approx(0.15, abs=1e-15)

    def test_too_large(self):
        src, d = bsc_problem(0.15)
        big = BlockCode(n=14, M=2,
                        encoder=np.zeros(2**14, dtype=int),
                        decoder=np.zeros((2, 14), dtype=int))
        with pytest.raises(TooLarge):
            evaluate_code(src, d, FTransform.identity(), big, threshold=0.5)


# the two ways a code meets a source: its evaluation and the excess-event
# identity
CODE_QUERIES = {
    "exact": lambda src, d, code: evaluate_code(src, d, FTransform.identity(), code, 0.5),
    "excess": lambda src, d, code: excess_event_equivalence(
        src, d, FTransform.identity(), code, 0.2, 0.1),
}


class TestCodeMustFitSource:
    @pytest.mark.parametrize("query", CODE_QUERIES)
    def test_decoder_symbol_outside_reconstruction_alphabet(self, query):
        # decoded as a sequence index, symbol 2 at the last of two binary
        # positions would read as the sequence (1, 0)
        src = JointSource.from_joint(np.array([[0.5, 0.1], [0.1, 0.3]]))
        code = BlockCode(n=2, M=1, encoder=np.zeros(4, dtype=int), decoder=np.array([[0, 2]]))
        with pytest.raises(ValueError, match="decoder"):
            CODE_QUERIES[query](src, HAMMING, code)

    @pytest.mark.parametrize("query", CODE_QUERIES)
    def test_encoder_shorter_than_observation_sequences(self, query):
        src = JointSource.from_joint(np.array([[0.5, 0.1], [0.1, 0.3]]))
        code = BlockCode(n=2, M=2, encoder=np.array([0, 1]), decoder=np.array([[0, 0], [1, 1]]))
        with pytest.raises(ValueError, match="encoder"):
            CODE_QUERIES[query](src, HAMMING, code)


class TestExcessEventEquivalence:
    def test_identity_transform_trivially_equal(self):
        src, d = bsc_problem(0.15)
        r = excess_event_equivalence(src, d, FTransform.identity(), identity_code(), 0.2, 0.1)
        assert r.equal and r.events_agree

    def test_exponential_all_small_codes(self):
        src, d = bsc_problem(0.15)
        f = FTransform.exponential(9.2)
        for n in (1, 2, 3):
            code = BlockCode(
                n=n, M=2,
                encoder=np.arange(2**n) % 2,
                decoder=np.array([[0] * n, [1] * n]),
            )
            for D in np.linspace(0.013, 0.937, 7):
                r = excess_event_equivalence(src, d, f, code, float(D), 0.0871)
                assert r.equal and r.events_agree

    def test_square_all_256_codes_n2(self):
        src, d = bsc_problem(0.15)
        f = FTransform.power(2.0)
        count = 0
        for code in all_codes(2, 2):
            r = excess_event_equivalence(src, d, f, code, 0.37, 0.11)
            assert r.equal, (code.encoder, code.decoder)
            count += 1
        assert count == 256

    def test_exponential_all_codes_n3(self):
        src, d = bsc_problem(0.15)
        f = FTransform.exponential(9.2)
        for code in all_codes(3, 2):
            r = excess_event_equivalence(src, d, f, code, 0.53, 0.0871)
            assert r.equal, (code.encoder, code.decoder)

    def test_gamma_must_be_positive(self):
        src, d = bsc_problem(0.15)
        with pytest.raises(ValueError):
            excess_event_equivalence(src, d, FTransform.identity(), identity_code(), 0.2, 0.0)


class TestBestCodeSearch:
    def test_n1_m2_matches_naive_enumeration(self):
        src, d = bsc_problem(0.15)
        f = FTransform.identity()
        best_val = math.inf
        for code in all_codes(1, 2):
            ev = evaluate_code(src, d, f, code, threshold=2.0)
            best_val = min(best_val, ev.avg_distortion)
        code, ev = best_code_search(src, d, f, n=1, M=2)
        assert ev.avg_distortion == pytest.approx(best_val, abs=1e-15)
        assert ev.avg_distortion == pytest.approx(0.15, abs=1e-15)
        # identity mapping is the lexicographically-first optimal code
        assert code.encoder.tolist() == [0, 1]
        assert code.decoder.tolist() == [[0], [1]]

    def test_n1_m1_constant(self):
        src, d = bsc_problem(0.15)
        code, ev = best_code_search(src, d, FTransform.identity(), n=1, M=1)
        assert ev.avg_distortion == pytest.approx(0.5, abs=1e-15)

    def test_n2_matches_naive_enumeration(self):
        src, d = bsc_problem(0.15)
        f = FTransform.power(2.0)
        naive = min(
            evaluate_code(src, d, f, code, threshold=2.0).avg_distortion
            for code in all_codes(2, 2)
        )
        _, ev = best_code_search(src, d, f, n=2, M=2)
        assert ev.avg_distortion == pytest.approx(naive, abs=1e-14)

    def test_excess_criterion_matches_naive(self):
        src, d = bsc_problem(0.15)
        f = FTransform.identity()
        naive = min(
            evaluate_code(src, d, f, code, threshold=0.4).excess_prob
            for code in all_codes(2, 2)
        )
        _, ev = best_code_search(src, d, f, n=2, M=2, criterion="excess", threshold=0.4)
        assert ev.excess_prob == pytest.approx(naive, abs=1e-14)

    def test_monotone_in_codebook_size(self):
        src, d = bsc_problem(0.15)
        f = FTransform.identity()
        avgs, excs = [], []
        for M in (1, 2, 3):
            _, ev = best_code_search(src, d, f, n=1, M=M, threshold=0.4)
            avgs.append(ev.avg_distortion)
            _, ev2 = best_code_search(src, d, f, n=1, M=M, criterion="excess", threshold=0.4)
            excs.append(ev2.excess_prob)
        assert avgs == sorted(avgs, reverse=True)
        assert excs == sorted(excs, reverse=True)

    def test_never_beats_single_letter_curve(self):
        src, d = bsc_problem(0.15)
        f = FTransform.identity()
        for n, M in ((1, 1), (1, 2), (2, 2), (3, 2)):
            _, ev = best_code_search(src, d, f, n=n, M=M)
            rate = math.log(M) / n
            ref = 0.15 + 0.7 * binary_entropy_inverse(max(0.0, LN2 - rate))
            assert ev.avg_distortion >= ref - 1e-12

    def test_too_large(self):
        src, d = bsc_problem(0.15)
        with pytest.raises(TooLarge):
            best_code_search(src, d, FTransform.identity(), n=4, M=3)


class TestBoundedness:
    @pytest.mark.parametrize("f", FAMILIES, ids=lambda f: f.name())
    def test_hamming_bounded_by_one(self, f):
        report = boundedness_check(HAMMING, f, n_max=3)
        assert report.delta == 1.0
        assert report.holds
        assert all(abs(v - 1.0) < 1e-12 for v in report.sup_by_n.values())

    def test_scaled_hamming(self):
        d = DistortionMatrix(3.0 * (np.ones((2, 2)) - np.eye(2)))
        report = boundedness_check(d, FTransform.identity(), n_max=3)
        assert report.delta == 3.0
        assert report.holds

    def test_tabulated_transform(self):
        knots = np.linspace(0.0, 1.0, 17)
        f = FTransform.tabulated(np.column_stack([knots, np.sqrt(knots + 0.1)]))
        report = boundedness_check(HAMMING, f, n_max=2)
        assert report.holds
        assert max(report.sup_by_n.values()) <= 1.0 + 1e-9

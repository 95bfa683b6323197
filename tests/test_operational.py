"""Block-code evaluation, excess-event identity, exhaustive best-code search."""

import itertools
import math

import numpy as np
import pytest

from irdf import (
    BecModel,
    BlockCode,
    BscModel,
    DistortionMatrix,
    DomainError,
    FTransform,
    JointSource,
    OutOfRange,
    TooLarge,
    best_code_search,
    binary_entropy_inverse,
    evaluate_code,
    excess_event_equivalence,
)
from irdf import kernels
from irdf.operational import ENUM_CAP

LN2 = math.log(2.0)
HAMMING = DistortionMatrix.hamming(2)

FAMILIES = [
    FTransform.identity(),
    FTransform.sqrt(),
    FTransform.power(2.0),
    FTransform.shifted_cubic(0.4),
    FTransform.exponential(9.2),
]


# the five parametric kinds and a tabulated transform covering [0, 1]
_KNOTS = np.linspace(0.0, 1.0, 9)
SEARCH_TRANSFORMS = FAMILIES + [FTransform.tabulated(np.column_stack([_KNOTS, _KNOTS**2 + _KNOTS]))]


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

    def test_nan_threshold_rejected(self):
        # NaN is never exceeded, so it read as excess_prob 0.0
        src, d = bsc_problem(0.15)
        with pytest.raises(ValueError, match="NaN"):
            evaluate_code(src, d, FTransform.identity(), identity_code(), threshold=math.nan)

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

    @pytest.mark.parametrize("comparator", [">", ">="])
    def test_level_whose_transform_overflows(self, comparator):
        # exp(9.2 * 100) overflows: no pooled value or mean exceeds the level,
        # with no RuntimeWarning on the way
        src, d = bsc_problem(0.1)
        r = excess_event_equivalence(src, d, FTransform.exponential(9.2), identity_code(),
                                     100.0, 0.1, comparator)
        assert (r.p_pooled, r.p_mean) == (0.0, 0.0) and r.equal and r.events_agree

    @pytest.mark.parametrize("D, gamma", [(-0.5, 0.1), (-0.05, 0.1)])
    def test_negative_level_rejected(self, D, gamma):
        # sqrt of a negative level warned "invalid value in sqrt" and
        # returned a false equal=False
        src, d = bsc_problem(0.1)
        with pytest.raises(DomainError, match="negative"):
            excess_event_equivalence(src, d, FTransform.sqrt(), identity_code(), D, gamma)

    def test_gamma_must_be_positive(self):
        src, d = bsc_problem(0.15)
        with pytest.raises(ValueError):
            excess_event_equivalence(src, d, FTransform.identity(), identity_code(), 0.2, 0.0)

    @pytest.mark.parametrize("D, gamma", [(math.nan, 0.1), (0.2, math.nan)])
    def test_nan_level_rejected(self, D, gamma):
        src, d = bsc_problem(0.15)
        with pytest.raises(ValueError, match="NaN|gamma"):
            excess_event_equivalence(src, d, FTransform.identity(), identity_code(), D, gamma)


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

    @pytest.mark.parametrize("n, M", [(0, 2), (1, 0), (0, 0)])
    def test_empty_block_rejected(self, n, M):
        # n = 0 returned avg_distortion nan after a RuntimeWarning
        src, d = bsc_problem(0.15)
        with pytest.raises(ValueError, match=">= 1"):
            best_code_search(src, d, FTransform.identity(), n=n, M=M)
        with pytest.raises(ValueError, match=">= 1"):
            BlockCode(n=n, M=M, encoder=np.zeros(1, dtype=int), decoder=np.zeros((M, n)))

    def test_n1_m1_constant(self):
        src, d = bsc_problem(0.15)
        code, ev = best_code_search(src, d, FTransform.identity(), n=1, M=1)
        assert ev.avg_distortion == pytest.approx(0.5, abs=1e-15)

    def test_one_cell_over_many_sequences(self):
        # 3**4 = 81 observation sequences, more than an index array has
        # dimensions: the single encoder maps them all to cell 0. Every
        # reconstruction of a fair bit is worth 1/2, so rounding picks it.
        m = BecModel(0.3)
        src, d, f = m.source(), m.distortion(), FTransform.identity()
        code, ev = best_code_search(src, d, f, n=4, M=1)
        assert code.encoder.tolist() == [0] * 81
        assert code.decoder.shape == (1, 4)
        assert ev.avg_distortion == pytest.approx(0.5, abs=1e-15)
        assert ev.avg_distortion == evaluate_code(src, d, f, code, ev.threshold).avg_distortion

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

    @pytest.mark.parametrize("criterion", ["average", "excess"])
    def test_nan_threshold_rejected(self, criterion):
        src, d = bsc_problem(0.15)
        with pytest.raises(ValueError, match="NaN"):
            best_code_search(src, d, FTransform.identity(), n=1, M=2,
                             criterion=criterion, threshold=math.nan)

    @pytest.mark.parametrize("criterion, kwargs, match", [
        ("average", {"comparator": "<"}, "comparator"),
        ("excess", {"comparator": "<"}, "comparator"),
        ("average", {"threshold": math.nan}, "NaN"),
        ("excess", {"threshold": math.nan}, "NaN"),
        ("median", {}, "criterion"),
    ])
    def test_arguments_checked_before_the_scan(self, monkeypatch, criterion, kwargs, match):
        # n = 4, M = 3 is past the size cap: the arguments fail first, and
        # never after a scan
        def no_scan(*args):
            raise AssertionError("scanned before checking the arguments")

        monkeypatch.setattr(kernels, "best_code_fold_loop", no_scan)
        src, d = bsc_problem(0.15)
        kwargs = {"criterion": criterion, "threshold": 0.4, **kwargs}
        for n, M in ((3, 3), (4, 3)):
            with pytest.raises(ValueError, match=match):
                best_code_search(src, d, FTransform.identity(), n=n, M=M, **kwargs)

    @pytest.mark.parametrize("comparator", [">", ">="])
    @pytest.mark.parametrize("f", SEARCH_TRANSFORMS, ids=lambda f: f.name())
    def test_evaluation_is_evaluate_code_bitwise(self, f, comparator):
        # the search scores its code from its own tables; evaluate_code
        # builds them again and must read the same bits
        rng = np.random.default_rng([17, SEARCH_TRANSFORMS.index(f), len(comparator)])
        searched = 0
        while searched < 12:
            nx, nz, nh = (int(v) for v in rng.integers(2, 4, size=3))
            n, M = int(rng.integers(1, 4)), int(rng.integers(2, 4))
            if M ** (nz**n) * nh ** (n * M) > ENUM_CAP:
                continue
            src = JointSource.from_joint(rng.dirichlet(np.ones(nx * nz)).reshape(nx, nz))
            d = DistortionMatrix(rng.random((nx, nh)))
            criterion = ("average", "excess")[searched % 2]
            # a threshold on a letter's distortion can tell '>' from '>=';
            # every other average search has none and is scored at d_max + 1
            threshold = None if searched % 4 == 0 else float(rng.choice(d.values.ravel()))
            code, ev = best_code_search(src, d, f, n, M, criterion=criterion,
                                        threshold=threshold, comparator=comparator)
            ref = evaluate_code(src, d, f, code, ev.threshold, comparator=comparator)
            assert (ev.avg_distortion, ev.excess_prob, ev.threshold, ev.comparator) == (
                ref.avg_distortion, ref.excess_prob, ref.threshold, ref.comparator)
            searched += 1


def naive_scan(cost, M):
    """Every encoder in lexicographic order, its cells summed afresh."""
    rows = cost.tolist()
    n_dseq = cost.shape[1]
    best = (math.inf, None, None)
    for enc in itertools.product(range(M), repeat=len(rows)):
        cells = [[0.0] * n_dseq for _ in range(M)]
        for w, row in zip(enc, rows):
            cell = cells[w]
            for k in range(n_dseq):
                cell[k] += row[k]
        dec = [min(range(n_dseq), key=cell.__getitem__) for cell in cells]
        val = 0.0
        for cell, k in zip(cells, dec):
            val += cell[k]
        if val < best[0]:
            best = (val, list(enc), dec)
    return best


def _scan_costs():
    rng = np.random.default_rng(23)
    # a single cell over more rows than an index array has dimensions
    shapes = ((1, 1, 2), (81, 1, 3), (2, 2, 2), (3, 3, 3), (4, 2, 4), (8, 3, 8), (9, 3, 4))
    for n_zseq, M, n_dseq in shapes:
        yield pytest.param(rng.random((n_zseq, n_dseq)), M, id=f"random-{n_zseq}-{M}-{n_dseq}")
    rows = rng.random((2, 4))
    yield pytest.param(rows[[0, 1, 0, 0, 1, 1, 0]], 3, id="repeated_rows")
    yield pytest.param(np.tile(rng.random(3), (6, 1)), 2, id="equal_rows")
    yield pytest.param(rng.random((2, 3)), 4, id="empty_cells")
    # cell labels and the two columns are both symmetric: a swap of either
    # maps an optimum to another one
    yield pytest.param(np.array([[0.1, 0.3], [0.3, 0.1]] * 3), 3, id="symmetric")
    yield pytest.param(np.round(rng.random((6, 3)) * 3) / 10, 3, id="rounded")


class TestCodeScanKernel:
    @pytest.mark.parametrize("cost, M", _scan_costs())
    def test_matches_naive_scan_bitwise(self, cost, M):
        val, enc, dec = kernels.best_code_fold_loop(cost, M, M ** len(cost))
        ref_val, ref_enc, ref_dec = naive_scan(cost, M)
        assert (val, enc.tolist(), dec.tolist()) == (ref_val, ref_enc, ref_dec)
        # relabelling the cells maps an optimum to another one, so the
        # lexicographically first starts with label 0
        assert enc[0] == 0

    def test_many_blocks_match_one(self, monkeypatch):
        # 2 prefixes of 3**5 encoders a block: 41 blocks, the last one partial
        cost = np.random.default_rng(29).random((9, 4))
        cost[5] = cost[2]
        whole = kernels.best_code_fold_loop(cost, 3, 3**9)
        monkeypatch.setattr(kernels, "_BLOCK", 2 * 3**5 * 3 * 4)
        blocked = kernels.best_code_fold_loop(cost, 3, 3**9)
        ref_val, ref_enc, ref_dec = naive_scan(cost, 3)
        for val, enc, dec in (whole, blocked):
            assert (val, enc.tolist(), dec.tolist()) == (ref_val, ref_enc, ref_dec)

    def test_total_must_count_every_encoder(self):
        cost = np.random.default_rng(31).random((4, 3))
        with pytest.raises(ValueError, match="total"):
            kernels.best_code_fold_loop(cost, 2, 5)


def constant_code(n):
    return BlockCode(n=n, M=1, encoder=np.zeros(2**n, dtype=int), decoder=np.zeros((1, n)))


@pytest.mark.parametrize("rho, n", [(800.0, 2), (709.0, 3)], ids=["value", "sum"])
@pytest.mark.parametrize("call", [
    lambda src, d, f, n: best_code_search(src, d, f, n=n, M=2),
    lambda src, d, f, n: evaluate_code(src, d, f, constant_code(n), 0.3),
    lambda src, d, f, n: excess_event_equivalence(src, d, f, constant_code(n), 0.3, 0.1),
], ids=["best_code_search", "evaluate_code", "excess_event_equivalence"])
def test_overflowing_transform_raises(call, rho, n):
    # exp(800 d) is inf at d = 1, and three exp(709) sum past the largest
    # double: the tables held inf after a RuntimeWarning
    m = BscModel(0.1, FTransform.exponential(rho))
    with pytest.raises(OutOfRange, match="overflows"):
        call(m.source(), m.distortion(), m.f, n)

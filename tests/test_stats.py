import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from strikeaudit.errors import UndefinedMetricError, UndefinedTestError
from strikeaudit.stats import ContingencyTable, auc, fisher_exact, holm_adjust

from conftest import fresh_python
from oracles import (
    auc_pairwise, auc_pairwise_outer, fisher_two_sided_exact, holm_by_hand, roc_points,
)


class TestFisherExact:
    def test_identical_proportions(self):
        assert fisher_exact(ContingencyTable(10, 10, 10, 10)) == pytest.approx(1.0, abs=1e-12)

    def test_worked_example_3113(self):
        # margins (4,4;4,4): qualifying tables are X in {0,1,3,4}, summing to 34/70
        assert fisher_exact(ContingencyTable(3, 1, 1, 3)) == pytest.approx(34 / 70, abs=1e-12)

    def test_worked_example_5005(self):
        # only X=5 and X=0 qualify, each 1/C(10,5)
        assert fisher_exact(ContingencyTable(5, 0, 0, 5)) == pytest.approx(2 / 252, abs=1e-12)

    @pytest.mark.parametrize("table", [(0, 0, 3, 4), (3, 4, 0, 0), (0, 3, 0, 4), (3, 0, 4, 0)])
    def test_degenerate_margin_rejected(self, table):
        with pytest.raises(UndefinedTestError):
            fisher_exact(ContingencyTable(*table))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            ContingencyTable(-1, 2, 3, 4)

    @pytest.mark.parametrize("counts", [(2.0, 3, 4, 5), (2, 3, True, 5), (2, 3, 4, "5")])
    def test_non_whole_count_rejected(self, counts):
        with pytest.raises(ValueError, match="whole numbers"):
            ContingencyTable(*counts)

    def test_matches_rational_oracle_sampled(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            a, b, c, d = rng.integers(0, 13, size=4)
            if min(a + b, c + d, a + c, b + d) == 0:
                continue
            expected = float(fisher_two_sided_exact(int(a), int(b), int(c), int(d)))
            got = fisher_exact(ContingencyTable(int(a), int(b), int(c), int(d)))
            assert got == pytest.approx(expected, abs=1e-12)

    def test_same_float_whatever_was_tested_before(self):
        code = (
            "import sys\n"
            "from strikeaudit.stats import ContingencyTable as T, fisher_exact\n"
            "for size in map(int, sys.argv[1:]):\n"
            "    fisher_exact(T(size // 4, size // 4, size // 4, size - 3 * (size // 4)))\n"
            "print(repr(fisher_exact(T(400, 300, 200, 1500))))\n"
        )
        assert fresh_python(code) == fresh_python(code, "22", "220")

    def test_symmetry_under_row_and_column_swap(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a, b, c, d = (int(v) for v in rng.integers(1, 15, size=4))
            p = fisher_exact(ContingencyTable(a, b, c, d))
            assert fisher_exact(ContingencyTable(c, d, a, b)) == pytest.approx(p, abs=1e-12)
            assert fisher_exact(ContingencyTable(b, a, d, c)) == pytest.approx(p, abs=1e-12)


class TestHolm:
    def test_single_p_identity(self):
        assert holm_adjust([0.5]).tolist() == [0.5]

    def test_worked_example(self):
        got = holm_adjust([0.01, 0.04, 0.03])
        assert got == pytest.approx([0.03, 0.06, 0.06], abs=1e-15)

    def test_constant_vector_caps_at_one(self):
        assert holm_adjust([0.2] * 5).tolist() == [1.0] * 5

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            holm_adjust([0.5, 1.2])
        with pytest.raises(ValueError):
            holm_adjust([-0.1])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            holm_adjust([math.nan, 0.01])

    def test_empty_input(self):
        assert holm_adjust([]).size == 0

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_properties_on_random_vectors(self, ps):
        adjusted = holm_adjust(ps)
        # never below the raw p-value
        assert np.all(adjusted >= np.asarray(ps) - 1e-15)
        assert np.all(adjusted <= 1.0)
        # monotone with respect to the sorted input order
        order = np.argsort(ps, kind="mergesort")
        assert np.all(np.diff(adjusted[order]) >= -1e-15)
        # matches the literal hand computation
        assert adjusted == pytest.approx(holm_by_hand(ps), abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=50))
    @settings(max_examples=100, deadline=None)
    def test_constant_vector_equals_bonferroni(self, p, m):
        assert holm_adjust([p] * m) == pytest.approx([min(1.0, m * p)] * m, abs=1e-12)


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert auc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_worked_example(self):
        # 3 of the 4 pos/neg pairs are ordered correctly
        assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            auc([0.1, 0.2], [1, 1])

    def test_nan_score_rejected(self):
        # argsort would rank the NaN above every score
        with pytest.raises(ValueError, match="NaN"):
            auc([0.1, math.nan, 0.3, 0.2], [0, 1, 1, 0])

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            scores = rng.choice([0.1, 0.25, 0.5, 0.8], size=n)  # force ties
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            assert auc(scores, labels) == pytest.approx(
                auc_pairwise(scores, labels), abs=1e-12
            )

    def test_bit_equal_to_pairwise_count(self):
        # Twice the pairwise wins is an exact integer on both sides, so the
        # one division must give the same bits, ties or not.
        rng = np.random.default_rng(4)
        for i in range(500):
            n = int(rng.integers(2, 300))
            scores = rng.integers(0, 5, size=n) / 7.0 if i % 2 else rng.random(n)
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            assert auc(scores, labels) == auc_pairwise_outer(scores, labels)

    def test_tied_infinite_scores_tie(self):
        assert auc([math.inf, math.inf], [0, 1]) == 0.5
        assert auc([-math.inf, -math.inf, 0.0], [1, 0, 1]) == 0.75

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(5)
        scores = rng.random(80)
        labels = rng.integers(0, 2, size=80)
        base = auc(scores, labels)
        assert auc(np.exp(3 * scores), labels) == pytest.approx(base, abs=1e-12)

    def test_negation_complement_when_no_ties(self):
        rng = np.random.default_rng(6)
        scores = rng.permutation(100).astype(float)  # all distinct
        labels = rng.integers(0, 2, size=100)
        total = auc(scores, labels) + auc(-scores, labels)
        assert total == pytest.approx(1.0, abs=1e-12)


class TestRocPoints:
    def test_perfect_scores(self):
        curve = roc_points([0, 0, 1, 1], [0, 0, 1, 1])
        assert curve.points == ((0.0, 0.0), (0.0, 1.0), (1.0, 1.0))
        assert curve.auc == pytest.approx(1.0, abs=1e-12)

    def test_all_ties(self):
        curve = roc_points([0.3] * 4, [0, 1, 0, 1])
        assert curve.points == ((0.0, 0.0), (1.0, 1.0))
        assert curve.auc == pytest.approx(0.5, abs=1e-12)

    def test_area_matches_auc(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(4, 120))
            scores = np.round(rng.random(n), 2)
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            curve = roc_points(scores, labels)
            assert curve.auc == pytest.approx(auc(scores, labels), abs=1e-12)

    def test_points_monotone(self):
        rng = np.random.default_rng(12)
        scores = rng.random(50)
        labels = rng.integers(0, 2, size=50)
        curve = roc_points(scores, labels)
        xs = [p[0] for p in curve.points]
        ys = [p[1] for p in curve.points]
        assert xs == sorted(xs) and ys == sorted(ys)
        assert curve.points[0] == (0.0, 0.0) and curve.points[-1] == (1.0, 1.0)


@pytest.mark.parametrize("make, message", [
    (lambda: ContingencyTable(0, 0, 0, 0), "contingency table is all zeros"),
    (lambda: holm_adjust([[0.1, 0.2]]), "p_values must be one-dimensional"),
    (lambda: auc([0.1, 0.2, 0.3], [0, 1]),
     "scores and labels must be 1-d sequences of equal length"),
    (lambda: auc([0.1, 0.2], [0, 2]), "labels must be 0/1"),
])
def test_invalid_arguments_are_rejected(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert type(info.value) is ValueError and str(info.value) == message

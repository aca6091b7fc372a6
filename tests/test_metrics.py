import itertools
import math
import random

import numpy as np
import pytest

from minit5.metrics import (accuracy, classification_report, macro_f1, mse,
                            pearson, prf, format_pair_task_report)

from oracles import reference_macro_f1, reference_pearson


class TestPearson:
    def test_affine_relation_gives_one(self):
        x = [1.0, 2.0, 5.0, 7.0]
        assert pearson(x, [2 * v + 3 for v in x]) == pytest.approx(1.0)

    def test_negative_scaling_flips_sign(self):
        x = [1.0, 2.0, 5.0, 7.0]
        assert pearson(x, [-2 * v + 1 for v in x]) == pytest.approx(-1.0)

    def test_hand_case_sqrt3_over_2(self):
        assert pearson([1, 2, 3], [1, 2, 2]) == pytest.approx(math.sqrt(3) / 2,
                                                              abs=1e-15)

    def test_positive_affine_invariance(self):
        rng = random.Random(0)
        x = [rng.random() for _ in range(50)]
        y = [rng.random() for _ in range(50)]
        base = pearson(x, y)
        assert pearson([3 * v + 7 for v in x], y) == pytest.approx(base, abs=1e-12)
        assert pearson(x, [0.5 * v - 2 for v in y]) == pytest.approx(base, abs=1e-12)

    def test_matches_direct_formula_on_random_vectors(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 2, 1000).tolist()
        y = rng.normal(1, 3, 1000).tolist()
        assert abs(pearson(x, y) - reference_pearson(x, y)) < 1e-12

    def test_errors(self):
        with pytest.raises(ValueError, match="zero variance"):
            pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(ValueError, match="two points"):
            pearson([1], [2])
        with pytest.raises(ValueError, match="length"):
            pearson([1, 2], [1, 2, 3])


class TestMse:
    def test_zero_on_identical(self):
        assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_case(self):
        assert mse([1, 3], [2, 5]) == pytest.approx(2.5)

    def test_symmetry_and_random_oracle(self):
        rng = np.random.default_rng(2)
        a = rng.normal(0, 1, 500).tolist()
        b = rng.normal(0, 1, 500).tolist()
        want = float(np.mean((np.asarray(a) - np.asarray(b)) ** 2))
        assert mse(a, b) == pytest.approx(want, abs=1e-12)
        assert mse(a, b) == mse(b, a)

    def test_length_error(self):
        with pytest.raises(ValueError, match="length"):
            mse([1], [1, 2])


class TestAccuracy:
    def test_all_match(self):
        assert accuracy(["a", "b"], ["a", "b"]) == 1.0

    def test_none_match(self):
        assert accuracy(["a", "b"], ["b", "a"]) == 0.0

    def test_half(self):
        assert accuracy(["a", "b", "a", "b"], ["a", "b", "b", "a"]) == 0.5


class TestMacroF1:
    def test_perfect(self):
        labels = ["entail", "none", "entail"]
        assert macro_f1(labels, labels) == 1.0

    def test_hand_case_11_over_15(self):
        gold = ["entail", "entail", "none", "none"]
        pred = ["entail", "none", "none", "none"]
        assert macro_f1(pred, gold) == pytest.approx(11 / 15, abs=1e-15)

    def test_random_against_reference(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randrange(2, 40)
            gold = [rng.choice(["entail", "none"]) for _ in range(n)]
            pred = [rng.choice(["entail", "none"]) for _ in range(n)]
            want = reference_macro_f1(pred, gold, ("entail", "none"))
            assert macro_f1(pred, gold) == want

    def test_every_labelling_of_up_to_six_items_equals_reference(self):
        """Bit-equal to the three-count formula, absent classes included."""
        for n in range(7):
            labellings = list(itertools.product(("entail", "none"), repeat=n))
            for gold in labellings:
                for pred in labellings:
                    want = reference_macro_f1(pred, gold, ("entail", "none"))
                    assert macro_f1(list(pred), list(gold)) == want, (pred, gold)

    def test_balanced_symmetric_confusion_equals_accuracy(self):
        gold = ["entail", "entail", "none", "none"]
        pred = ["entail", "none", "entail", "none"]
        assert macro_f1(pred, gold) == pytest.approx(accuracy(pred, gold))

    def test_absent_class_contributes_zero(self):
        gold = ["none", "none"]
        pred = ["none", "none"]
        rep = classification_report(pred, gold)
        assert rep.macro_f1 == 0.5


class TestPrf:
    def test_hand_case(self):
        s = prf(n_gold=4, n_pred=2, n_correct=1)
        assert (s.precision, s.recall, s.f1) == (0.5, 0.25, 2 * 0.5 * 0.25 / 0.75)
        assert (s.n_gold, s.n_pred, s.n_correct) == (4, 2, 1)

    def test_empty_sides_score_zero(self):
        assert prf(0, 0, 0).f1 == 0.0
        assert prf(3, 0, 0).precision == 0.0
        assert prf(0, 3, 0).recall == 0.0


class TestReports:
    def test_classification_report_fields(self):
        gold = ["entail", "none", "none", "entail"]
        pred = ["entail", "entail", "none", "none"]
        rep = classification_report(pred, gold)
        assert rep.accuracy == accuracy(pred, gold) == 0.5
        assert rep.macro_f1 == macro_f1(pred, gold)

    def test_report_row_order(self):
        text = format_pair_task_report(0.5, 0.25, None, None)
        row = text.strip().splitlines()[-1]
        assert row.split("\t") == ["0.500000", "0.250000", "-", "-"]
        text2 = format_pair_task_report(None, None, 0.875, 0.75)
        row2 = text2.strip().splitlines()[-1]
        assert row2.split("\t") == ["-", "-", "0.875000", "0.750000"]

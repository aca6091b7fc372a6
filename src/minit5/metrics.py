"""Regression and classification metrics: Pearson correlation, MSE, accuracy,
macro F1 over the entailment classes, and the one precision/recall/F1 rule
that entity scoring shares."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .atomic import format_rows

ENTAILMENT_CLASSES = ("entail", "none")


@dataclass(frozen=True)
class ClassScore:
    precision: float
    recall: float
    f1: float
    n_gold: int
    n_pred: int
    n_correct: int


@dataclass(frozen=True)
class ClassificationReport:
    accuracy: float
    macro_f1: float


def prf(n_gold: int, n_pred: int, n_correct: int) -> ClassScore:
    """Precision, recall and F1 of n_correct matches among n_pred predictions
    and n_gold gold items; a ratio with nothing to divide by is 0."""
    p = n_correct / n_pred if n_pred else 0.0
    r = n_correct / n_gold if n_gold else 0.0
    f1 = 0.0 if p + r == 0.0 else 2.0 * p * r / (p + r)
    return ClassScore(p, r, f1, n_gold, n_pred, n_correct)


def pearson(x: list[float], y: list[float]) -> float:
    """Sample Pearson correlation coefficient."""
    if len(x) != len(y):
        raise ValueError("length mismatch")
    n = len(x)
    if n < 2:
        raise ValueError("need at least two points")
    mx = sum(x) / n
    my = sum(y) / n
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("zero variance")
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    return sxy / math.sqrt(sxx * syy)


def mse(pred: list[float], gold: list[float]) -> float:
    if len(pred) != len(gold):
        raise ValueError("length mismatch")
    if not pred:
        raise ValueError("empty input")
    return sum((p - g) ** 2 for p, g in zip(pred, gold)) / len(pred)


def accuracy(pred_labels: list, gold_labels: list) -> float:
    if len(pred_labels) != len(gold_labels):
        raise ValueError("length mismatch")
    if not pred_labels:
        raise ValueError("empty input")
    return sum(p == g for p, g in zip(pred_labels, gold_labels)) / len(pred_labels)


def macro_f1(pred_labels: list, gold_labels: list) -> float:
    """Unweighted mean of per-class F1 over the entailment classes. A class
    absent from both gold and predictions contributes F1 = 0."""
    if len(pred_labels) != len(gold_labels):
        raise ValueError("length mismatch")
    pairs = list(zip(pred_labels, gold_labels))
    f1s = [prf(gold_labels.count(cls), pred_labels.count(cls), pairs.count((cls, cls))).f1
           for cls in ENTAILMENT_CLASSES]
    return sum(f1s) / len(f1s)


def classification_report(pred_labels: list, gold_labels: list) -> ClassificationReport:
    return ClassificationReport(accuracy=accuracy(pred_labels, gold_labels),
                                macro_f1=macro_f1(pred_labels, gold_labels))


def format_pair_task_report(pearson_v: float | None, mse_v: float | None,
                            accuracy_v: float | None, f1_v: float | None,
                            unparsed_scores: int | None = None) -> str:
    """Flat key=value report, the unparsed_scores count last, plus one
    tab-separated row in the fixed column order (pearson, mse, accuracy, f1);
    an absent metric has no key=value line and prints as '-' in the row."""
    values = (pearson_v, mse_v, accuracy_v, f1_v)
    pairs = zip(("pearson", "mse", "accuracy", "f1", "unparsed_scores"),
                values + (unparsed_scores,))
    return (format_rows([(k, v) for k, v in pairs if v is not None], "=")
            + format_rows([values]))

"""Regression and classification metrics: Pearson correlation, MSE, accuracy,
macro F1 over the entailment classes."""

from __future__ import annotations

import math
from dataclasses import dataclass

ENTAILMENT_CLASSES = ("entail", "none")


@dataclass(frozen=True)
class RegressionReport:
    pearson: float
    mse: float
    n: int


@dataclass(frozen=True)
class ClassificationReport:
    accuracy: float
    macro_f1: float
    confusion: dict[tuple[str, str], int]  # (gold, pred) -> count
    degenerate_classes: tuple[str, ...]    # absent from both gold and pred


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


def _f1(p: float, r: float) -> float:
    return 0.0 if p + r == 0.0 else 2.0 * p * r / (p + r)


def macro_f1(pred_labels: list, gold_labels: list, average: str = "macro") -> float:
    """Unweighted (or gold-support-weighted) mean of per-class F1 over the
    entailment classes. A class absent from both gold and predictions
    contributes F1 = 0."""
    if len(pred_labels) != len(gold_labels):
        raise ValueError("length mismatch")
    if average not in ("macro", "weighted"):
        raise ValueError("average must be macro or weighted")
    f1s, weights = [], []
    for cls in ENTAILMENT_CLASSES:
        tp = sum(1 for p, g in zip(pred_labels, gold_labels) if p == cls and g == cls)
        fp = sum(1 for p, g in zip(pred_labels, gold_labels) if p == cls and g != cls)
        fn = sum(1 for p, g in zip(pred_labels, gold_labels) if p != cls and g == cls)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(_f1(prec, rec))
        weights.append(tp + fn)
    if average == "macro":
        return sum(f1s) / len(f1s)
    total = sum(weights)
    if total == 0:
        return 0.0
    return sum(f * w for f, w in zip(f1s, weights)) / total


def regression_report(pred: list[float], gold: list[float]) -> RegressionReport:
    return RegressionReport(pearson=pearson(pred, gold), mse=mse(pred, gold),
                            n=len(pred))


def classification_report(pred_labels: list, gold_labels: list) -> ClassificationReport:
    confusion = {(g, p): 0 for g in ENTAILMENT_CLASSES for p in ENTAILMENT_CLASSES}
    for p, g in zip(pred_labels, gold_labels):
        confusion[(g, p)] += 1
    degenerate = tuple(c for c in ENTAILMENT_CLASSES
                       if c not in pred_labels and c not in gold_labels)
    return ClassificationReport(
        accuracy=accuracy(pred_labels, gold_labels),
        macro_f1=macro_f1(pred_labels, gold_labels),
        confusion=confusion,
        degenerate_classes=degenerate)


def format_pair_task_report(pearson_v: float | None, mse_v: float | None,
                            accuracy_v: float | None, f1_v: float | None) -> str:
    """Flat key=value report plus one tab-separated row in the fixed column
    order (pearson, mse, accuracy, f1); absent metrics print as '-'."""

    def fmt(v):
        return "-" if v is None else f"{v:.6f}"

    lines = []
    for key, v in (("pearson", pearson_v), ("mse", mse_v),
                   ("accuracy", accuracy_v), ("f1", f1_v)):
        if v is not None:
            lines.append(f"{key}={fmt(v)}")
    row = "\t".join(fmt(v) for v in (pearson_v, mse_v, accuracy_v, f1_v))
    return "\n".join(lines) + "\n" + row + "\n"

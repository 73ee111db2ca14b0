"""Evaluation: confusion counts, the five scores, uncertainty separation.

All scores derive from accumulated pixel counts, so dataset results are
micro-averaged: summing per-image confusion matrices and scoring once
equals scoring a single concatenated image.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ShapeError

METRIC_ORDER = ("kappa", "iou", "f1", "rec", "pre", "oa")


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(self.tp + other.tp, self.fp + other.fp,
                               self.fn + other.fn, self.tn + other.tn)


def confusion(pred, gt) -> ConfusionMatrix:
    """Pixel counts with 'changed' as the positive class."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ShapeError(f"confusion: prediction {pred.shape} and ground "
                         f"truth {gt.shape} must match")
    for name, arr in (("prediction", pred), ("ground truth", gt)):
        if not np.isin(arr, (0, 1)).all():
            raise ValueError(f"confusion: {name} must be binary")
    p = pred.astype(bool)
    g = gt.astype(bool)
    return ConfusionMatrix(tp=int(np.count_nonzero(p & g)),
                           fp=int(np.count_nonzero(p & ~g)),
                           fn=int(np.count_nonzero(~p & g)),
                           tn=int(np.count_nonzero(~p & ~g)))


@dataclass(frozen=True)
class MetricScores:
    """The five scores plus overall accuracy.

    A metric whose denominator vanishes is reported as 0.0 and its name
    listed in ``degenerate``.
    """

    kappa: float
    iou: float
    f1: float
    rec: float
    pre: float
    oa: float
    degenerate: frozenset = field(default_factory=frozenset)


def score(cm: ConfusionMatrix) -> MetricScores:
    """Kappa, IoU, F1, recall, precision and overall accuracy."""
    n = cm.total
    if n == 0:
        raise ValueError("score: confusion matrix is empty")
    degenerate = set()

    def ratio(num: int, den: int, name: str) -> float:
        if den == 0:
            degenerate.add(name)
            return 0.0
        return num / den

    pre = ratio(cm.tp, cm.tp + cm.fp, "pre")
    rec = ratio(cm.tp, cm.tp + cm.fn, "rec")
    if pre + rec == 0.0:
        degenerate.add("f1")
        f1 = 0.0
    else:
        f1 = 2.0 * pre * rec / (pre + rec)
    iou = ratio(cm.tp, cm.tp + cm.fp + cm.fn, "iou")
    oa = (cm.tp + cm.tn) / n
    pe = ((cm.tp + cm.fp) * (cm.tp + cm.fn)
          + (cm.fn + cm.tn) * (cm.fp + cm.tn)) / (n * n)
    if pe == 1.0:
        degenerate.add("kappa")
        kappa = 0.0
    else:
        kappa = (oa - pe) / (1.0 - pe)
    return MetricScores(kappa, iou, f1, rec, pre, oa,
                        degenerate=frozenset(degenerate))


@dataclass(frozen=True)
class UncertaintySeparation:
    """Mean predicted uncertainty over wrong vs correct pixels.

    A mean is None when its pixel partition is empty.
    """

    mean_on_errors: Optional[float]
    mean_on_correct: Optional[float]


def uncertainty_separation(p_unc, pred, gt) -> UncertaintySeparation:
    """Partition pixels by prediction correctness and average uncertainty."""
    p_unc = np.asarray(p_unc)
    pred = np.asarray(pred).astype(bool)
    gt = np.asarray(gt).astype(bool)
    if not (p_unc.shape == pred.shape == gt.shape):
        raise ShapeError(f"uncertainty_separation: shapes {p_unc.shape}, "
                         f"{pred.shape}, {gt.shape} must match")
    wrong = pred != gt
    mean_err = float(p_unc[wrong].mean()) if wrong.any() else None
    mean_ok = float(p_unc[~wrong].mean()) if (~wrong).any() else None
    return UncertaintySeparation(mean_err, mean_ok)


def format_table(scores: MetricScores) -> str:
    """Human-readable two-row table."""
    header = "  ".join(f"{name:>8s}" for name in METRIC_ORDER)
    row = "  ".join(f"{getattr(scores, name):8.4f}" for name in METRIC_ORDER)
    lines = [header, row]
    if scores.degenerate:
        lines.append("degenerate: " + ", ".join(sorted(scores.degenerate)))
    return "\n".join(lines)


def format_kv(scores: MetricScores) -> str:
    """Machine-readable key=value lines, one metric per line."""
    return "\n".join(f"{name}={getattr(scores, name):.6f}"
                     for name in METRIC_ORDER)

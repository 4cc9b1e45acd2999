"""Evaluation metrics: one-vs-rest Sen/Spe/HM/AUC plus multi-class Acc.

Sensitivity, specificity, their harmonic mean, and AUC binarize the
problem against a designated positive class; accuracy stays multi-class
(so Acc can legitimately sit below HM on 4-class data). The final report
aggregates the last ten epochs with mean and population variance.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .textio import write_csv, write_json

REPORT_WINDOW = 10
METRIC_NAMES = ("sen", "spe", "hm", "auc", "acc")


class MetricError(ValueError):
    pass


def confusion(predicted, true_labels, n_classes: int) -> np.ndarray:
    """counts[t][p] = number of samples with true class t predicted as p."""
    pred = np.asarray(predicted, dtype=np.int64)
    true = np.asarray(true_labels, dtype=np.int64)
    if pred.shape != true.shape or pred.ndim != 1:
        raise MetricError(f"shape mismatch: predicted {pred.shape}, true {true.shape}")
    if len(pred) == 0:
        raise MetricError("no samples")
    for name, arr in (("predicted", pred), ("true", true)):
        if arr.min() < 0 or arr.max() >= n_classes:
            raise MetricError(f"{name} label out of range [0, {n_classes})")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (true, pred), 1)
    return counts


def sen_spe_hm_acc(cm: np.ndarray, positive_class: int) -> tuple[float, float, float, float]:
    cm = np.asarray(cm)
    k = cm.shape[0]
    if cm.ndim != 2 or cm.shape[1] != k:
        raise MetricError(f"confusion matrix must be square, got {cm.shape}")
    if not 0 <= positive_class < k:
        raise MetricError(f"positive_class {positive_class} out of range [0, {k})")
    total = int(cm.sum())
    tp = int(cm[positive_class, positive_class])
    fn = int(cm[positive_class].sum()) - tp
    fp = int(cm[:, positive_class].sum()) - tp
    tn = total - tp - fn - fp
    if tp + fn == 0:
        raise MetricError("undefined sensitivity: no positive samples")
    if tn + fp == 0:
        raise MetricError("undefined specificity: no negative samples")
    sen = tp / (tp + fn)
    spe = tn / (tn + fp)
    hm = 0.0 if sen + spe == 0.0 else 2.0 * sen * spe / (sen + spe)
    acc = float(np.trace(cm)) / total
    return sen, spe, hm, acc


def auc(scores, binary_labels) -> float:
    """Mann-Whitney statistic: P(score_pos > score_neg) + 0.5 P(tie)."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(binary_labels)
    if s.shape != y.shape or s.ndim != 1:
        raise MetricError(f"shape mismatch: scores {s.shape}, labels {y.shape}")
    pos = s[y == 1]
    neg = s[y == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise MetricError("AUC undefined: need both classes present")
    wins = np.sum(pos[:, None] > neg[None, :])
    ties = np.sum(pos[:, None] == neg[None, :])
    return float((wins + 0.5 * ties) / (len(pos) * len(neg)))


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    sen: float
    spe: float
    hm: float
    auc: float
    acc: float


@dataclass(frozen=True)
class MetricsReport:
    """Mean and population variance per metric over the report window."""

    means: dict[str, float]
    variances: dict[str, float]
    window: int

    @staticmethod
    def from_history(history: list[EpochMetrics]) -> "MetricsReport":
        if not history:
            raise MetricError("empty history")
        tail = history[-REPORT_WINDOW:]
        means: dict[str, float] = {}
        variances: dict[str, float] = {}
        for name in METRIC_NAMES:
            values = np.array([getattr(em, name) for em in tail])
            means[name] = float(values.mean())
            variances[name] = float(values.var())
        return MetricsReport(means=means, variances=variances, window=len(tail))


def write_epoch_csv(history: list[EpochMetrics], path) -> None:
    write_csv(path, ("epoch", *METRIC_NAMES), map(astuple, history))


def read_epoch_csv(path) -> list[EpochMetrics]:
    history: list[EpochMetrics] = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "epoch,sen,spe,hm,auc,acc":
            raise MetricError(f"{path}: unexpected header {header!r}")
        for line in fh:
            cells = line.strip().split(",")
            history.append(EpochMetrics(int(cells[0]), *(float(c) for c in cells[1:])))
    return history


def write_report_json(report: MetricsReport, path) -> None:
    doc = {
        name: {"mean": report.means[name], "variance": report.variances[name]}
        for name in METRIC_NAMES
    }
    write_json(path, doc)

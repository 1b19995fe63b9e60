"""Error metrics, resolution binning/confusion, and parameter sweeps."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class EvalError(Exception):
    pass


class EmptyAfterExclusion(EvalError):
    pass


class AllExcluded(EvalError):
    pass


class UnknownClass(EvalError):
    pass


def _paired(pred, truth):
    """Both sides as float64 arrays (None and numeric strings convert),
    less the pairs where either side is missing (None/nan)."""
    if len(pred) != len(truth):
        raise EvalError(f"length mismatch {len(pred)} != {len(truth)}")
    p = np.array(pred, dtype=np.float64)
    t = np.array(truth, dtype=np.float64)
    keep = ~(np.isnan(p) | np.isnan(t))
    return p[keep], t[keep]


def mae(pred, truth):
    p, t = _paired(pred, truth)
    if len(p) == 0:
        raise EmptyAfterExclusion("no valid pairs")
    return float(np.mean(np.abs(p - t)))


def mrae(pred, truth):
    """Mean |error|/truth; zero-truth pairs are excluded. Returns
    (value, excluded_count)."""
    p, t = _paired(pred, truth)
    keep = t > 0
    excluded = int(len(t) - keep.sum())
    if not keep.any():
        raise AllExcluded("every pair has zero ground truth")
    value = float(np.mean(np.abs(p[keep] - t[keep]) / t[keep]))
    return value, excluded


def within_tolerance(pred, truth, tol):
    p, t = _paired(pred, truth)
    if len(p) == 0:
        raise EmptyAfterExclusion("no valid pairs")
    return float(np.mean(np.abs(p - t) <= tol))


@dataclass(frozen=True)
class ResolutionBinning:
    """Frame-height classes: either one class per distinct height, or three
    bins (low <= 240 < medium <= 480 < high)."""
    mode: str = "binned"
    edges: tuple = (240, 480)
    labels: tuple = ("low", "medium", "high")

    def __post_init__(self):
        if list(self.edges) != sorted(set(self.edges)):
            raise ValueError("edges must be strictly increasing")

    def classify(self, height):
        if self.mode == "per_value":
            return str(int(height))
        for edge, label in zip(self.edges, self.labels):
            if height <= edge:
                return label
        return self.labels[len(self.edges)]

    def class_set(self, heights=()):
        if self.mode == "per_value":
            return [str(int(h)) for h in sorted(set(heights))]
        return list(self.labels)


def binning_for_heights(heights):
    """Per-value classes when few distinct heights exist, three bins
    otherwise."""
    distinct = set(int(h) for h in heights)
    if len(distinct) <= 5:
        return ResolutionBinning(mode="per_value")
    return ResolutionBinning(mode="binned")


@dataclass
class ConfusionMatrix:
    classes: list
    counts: list          # rows actual, columns predicted
    row_percent: list
    row_totals: list

    def accuracy(self):
        total = sum(self.row_totals)
        if total == 0:
            return 0.0
        return sum(self.counts[i][i] for i in range(len(self.classes))) / total


def resolution_confusion(pred_classes, truth_classes, binning):
    """Row-normalized confusion matrix (percent) with per-row totals, over
    the classes of binning."""
    classes = binning.class_set(truth_classes)
    index = {c: i for i, c in enumerate(classes)}
    k = len(classes)
    counts = [[0] * k for _ in range(k)]
    for p, t in zip(pred_classes, truth_classes):
        if p not in index or t not in index:
            raise UnknownClass(f"class {p if p not in index else t!r}")
        counts[index[t]][index[p]] += 1
    totals = [sum(row) for row in counts]
    percent = [[(100.0 * c / tot if tot else 0.0) for c in row]
               for row, tot in zip(counts, totals)]
    return ConfusionMatrix(list(classes), counts, percent, totals)


@dataclass
class EvalReport:
    """Per-metric summary for one estimator/method."""
    metric: str
    mae: float
    mrae: float = None
    within_tolerance: dict = field(default_factory=dict)
    n_pairs: int = 0
    n_excluded: int = 0
    residuals: list = field(default_factory=list)

    def to_dict(self):
        return {"metric": self.metric, "mae": self.mae, "mrae": self.mrae,
                "within_tolerance": self.within_tolerance,
                "n_pairs": self.n_pairs, "n_excluded": self.n_excluded}


def evaluate_metric(pred, truth, metric, tolerances=()):
    p, t = _paired(pred, truth)
    report = EvalReport(metric=metric, mae=mae(p, t), n_pairs=len(p),
                        n_excluded=len(pred) - len(p),
                        residuals=(p - t).tolist())
    if (t > 0).any():
        report.mrae, _excluded = mrae(p, t)
    report.within_tolerance = {str(tol): within_tolerance(p, t, tol)
                               for tol in tolerances}
    return report


def sweep(runner, axis_values):
    """Run a parameterized experiment once per axis value.

    runner(value) -> float (typically an MAE); returns [(value, result)].
    """
    if not axis_values:
        raise EvalError("axis values list is empty")
    return [(v, runner(v)) for v in axis_values]

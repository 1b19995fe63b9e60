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
    if not tol >= 0:
        raise EvalError(f"tolerance must not be negative or nan, got {tol}")
    p, t = _paired(pred, truth)
    if len(p) == 0:
        raise EmptyAfterExclusion("no valid pairs")
    return float(np.mean(np.abs(p - t) <= tol))


# Frame-height bins, each (upper edge, class), in increasing edge order
HEIGHT_BINS = ((240, "low"), (480, "medium"), (float("inf"), "high"))


@dataclass(frozen=True)
class ResolutionBinning:
    """Frame-height classes: either one class per distinct height, or the
    three HEIGHT_BINS (low <= 240 < medium <= 480 < high)."""
    mode: str = "binned"

    def classify(self, height):
        if self.mode == "per_value":
            return str(int(height))
        return next(label for edge, label in HEIGHT_BINS if height <= edge)

    def class_set(self, heights=()):
        """The classes in increasing height order."""
        if self.mode == "per_value":
            return [str(h) for h in sorted({int(h) for h in heights})]
        return [label for _edge, label in HEIGHT_BINS]


def binning_for_heights(heights):
    """Per-value classes when few distinct heights exist, three bins
    otherwise."""
    distinct = {int(h) for h in heights}
    return ResolutionBinning("per_value" if len(distinct) <= 5 else "binned")


@dataclass
class ConfusionMatrix:
    """Rows actual, columns predicted, over classes; row_percent is each
    row in percent of its total, 0.0 in a row without samples."""
    classes: list
    counts: list
    row_percent: list
    row_totals: list

    @classmethod
    def of(cls, classes, actual, predicted):
        """The matrix of two code arrays, each code an index of classes."""
        k = len(classes)
        pairs = np.asarray(actual, np.int64) * k + predicted
        counts = np.bincount(pairs, minlength=k * k).reshape(k, k).tolist()
        totals = [sum(row) for row in counts]
        percent = [[(100.0 * c / tot if tot else 0.0) for c in row]
                   for row, tot in zip(counts, totals)]
        return cls(list(classes), counts, percent, totals)

    def accuracy(self):
        total = sum(self.row_totals)
        if total == 0:
            return 0.0
        return sum(self.counts[i][i] for i in range(len(self.classes))) / total

    def recall(self, cls):
        """The share of class cls samples predicted cls; 0.0 without any."""
        i = self.classes.index(cls)
        return self.row_percent[i][i] / 100.0 if self.row_totals[i] else 0.0


def resolution_confusion(pred_classes, truth_classes, binning):
    """Row-normalized confusion matrix (percent) with per-row totals, over
    the classes of binning; EmptyAfterExclusion without a pair."""
    if not len(truth_classes):
        raise EmptyAfterExclusion("no valid pairs")
    classes = binning.class_set(truth_classes)
    index = {c: i for i, c in enumerate(classes)}
    try:
        pred, truth = ([index[c] for c in side]
                       for side in (pred_classes, truth_classes))
    except KeyError as exc:
        raise UnknownClass(f"class {exc.args[0]!r}") from None
    return ConfusionMatrix.of(classes, truth, pred)


@dataclass
class EvalReport:
    """Per-metric summary for one estimator/method."""
    metric: str
    mae: float
    mrae: float = None
    within_tolerance: dict = field(default_factory=dict)
    n_pairs: int = 0
    n_excluded: int = 0

    def to_dict(self):
        return {"metric": self.metric, "mae": self.mae, "mrae": self.mrae,
                "within_tolerance": self.within_tolerance,
                "n_pairs": self.n_pairs, "n_excluded": self.n_excluded}


def evaluate_metric(pred, truth, metric, tolerances=()):
    p, t = _paired(pred, truth)
    report = EvalReport(metric=metric, mae=mae(p, t), n_pairs=len(p),
                        n_excluded=len(pred) - len(p))
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

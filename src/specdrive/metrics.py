"""Confusion-matrix accumulation and segmentation scores.

Ground truth masks are weakly labelled: pixels carrying the ignore label
(default 255) are skipped entirely. Per class the report carries recall,
precision and intersection-over-union, aggregated three ways: overall
(micro, every scored pixel counts once), mean (plain class average) and
weighted (inverse class frequency, normalized to sum 1). Zero-denominator
metrics are reported as missing and left out of the aggregates.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyMatrix, InvalidOption, LabelOutOfRange, ShapeMismatch

IGNORE_LABEL = 255


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # (C, C) int64, rows = ground truth, cols = prediction

    @classmethod
    def empty(cls, num_classes: int) -> "ConfusionMatrix":
        return cls(np.zeros((num_classes, num_classes), np.int64))

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def merge(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        """Elementwise add: matrices accumulated in parallel can be merged
        in any order."""
        if self.counts.shape != other.counts.shape:
            raise ShapeMismatch("cannot merge confusion matrices of different sizes")
        return ConfusionMatrix(self.counts + other.counts)

    def __add__(self, other):
        return self.merge(other)


def accumulate(
    gt: np.ndarray,
    pred: np.ndarray,
    num_classes: int,
    ignore_label: int = IGNORE_LABEL,
    into: ConfusionMatrix | None = None,
) -> ConfusionMatrix:
    """Tally gt/prediction pairs, skipping ignore-labelled ground truth."""
    gt = np.asarray(gt)
    pred = np.asarray(pred)
    if gt.shape != pred.shape:
        raise ShapeMismatch(f"gt {gt.shape} vs prediction {pred.shape}")
    g = gt.ravel().astype(np.int64)
    p = pred.ravel().astype(np.int64)
    keep = g != ignore_label
    g, p = g[keep], p[keep]
    if g.size and (g.min() < 0 or g.max() >= num_classes):
        raise LabelOutOfRange(f"ground-truth label outside [0, {num_classes})")
    if p.size and (p.min() < 0 or p.max() >= num_classes):
        raise LabelOutOfRange(f"predicted label outside [0, {num_classes})")
    binned = np.bincount(g * num_classes + p, minlength=num_classes * num_classes)
    cm = ConfusionMatrix(binned.reshape(num_classes, num_classes))
    return cm if into is None else into.merge(cm)


@dataclass
class MetricsReport:
    recall: np.ndarray       # per class, nan where undefined
    precision: np.ndarray
    iou: np.ndarray
    overall: tuple[float, float, float]
    mean: tuple[float, float, float]
    weighted: tuple[float, float, float]
    weights: np.ndarray      # per class, nan for classes absent from gt
    present: np.ndarray      # bool per class
    warnings: list[str] = field(default_factory=list)


def inverse_frequency_weights(frequencies: np.ndarray) -> np.ndarray:
    """w_i proportional to 1/f_i, normalized to sum 1."""
    freq = np.asarray(frequencies, np.float64)
    inv = 1.0 / freq
    return inv / inv.sum()


def compute_metrics(
    cm: ConfusionMatrix,
    weights: np.ndarray | None = None,
    frequencies: np.ndarray | None = None,
) -> MetricsReport:
    """Derive per-class and aggregate scores from a confusion matrix.

    Weights come from, in order of precedence: the explicit `weights`
    vector, inverse `frequencies` (one finite value >= 0 per class, summing
    to more than 0), or inverse class frequency observed in the matrix
    itself. Classes absent from the ground truth are excluded
    from the mean and weighted aggregates (with a warning), and the weights
    are renormalized over the remaining classes.
    """
    total = cm.total
    if total == 0:
        raise EmptyMatrix("no scored pixels")
    counts = cm.counts.astype(np.float64)
    tp = np.diag(counts)
    gt_count = counts.sum(axis=1)
    pred_count = counts.sum(axis=0)
    fn = gt_count - tp
    fp = pred_count - tp

    warnings: list[str] = []
    with np.errstate(divide="ignore", invalid="ignore"):
        recall = np.where(tp + fn > 0, tp / (tp + fn), np.nan)
        precision = np.where(tp + fp > 0, tp / (tp + fp), np.nan)
        iou = np.where(tp + fn + fp > 0, tp / (tp + fn + fp), np.nan)

    trace = tp.sum()
    overall = (
        trace / total,
        trace / total,
        trace / (2 * total - trace),
    )

    present = gt_count > 0
    absent = np.flatnonzero(~present)
    if absent.size:
        warnings.append(
            f"classes {absent.tolist()} absent from ground truth; "
            "excluded from mean/weighted aggregates"
        )

    def aggregate(metric: np.ndarray, w: np.ndarray | None) -> float:
        ok = present & ~np.isnan(metric)
        dropped = np.flatnonzero(present & np.isnan(metric))
        if dropped.size:
            warnings.append(
                f"metric undefined for classes {dropped.tolist()}; excluded"
            )
        if not ok.any():
            return float("nan")
        if w is None:
            return float(metric[ok].mean())
        return float((metric[ok] * w[ok] / w[ok].sum()).sum())

    if weights is not None:
        w_full = np.asarray(weights, np.float64)
        if w_full.shape != (cm.num_classes,):
            raise ShapeMismatch("weights length must equal the class count")
        w_full = w_full / w_full.sum()
    else:
        freq = (
            _check_frequencies(frequencies, cm.num_classes)
            if frequencies is not None
            else gt_count / total
        )
        pos = freq > 0
        inv = np.zeros_like(freq)
        inv[pos] = 1.0 / freq[pos]
        w_full = np.where(pos, inv / inv[pos].sum(), np.nan)

    mean = tuple(aggregate(m, None) for m in (recall, precision, iou))
    weighted = tuple(aggregate(m, w_full) for m in (recall, precision, iou))

    return MetricsReport(
        recall=recall,
        precision=precision,
        iou=iou,
        overall=overall,
        mean=mean,
        weighted=weighted,
        weights=w_full,
        present=present,
        warnings=warnings,
    )


def _check_frequencies(frequencies, num_classes: int) -> np.ndarray:
    freq = np.asarray(frequencies, np.float64)
    if freq.shape != (num_classes,):
        raise ShapeMismatch(
            f"{freq.size} frequencies given for {num_classes} classes")
    if not (np.isfinite(freq).all() and (freq >= 0).all() and freq.sum() > 0):
        raise InvalidOption(
            f"frequencies must be finite, >= 0 and not all 0, got {freq.tolist()}")
    with np.errstate(divide="ignore", over="ignore"):
        if not np.isfinite(1.0 / freq[freq > 0]).all():
            raise InvalidOption(f"frequencies too small to invert: {freq.tolist()}")
    return freq


def report_csv(report: MetricsReport, class_names: list[str] | None = None) -> str:
    """Percentages with two decimals, one row per class plus the aggregates."""
    n = len(report.recall)
    names = class_names or [f"class{i}" for i in range(n)]

    def fmt(v: float) -> str:
        return "" if np.isnan(v) else f"{100 * v:.2f}"

    buf = io.StringIO()
    buf.write("name,recall,precision,iou\n")
    for i in range(n):
        buf.write(
            f"{names[i]},{fmt(report.recall[i])},{fmt(report.precision[i])},"
            f"{fmt(report.iou[i])}\n"
        )
    for label, row in (
        ("overall", report.overall),
        ("mean", report.mean),
        ("weighted", report.weighted),
    ):
        buf.write(f"{label},{fmt(row[0])},{fmt(row[1])},{fmt(row[2])}\n")
    return buf.getvalue()

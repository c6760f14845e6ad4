"""Confusion-matrix accumulation and segmentation scores.

Ground truth masks are weakly labelled: pixels carrying the ignore label
(default 255) are skipped entirely. Per class the report carries recall,
precision and intersection-over-union, aggregated three ways: overall
(micro, every scored pixel counts once), mean (plain class average) and
weighted (inverse class frequency, normalized to sum 1). A zero-denominator
metric is reported as missing (NaN). One rule leaves classes out of the mean
and weighted aggregates: absent from the ground truth, a missing score, and
(weighted only) a frequency of 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyMatrix, InvalidOption, LabelOutOfRange, ShapeMismatch

IGNORE_LABEL = 255


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # (C, C) int64, rows = ground truth, cols = prediction

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def accumulate(
    gt: np.ndarray,
    pred: np.ndarray,
    num_classes: int,
    ignore_label: int = IGNORE_LABEL,
) -> ConfusionMatrix:
    """Tally gt/prediction pairs into a new matrix, skipping pixels whose
    ground truth is ignore_label."""
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
    return ConfusionMatrix(binned.reshape(num_classes, num_classes))


@dataclass
class MetricsReport:
    recall: np.ndarray       # per class, nan where undefined
    precision: np.ndarray
    iou: np.ndarray
    overall: tuple[float, float, float]
    mean: tuple[float, float, float]
    weighted: tuple[float, float, float]
    weights: np.ndarray      # per class, nan where its frequency (given or observed) is 0
    present: np.ndarray      # bool per class
    warnings: list[str] = field(default_factory=list)


def inverse_frequency_weights(frequencies: np.ndarray) -> np.ndarray:
    """w_i proportional to 1/f_i, normalized to sum 1."""
    freq = np.asarray(frequencies, np.float64)
    inv = 1.0 / freq
    return inv / inv.sum()


def compute_metrics(
    cm: ConfusionMatrix,
    frequencies: np.ndarray | None = None,
) -> MetricsReport:
    """Derive per-class and aggregate scores from a confusion matrix.

    A per-class score whose denominator is 0 is NaN: undefined. The weighted
    aggregate uses inverse_frequency_weights of `frequencies` (one finite value
    >= 0 per class, summing to more than 0) if given, else of the class
    frequencies observed in the matrix itself; a class of frequency 0 has
    weight NaN. One rule picks the classes of every mean and weighted
    aggregate: those present in the ground truth whose score is defined, and,
    for the weighted aggregate, whose weight is defined too; the weights are
    renormalized over them. Each reason that leaves classes out gives one
    warning naming them.
    """
    total = cm.total
    if total == 0:
        raise EmptyMatrix("no scored pixels")
    counts = cm.counts.astype(np.float64)
    tp = np.diag(counts)
    gt_count = counts.sum(axis=1)
    pred_count = counts.sum(axis=0)
    # tp is 0 wherever a denominator is, so 0/0 gives NaN and nothing else
    with np.errstate(invalid="ignore"):
        recall = tp / gt_count
        precision = tp / pred_count
        iou = tp / (gt_count + pred_count - tp)

    trace = tp.sum()
    overall = (
        trace / total,
        trace / total,
        trace / (2 * total - trace),
    )

    present = gt_count > 0
    freq = (gt_count / total if frequencies is None
            else _check_frequencies(frequencies, cm.num_classes))
    pos = freq > 0
    weights = np.full_like(freq, np.nan)
    weights[pos] = inverse_frequency_weights(freq[pos])

    def aggregate(metric: np.ndarray, weighted: bool) -> float:
        ok = present & ~np.isnan(metric)
        if weighted:
            ok &= pos
        if not ok.any():
            return float("nan")
        if not weighted:
            return float(metric[ok].mean())
        w = weights[ok]
        return float((metric[ok] * w / w.sum()).sum())

    metrics = (recall, precision, iou)
    reasons = (
        (~present, "absent from ground truth; excluded from mean/weighted aggregates"),
        (present & np.isnan(precision),
         "never predicted, so their precision is undefined; "
         "excluded from mean/weighted precision"),
        (present & ~pos,
         "of frequency 0, so without weight; excluded from weighted aggregates"),
    )
    return MetricsReport(
        recall=recall,
        precision=precision,
        iou=iou,
        overall=overall,
        mean=tuple(aggregate(m, False) for m in metrics),
        weighted=tuple(aggregate(m, True) for m in metrics),
        weights=weights,
        present=present,
        warnings=[f"classes {np.flatnonzero(mask).tolist()} {text}"
                  for mask, text in reasons if mask.any()],
    )


def _check_frequencies(frequencies, num_classes: int) -> np.ndarray:
    freq = np.asarray(frequencies, np.float64)
    if freq.shape != (num_classes,):
        raise ShapeMismatch(
            f"{freq.size} frequencies given for {num_classes} classes")
    if not (np.isfinite(freq).all() and (freq >= 0).all() and freq.sum() > 0):
        raise InvalidOption(
            f"frequencies must be finite, >= 0 and not all 0, got {freq.tolist()}")
    with np.errstate(divide="ignore", over="ignore"):  # weights divide by the sum
        if not np.isfinite((1.0 / freq[freq > 0]).sum()):
            raise InvalidOption(f"frequencies too small to invert: {freq.tolist()}")
    return freq


def report_csv(report: MetricsReport, class_names: list[str] | None = None) -> str:
    """Percentages with two decimals, one row per class plus the aggregates."""
    names = class_names or [f"class{i}" for i in range(len(report.recall))]
    rows = [*zip(names, zip(report.recall, report.precision, report.iou), strict=True),
            ("overall", report.overall), ("mean", report.mean), ("weighted", report.weighted)]

    def fmt(v: float) -> str:
        return "" if np.isnan(v) else f"{100 * v:.2f}"

    return "name,recall,precision,iou\n" + "".join(
        f"{name},{fmt(r)},{fmt(p)},{fmt(i)}\n" for name, (r, p, i) in rows)

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from specdrive.errors import EmptyMatrix, LabelOutOfRange, ShapeMismatch
from specdrive.metrics import (
    ConfusionMatrix,
    accumulate,
    compute_metrics,
    inverse_frequency_weights,
    report_csv,
)

TRAIN_FREQUENCIES = np.array([0.5956, 0.0338, 0.3706])


def test_perfect_prediction_is_diagonal():
    gt = np.array([[0, 1], [2, 1]])
    cm = accumulate(gt, gt, 3)
    assert np.array_equal(cm.counts, np.diag([1, 2, 1]))
    rep = compute_metrics(cm)
    assert np.allclose(rep.recall, 1) and np.allclose(rep.precision, 1)
    assert np.allclose(rep.iou, 1)
    assert rep.overall == (1, 1, 1)
    assert rep.mean == (1, 1, 1) and rep.weighted == (1, 1, 1)


def test_hand_counted_toy_matrix():
    gt = np.array([0, 0, 1, 1])
    pred = np.array([0, 1, 1, 1])
    cm = accumulate(gt, pred, 2)
    assert np.array_equal(cm.counts, [[1, 1], [0, 2]])
    rep = compute_metrics(cm)
    assert rep.recall[0] == pytest.approx(0.5)
    assert rep.precision[0] == pytest.approx(1.0)
    assert rep.iou[0] == pytest.approx(0.5)
    assert rep.recall[1] == pytest.approx(1.0)
    assert rep.precision[1] == pytest.approx(2 / 3)
    assert rep.iou[1] == pytest.approx(2 / 3)


def test_ignore_label_skips_pixels():
    gt = np.full((4, 4), 255, np.uint8)
    pred = np.zeros((4, 4), np.uint8)
    cm = accumulate(gt, pred, 3)
    assert cm.total == 0
    with pytest.raises(EmptyMatrix):
        compute_metrics(cm)


def test_inverse_frequency_weights_exact():
    w = inverse_frequency_weights(TRAIN_FREQUENCIES)
    exact = [Fraction(1) / Fraction("0.5956"), Fraction(1) / Fraction("0.0338"),
             Fraction(1) / Fraction("0.3706")]
    total = sum(exact)
    for got, want in zip(w, exact):
        assert abs(got - float(want / total)) <= 1e-12
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_weighted_aggregation_matches_formula():
    counts = np.array([[50, 3, 2], [1, 10, 1], [4, 2, 40]], np.int64)
    rep = compute_metrics(ConfusionMatrix(counts), frequencies=TRAIN_FREQUENCIES)
    w = inverse_frequency_weights(TRAIN_FREQUENCIES)
    for got, metric in zip(rep.weighted, (rep.recall, rep.precision, rep.iou)):
        assert got == pytest.approx(float((w * metric).sum()), abs=1e-12)


@pytest.mark.parametrize("frequencies", [None, [0.5, 0.0, 0.25, 0.25]])
def test_weights_are_inverse_frequency_weights_of_the_present_frequencies(frequencies):
    """One formula for given and observed frequencies: a class of frequency 0
    weighs NaN, the others are inverse_frequency_weights of theirs, bit for
    bit."""
    counts = np.array([[5, 1, 0, 2], [0, 0, 0, 0], [1, 0, 7, 0], [0, 0, 3, 9]], np.int64)
    rep = compute_metrics(ConfusionMatrix(counts), frequencies=frequencies)
    freq = counts.sum(axis=1) / counts.sum() if frequencies is None else np.array(frequencies)
    assert np.isnan(rep.weights[1]) and not np.isnan(rep.weights[[0, 2, 3]]).any()
    assert np.array_equal(rep.weights[[0, 2, 3]], inverse_frequency_weights(freq[[0, 2, 3]]))


def test_label_permutation_equivariance(rng):
    gt = rng.integers(0, 3, 500)
    pred = rng.integers(0, 3, 500)
    rep = compute_metrics(accumulate(gt, pred, 3))
    perm = np.array([2, 0, 1])
    rep_p = compute_metrics(accumulate(perm[gt], perm[pred], 3))
    for c in range(3):
        assert rep.iou[c] == pytest.approx(rep_p.iou[perm[c]])
        assert rep.recall[c] == pytest.approx(rep_p.recall[perm[c]])


def test_iou_bounded_by_recall_and_precision(rng):
    gt = rng.integers(0, 4, 1000)
    pred = rng.integers(0, 4, 1000)
    rep = compute_metrics(accumulate(gt, pred, 4))
    for c in range(4):
        if not np.isnan(rep.iou[c]):
            assert rep.iou[c] <= rep.recall[c] + 1e-12
            assert rep.iou[c] <= rep.precision[c] + 1e-12


def test_micro_metrics_equal_accuracy(rng):
    gt = rng.integers(0, 3, 800)
    pred = rng.integers(0, 3, 800)
    cm = accumulate(gt, pred, 3)
    acc = (gt == pred).mean()
    r, p, _ = compute_metrics(cm).overall
    assert r == pytest.approx(acc) and p == pytest.approx(acc)


def test_adding_correct_pixels_never_hurts(rng):
    gt = rng.integers(0, 3, 300)
    pred = rng.integers(0, 3, 300)
    rep = compute_metrics(accumulate(gt, pred, 3))
    ones = np.full(50, 1)
    more = accumulate(np.concatenate([gt, ones]), np.concatenate([pred, ones]), 3)
    rep2 = compute_metrics(more)
    assert rep2.recall[1] >= rep.recall[1] - 1e-12
    assert rep2.precision[1] >= rep.precision[1] - 1e-12
    assert rep2.iou[1] >= rep.iou[1] - 1e-12


def test_absent_class_excluded_with_warning():
    gt = np.array([0, 0, 1, 1])
    pred = np.array([0, 0, 1, 1])
    rep = compute_metrics(accumulate(gt, pred, 3))
    assert not rep.present[2]
    assert np.isnan(rep.weights[2])
    assert rep.mean == (1, 1, 1)
    assert any("absent" in w for w in rep.warnings)


def test_zero_denominator_reported_missing():
    # class 1 present in gt but never predicted and never hit
    counts = np.array([[5, 0], [3, 0]], np.int64)
    rep = compute_metrics(ConfusionMatrix(counts))
    assert np.isnan(rep.precision[1])
    assert rep.recall[1] == 0.0
    assert rep.iou[1] == 0.0
    assert not np.isnan(rep.mean[1])  # mean precision over defined classes only


def test_label_out_of_range():
    with pytest.raises(LabelOutOfRange):
        accumulate(np.array([0, 3]), np.array([0, 0]), 3)
    with pytest.raises(LabelOutOfRange):
        accumulate(np.array([0, 0]), np.array([0, 255]), 3)


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        accumulate(np.zeros((2, 2)), np.zeros((2, 3)), 2)


def test_csv_format():
    gt = np.array([0, 0, 1, 1])
    pred = np.array([0, 1, 1, 1])
    rep = compute_metrics(accumulate(gt, pred, 2))
    csv = report_csv(rep, ["road", "marks"])
    lines = csv.strip().split("\n")
    assert lines[0] == "name,recall,precision,iou"
    assert lines[1] == "road,50.00,100.00,50.00"
    assert lines[2] == "marks,100.00,66.67,66.67"
    assert lines[-1].startswith("weighted,")


def test_csv_refuses_a_name_list_of_another_length():
    rep = compute_metrics(accumulate(np.array([0, 1]), np.array([0, 1]), 2))
    for names in (["road"], ["road", "marks", "other"]):
        with pytest.raises(ValueError):
            report_csv(rep, names)


def test_present_class_of_frequency_0_is_left_out_of_weighted():
    """A given frequency of 0 for a class in the ground truth used to blank
    the whole weighted row; now that class alone is left out, with a warning."""
    counts = np.array([[2, 1, 0], [0, 3, 1], [1, 0, 4]], np.int64)
    rep = compute_metrics(ConfusionMatrix(counts), frequencies=[0.0, 0.5, 0.5])
    assert np.isnan(rep.weights[0])
    for got, metric in zip(rep.weighted, (rep.recall, rep.precision, rep.iou)):
        assert got == pytest.approx(metric[1:].mean(), abs=1e-12)
    assert [w for w in rep.warnings if "frequency 0" in w] == [
        "classes [0] of frequency 0, so without weight; excluded from weighted aggregates"]


def test_never_predicted_class_gives_one_warning():
    counts = np.array([[5, 0], [3, 0]], np.int64)
    rep = compute_metrics(ConfusionMatrix(counts))
    assert rep.warnings == [
        "classes [1] never predicted, so their precision is undefined; "
        "excluded from mean/weighted precision"]


@st.composite
def matrices(draw):
    """A confusion matrix of 1-6 classes with many zero cells and at least one
    scored pixel, and either no frequencies or given ones, zeros included."""
    c = draw(st.integers(1, 6))
    cells = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, 7, 1000]), min_size=c * c,
                          max_size=c * c))
    counts = np.array(cells, np.int64).reshape(c, c)
    if counts.sum() == 0:
        counts[draw(st.integers(0, c - 1)), draw(st.integers(0, c - 1))] = 1
    freqs = draw(st.none() | st.lists(st.sampled_from([0.0, 0.0, 0.1, 0.5, 3.0]),
                                      min_size=c, max_size=c))
    if freqs is not None and sum(freqs) == 0:
        freqs[0] = 1.0
    return counts, freqs


@given(matrices())
def test_aggregates_follow_one_exclusion_rule(case):
    counts, freqs = case
    rep = compute_metrics(ConfusionMatrix(counts), frequencies=freqs)
    tp = np.diag(counts)
    gt, pred = counts.sum(axis=1), counts.sum(axis=0)
    metrics = (rep.recall, rep.precision, rep.iou)
    for metric, denominator in zip(metrics, (gt, pred, gt + pred - tp)):
        assert np.array_equal(np.isnan(metric), denominator == 0)

    present = gt > 0
    freq = gt / gt.sum() if freqs is None else np.array(freqs)
    has_weight = freq > 0
    assert np.array_equal(np.isnan(rep.weights), ~has_weight)
    for metric, mean, weighted in zip(metrics, rep.mean, rep.weighted):
        ok = present & ~np.isnan(metric)
        assert mean == (metric[ok].mean() if ok.any() else pytest.approx(np.nan, nan_ok=True))
        ok &= has_weight
        w = 1 / freq[ok]
        want = (metric[ok] * w).sum() / w.sum() if ok.any() else np.nan
        assert weighted == pytest.approx(want, rel=1e-12, abs=1e-15, nan_ok=True)

    excluded = {"absent": ~present, "never predicted": present & (pred == 0),
                "frequency 0": present & ~has_weight}
    for key, mask in excluded.items():
        named = [w for w in rep.warnings if key in w]
        assert len(named) == int(mask.any())
        if named:
            assert named[0].startswith(f"classes {np.flatnonzero(mask).tolist()} ")
    assert len(rep.warnings) == sum(m.any() for m in excluded.values())

import numpy as np
import pytest

from specdrive.errors import InsufficientData, RankDeficient, SingularCovariance
from specdrive.spectral import (
    ClassStats,
    band_correlation,
    bhattacharyya,
    class_stats,
    jm_distance,
    matrix_csv,
    select_bands,
    separability,
)


def test_correlation_duplicate_and_negated_bands(rng):
    base = rng.normal(0, 1, 1000)
    x = np.stack([base, base, -base, rng.normal(0, 1, 1000)], axis=1)
    corr = band_correlation(x)
    assert corr[0, 1] == pytest.approx(1.0)
    assert corr[0, 2] == pytest.approx(-1.0)
    assert np.allclose(np.diag(corr), 1.0)
    assert np.allclose(corr, corr.T, equal_nan=True)


def test_correlation_independent_noise_is_small(rng):
    x = rng.uniform(0, 1, (100_000, 6))
    corr = band_correlation(x)
    off = corr[~np.eye(6, dtype=bool)]
    assert np.abs(off).max() < 0.02


def test_correlation_affine_invariance(rng):
    x = rng.normal(0, 1, (500, 4))
    y = x * np.array([2.0, 0.5, 3.0, 1.7]) + np.array([1, -2, 0, 5])
    assert np.allclose(band_correlation(x), band_correlation(y), atol=1e-10)


def test_correlation_zero_variance_band_missing(rng):
    x = rng.normal(0, 1, (100, 3))
    x[:, 1] = 4.2
    corr = band_correlation(x)
    assert np.isnan(corr[1]).all() and np.isnan(corr[:, 1]).all()
    assert corr[0, 0] == 1.0


def test_correlation_insufficient_data():
    with pytest.raises(InsufficientData):
        band_correlation(np.zeros((1, 5)))


def gauss(mean, cov):
    """The statistics of d + 1 samples, the fewest a covariance of d bands
    takes, with this mean and covariance (exact for d of 1 or 2)."""
    mean = np.atleast_1d(np.asarray(mean, np.float64))
    d = len(mean)
    return ClassStats(d + 1, mean, np.atleast_2d(np.asarray(cov, np.float64)) * d)


def test_jm_identical_distributions_zero():
    a = gauss([0.3, 0.7], [[1.0, 0.2], [0.2, 2.0]])
    assert jm_distance(a, a) == pytest.approx(0.0, abs=1e-12)


def test_jm_far_means_saturate_at_two():
    a, b = gauss(0.0, 1.0), gauss(100.0, 1.0)
    assert abs(jm_distance(a, b) - 2.0) <= 1e-9


def test_jm_unit_variance_known_value():
    a, b = gauss(0.0, 1.0), gauss(2.0, 1.0)
    assert bhattacharyya(a, b) == pytest.approx(0.5, abs=1e-12)
    assert jm_distance(a, b) == pytest.approx(2 * (1 - np.exp(-0.5)), abs=1e-9)


def test_jm_monotone_in_mean_separation():
    values = [jm_distance(gauss(0.0, 1.0), gauss(d, 1.0))
              for d in np.linspace(0, 10, 20)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert all(0 <= v <= 2 for v in values)


def test_jm_near_singular_regularized():
    a = gauss([0.0, 0.0], np.zeros((2, 2)))
    b = gauss([1.0, 1.0], np.eye(2))
    v = jm_distance(a, b)
    assert np.isfinite(v) and 0 <= v <= 2


def test_jm_rejects_nan_covariance():
    a = gauss([0.0], [[np.nan]])
    with pytest.raises(SingularCovariance):
        jm_distance(a, a)


def test_separability_matrix_properties(rng):
    stats = [
        ClassStats.from_samples(rng.normal(k, 1, (200, 4))) for k in range(3)
    ]
    rep = separability(stats)
    assert np.allclose(rep.jm, rep.jm.T, equal_nan=True)
    assert np.allclose(np.diag(rep.jm), 0.0)
    assert ((rep.jm >= 0) | np.isnan(rep.jm)).all()
    assert ((rep.jm <= 2) | np.isnan(rep.jm)).all()
    assert rep.class_means.shape == (3,)


def test_class_stats_from_labelled_cube(rng):
    cube = rng.uniform(0, 1, (8, 9, 5)).astype(np.float32)
    labels = rng.integers(0, 2, (8, 9)).astype(np.uint8)
    labels[0, 0] = 255
    stats = class_stats(cube, labels, 3)
    assert stats[2] is None
    n_scored = (labels != 255).sum()
    assert stats[0].count + stats[1].count == n_scored


def test_select_bands_finds_planted_structure(rng):
    n = 400
    strong = rng.normal(0, 1, (n, 3)) * [10, 8, 6]
    weak = rng.normal(0, 1e-4, (n, 22))
    x = np.concatenate([weak[:, :10], strong[:, :1], weak[:, 10:16],
                        strong[:, 1:], weak[:, 16:]], axis=1)
    # planted columns: 10 (strongest), 17, 18
    chosen = select_bands(x, 3)
    assert set(chosen) == {10, 17, 18}
    assert chosen[0] == 10


def test_select_bands_skips_duplicates(rng):
    base = rng.normal(0, 1, 300)
    x = np.stack([base * 5, base * 5, rng.normal(0, 1, 300),
                  rng.normal(0, 0.5, 300)], axis=1)
    chosen = select_bands(x, 3)
    assert not (0 in chosen and 1 in chosen)


def test_select_bands_full_rank_permutation(rng):
    x = rng.normal(0, 1, (300, 25))
    chosen = select_bands(x, 25)
    assert sorted(chosen) == list(range(25))


def test_select_bands_residuals_non_increasing(rng):
    x = rng.normal(0, 1, (200, 8)) * rng.uniform(0.5, 4, 8)
    gram = x.T @ x
    resid = gram.copy()
    chosen = select_bands(x, 8)
    last = np.inf
    for j in chosen:
        assert resid[j, j] <= last + 1e-9
        last = resid[j, j]
        col = resid[:, j].copy()
        resid = resid - np.outer(col, col) / col[j]


def test_select_bands_rank_deficient(rng):
    base = rng.normal(0, 1, 100)
    x = np.stack([base, 2 * base, -base], axis=1)
    with pytest.raises(RankDeficient):
        select_bands(x, 2)


def test_matrix_csv_shape():
    m = np.array([[0.0, 1.5], [1.5, 0.0]])
    text = matrix_csv(m, ["a", "b"])
    lines = text.strip().split("\n")
    assert lines[0] == ",a,b"
    assert lines[1] == "a,0.0000,1.5000"

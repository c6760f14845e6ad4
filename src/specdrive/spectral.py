"""Spectral statistics on labelled cubes.

Band-to-band Pearson correlation, per-class Gaussian statistics with a
Jeffreys-Matusita separability index on the 0..2 scale, and greedy
informative-band selection by orthogonal projection. Class statistics are a
mergeable fold (count / mean / scatter), so per-image accumulation can run
in parallel and be combined afterwards.
"""

from __future__ import annotations

import io
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, RankDeficient, ShapeMismatch, SingularCovariance
from .metrics import IGNORE_LABEL


@dataclass
class ClassStats:
    count: int
    mean: np.ndarray       # (d,)
    scatter: np.ndarray    # (d, d) sum of outer products of deviations

    @classmethod
    def from_samples(cls, x: np.ndarray) -> "ClassStats":
        x = np.asarray(x, np.float64)
        if x.ndim != 2 or x.shape[0] < 1:
            raise InsufficientData("need a (samples, bands) matrix")
        mean = x.mean(axis=0)
        centered = x - mean
        return cls(count=x.shape[0], mean=mean, scatter=centered.T @ centered)

    @classmethod
    def from_moments(cls, mean, cov, count: int = 2) -> "ClassStats":
        mean = np.atleast_1d(np.asarray(mean, np.float64))
        cov = np.atleast_2d(np.asarray(cov, np.float64))
        return cls(count=count, mean=mean, scatter=cov * (count - 1))

    @property
    def cov(self) -> np.ndarray:
        if self.count < 2:
            raise InsufficientData("covariance needs at least 2 samples")
        return self.scatter / (self.count - 1)

    def merge(self, other: "ClassStats") -> "ClassStats":
        """Parallel-fold combination of two partial statistics."""
        n = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * (other.count / n)
        scatter = (
            self.scatter
            + other.scatter
            + np.outer(delta, delta) * (self.count * other.count / n)
        )
        return ClassStats(count=n, mean=mean, scatter=scatter)


def class_stats(
    cube: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
    ignore_label: int = IGNORE_LABEL,
) -> list[ClassStats | None]:
    """Per-class statistics over a labelled cube; None for empty classes."""
    if labels.shape != cube.shape[:-1]:
        raise ShapeMismatch(f"labels {labels.shape} vs cube pixels {cube.shape[:-1]}")
    flat = cube.reshape(-1, cube.shape[-1])
    lab = labels.ravel()
    out: list[ClassStats | None] = []
    for c in range(num_classes):
        sel = flat[lab == c]
        out.append(ClassStats.from_samples(sel) if sel.shape[0] >= 1 else None)
    return out


def band_correlation(data: np.ndarray) -> np.ndarray:
    """Pearson correlation between bands of a cube or (samples, bands) set.

    Bands with zero variance get NaN entries (including their diagonal);
    everything else is symmetric with unit diagonal.
    """
    x = np.asarray(data, np.float64)
    if x.ndim == 3:
        x = x.reshape(-1, x.shape[-1])
    if x.ndim != 2 or x.shape[0] < 2:
        raise InsufficientData("need at least 2 samples")
    mean = x.mean(axis=0)
    centered = x - mean
    norm = np.sqrt((centered**2).sum(axis=0))
    # constant bands leave only rounding residue after centering
    tol = 100 * np.sqrt(x.shape[0]) * np.finfo(np.float64).eps * (1.0 + np.abs(mean))
    valid = norm > tol
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = (centered.T @ centered) / np.outer(norm, norm)
    corr = np.clip(corr, -1.0, 1.0)
    corr[~valid, :] = np.nan
    corr[:, ~valid] = np.nan
    d = np.arange(x.shape[1])
    corr[d[valid], d[valid]] = 1.0
    return corr


def _inv_and_logdet(m: np.ndarray):
    if not np.isfinite(m).all():
        return None
    with np.errstate(all="ignore"):
        sign, logdet = np.linalg.slogdet(m)
        if sign <= 0 or not np.isfinite(logdet):
            return None
        try:
            inv = np.linalg.inv(m)
        except np.linalg.LinAlgError:
            return None
    if not np.isfinite(inv).all():
        return None
    return inv, logdet


def bhattacharyya(a: ClassStats, b: ClassStats) -> float:
    """Gaussian Bhattacharyya distance between two class distributions."""
    d = a.mean - b.mean
    ca, cb = a.cov, b.cov
    cm = (ca + cb) / 2.0

    res = (_inv_and_logdet(cm), _inv_and_logdet(ca), _inv_and_logdet(cb))
    if any(r is None for r in res):
        # near-singular class: jitter the diagonals and retry once
        dim = len(d)
        def jitter(c):
            return c + np.eye(dim) * (1e-6 * np.trace(c) / dim + 1e-12)
        ca, cb = jitter(ca), jitter(cb)
        cm = (ca + cb) / 2.0
        res = (_inv_and_logdet(cm), _inv_and_logdet(ca), _inv_and_logdet(cb))
        if any(r is None for r in res):
            raise SingularCovariance("covariance not invertible after regularization")
    (inv_m, ld_m), (_, ld_a), (_, ld_b) = res
    term_mean = d @ inv_m @ d / 8.0
    term_cov = 0.5 * (ld_m - 0.5 * (ld_a + ld_b))
    return float(term_mean + term_cov)


def jm_distance(a: ClassStats, b: ClassStats) -> float:
    """Jeffreys-Matusita separability: 2(1 - exp(-B)), range [0, 2]."""
    return float(2.0 * (1.0 - np.exp(-bhattacharyya(a, b))))


@dataclass
class SeparabilityReport:
    jm: np.ndarray          # (C, C), zero diagonal, nan for empty classes
    class_means: np.ndarray  # per-class mean of off-diagonal entries


def separability(stats: list[ClassStats | None]) -> SeparabilityReport:
    n = len(stats)
    jm = np.full((n, n), np.nan)
    np.fill_diagonal(jm, 0.0)
    for i in range(n):
        for j in range(i + 1, n):
            if stats[i] is None or stats[j] is None:
                continue
            v = jm_distance(stats[i], stats[j])
            jm[i, j] = jm[j, i] = v
    means = np.full(n, np.nan)
    for i in range(n):
        row = np.delete(jm[i], i)
        row = row[~np.isnan(row)]
        if row.size:
            means[i] = row.mean()
    return SeparabilityReport(jm=jm, class_means=means)


def select_bands(data: np.ndarray, k: int) -> list[int]:
    """Greedy orthogonal-projection band selection.

    The first pick maximizes column norm; each later pick maximizes the
    residual norm after projecting out the span of the bands chosen so far.
    Runs on the band Gram matrix, so cost is independent of pixel count.
    """
    x = np.asarray(data, np.float64)
    if x.ndim == 3:
        x = x.reshape(-1, x.shape[-1])
    n_bands = x.shape[1]
    if not 1 <= k <= n_bands:
        raise RankDeficient(f"cannot select {k} of {n_bands} bands")
    gram = x.T @ x
    resid = gram.copy()
    tol = max(np.diag(gram).max(), 1.0) * 1e-12
    chosen: list[int] = []
    for _ in range(k):
        diag = np.diag(resid).copy()
        diag[chosen] = -np.inf
        j = int(np.argmax(diag))
        if diag[j] <= tol:
            raise RankDeficient(
                f"data spans only {len(chosen)} independent bands, wanted {k}"
            )
        chosen.append(j)
        col = resid[:, j].copy()
        resid = resid - np.outer(col, col) / col[j]
    return chosen


def aggregate_selections(selections: list[list[int]]) -> list[int]:
    """Combine per-image selections into one: the most frequent band per
    slot (ties break toward the smaller band index)."""
    if not selections:
        raise InsufficientData("no selections to aggregate")
    k = len(selections[0])
    out = []
    for slot in range(k):
        votes = Counter(sel[slot] for sel in selections)
        best = max(votes.items(), key=lambda kv: (kv[1], -kv[0]))
        out.append(best[0])
    return out


def matrix_csv(matrix: np.ndarray, labels: list[str] | None = None) -> str:
    """Square matrix as CSV with row/column labels, 4-decimal cells."""
    n = matrix.shape[0]
    names = labels or [f"band{i}" for i in range(n)]
    buf = io.StringIO()
    buf.write("," + ",".join(names) + "\n")
    for i in range(n):
        cells = ("" if np.isnan(v) else f"{v:.4f}" for v in matrix[i])
        buf.write(names[i] + "," + ",".join(cells) + "\n")
    return buf.getvalue()

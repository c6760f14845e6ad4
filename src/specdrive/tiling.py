"""Overlapping patch grids and probability-map reconstruction.

The paper's grid is centrosymmetric: origins are strided forward from the
low edge and mirrored back from the high edge, then merged. When the stride
does not evenly fill the axis, the extra overlap lands in the middle of the
image, which is where predictions benefit from it most. Only a model with
spatial context (the U-Net) is tiled; a per-pixel model runs untiled (see
cli.infer_cube). Overlapping predictions are averaged per pixel using the
overlap-index matrix (the sum of all patch masks).

Coverage is a property of PatchGrid: a grid whose patches leave a pixel of
its image uncovered raises InvalidGeometry when it is made, however it was
built or read, so the overlap index is at least 1 at every pixel.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (CorruptContainer, Field, InvalidGeometry, ShapeMismatch, decode,
                     fields, value)

# a worker count map_patches takes
THREADS = Field(int, 1, 256)
# a grid file: the patch size and the patches' row and column starts
GRID = {"patch": Field(int, 1), "rows": Field([int], 0), "cols": Field([int], 0)}


@dataclass(frozen=True)
class PatchGrid:
    patch_size: int
    row_starts: tuple[int, ...]
    col_starts: tuple[int, ...]
    image_size: tuple[int, int]

    def __post_init__(self):
        last_row, last_col = (n - self.patch_size for n in self.image_size)
        value(self.row_starts, Field([int], 0, last_row), "row starts", InvalidGeometry)
        value(self.col_starts, Field([int], 0, last_col), "col starts", InvalidGeometry)
        for axis, starts, n in zip(("row", "col"), (self.row_starts, self.col_starts),
                                   self.image_size):
            if not _covers(starts, n, self.patch_size):
                raise InvalidGeometry(f"patches of {self.patch_size} at {axis} starts "
                                      f"{starts} leave pixels of {n} uncovered")

    @property
    def n_patches(self) -> int:
        return len(self.row_starts) * len(self.col_starts)

    def origins(self) -> list[tuple[int, int]]:
        """Patch origins in row-major order over (row_start, col_start)."""
        return [(r, c) for r in self.row_starts for c in self.col_starts]

    @classmethod
    def from_json(cls, text, name: str = "grid") -> "PatchGrid":
        """The grid of a GRID object, on the image its farthest patches end
        at (name says where the text came from). A grid that is not GRID's
        keys raises CorruptContainer."""
        d = fields(decode(text, name, CorruptContainer), GRID, name, CorruptContainer)
        patch, rows, cols = d["patch"], d["rows"], d["cols"]
        return cls(patch, rows, cols, (max(rows, default=0) + patch,
                                       max(cols, default=0) + patch))


def _covers(starts, size: int, patch: int) -> bool:
    """Whether patches at these starts cover every index below size."""
    end = 0
    for s in sorted(starts):
        if s > end:
            return False
        end = max(end, s + patch)
    return end >= size


def _mirrored_starts(dim: int, patch: int, stride: int) -> tuple[int, ...]:
    """Stride forward from 0 up to the axis midpoint, mirror from the far
    edge, and merge. Symmetric under s -> (dim - patch) - s even when the
    stride does not divide evenly; PatchGrid refuses a stride that leaves a
    gap."""
    if patch > dim:
        raise InvalidGeometry(f"patch {patch} exceeds image dimension {dim}")
    if stride <= 0:
        raise InvalidGeometry("stride must be positive")
    last = dim - patch
    mid = last / 2
    forward = []
    s = 0
    while s <= mid:
        forward.append(s)
        s += stride
    return tuple(sorted(set(forward) | {last - s for s in forward}))


def build_grid(
    image_size: tuple[int, int], patch_size: int, v_stride: int, h_stride: int
) -> PatchGrid:
    """Build the centrosymmetric overlapping grid for an image."""
    h, w = image_size
    rows = _mirrored_starts(h, patch_size, v_stride)
    cols = _mirrored_starts(w, patch_size, h_stride)
    return PatchGrid(patch_size, rows, cols, (h, w))


def overlap_index(grid: PatchGrid) -> np.ndarray:
    """Per-pixel count of covering patches, >= 1 everywhere: PatchGrid
    refuses a grid that leaves a pixel uncovered."""
    h, w = grid.image_size
    counts = np.zeros((h, w), dtype=np.int64)
    for r, c in grid.origins():
        counts[r : r + grid.patch_size, c : c + grid.patch_size] += 1
    return counts


def extract_patches(cube: np.ndarray, grid: PatchGrid) -> list[np.ndarray]:
    """Each patch as a read-only view of the cube, row-major over
    (row_start, col_start). Overlapping patches share the cube's memory, so
    tiling allocates nothing; a write to a patch raises ValueError instead
    of changing its neighbours."""
    h, w = cube.shape[:2]
    if (h, w) != grid.image_size:
        raise InvalidGeometry(
            f"grid built for {grid.image_size}, cube is {(h, w)}"
        )
    p = grid.patch_size
    patches = [cube[r : r + p, c : c + p] for r, c in grid.origins()]
    for patch in patches:
        patch.flags.writeable = False
    return patches


def map_patches(fn, items, threads: int) -> list:
    """fn applied to every item (patches, band indices, any sequence) on
    `threads` workers, serially when 1. A worker count outside THREADS
    raises InvalidOption before any worker starts.

    Results come back in item order, so reconstruction or stacking sees the
    same sequence whatever the worker count.
    """
    if value(threads, THREADS, "threads") == 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def reconstruct(
    prob_patches: list[np.ndarray], grid: PatchGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Average per-class probabilities of overlapping patches.

    Returns (prob_map, labels). Accumulation runs in patch order, so the
    result does not depend on how patch inference was parallelized. Argmax
    ties break toward the lowest class index.
    """
    if len(prob_patches) != grid.n_patches:
        raise ShapeMismatch(
            f"expected {grid.n_patches} patches, got {len(prob_patches)}"
        )
    p = grid.patch_size
    classes = prob_patches[0].shape[-1]
    for patch in prob_patches:
        if patch.shape != (p, p, classes):
            raise ShapeMismatch(
                f"patch shape {patch.shape} does not match ({p}, {p}, {classes})"
            )
    oi = overlap_index(grid)
    h, w = grid.image_size
    acc = np.zeros((h, w, classes), dtype=np.float64)
    for (r, c), patch in zip(grid.origins(), prob_patches):
        acc[r : r + p, c : c + p] += patch
    prob_map = (acc / oi[:, :, None]).astype(np.float32)
    labels = np.argmax(prob_map, axis=-1).astype(np.uint8)
    return prob_map, labels

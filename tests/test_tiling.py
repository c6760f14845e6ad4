import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from specdrive.errors import InvalidGeometry, ShapeMismatch
from specdrive.tiling import (
    PatchGrid,
    build_grid,
    extract_patches,
    overlap_index,
    reconstruct,
)

IMAGE = (216, 409)


@pytest.fixture
def paper_grid():
    return build_grid(IMAGE, 128, 44, 57)


def brute_force_oi(grid: PatchGrid) -> np.ndarray:
    h, w = grid.image_size
    total = np.zeros((h, w), np.int64)
    for r, c in grid.origins():
        mask = np.zeros((h, w), np.int64)
        mask[r : r + grid.patch_size, c : c + grid.patch_size] = 1
        total += mask
    return total


def test_reference_grid_geometry(paper_grid):
    assert paper_grid.row_starts == (0, 44, 88)
    assert paper_grid.col_starts == (0, 57, 114, 167, 224, 281)
    assert paper_grid.n_patches == 18


def test_single_patch_grid():
    g = build_grid((128, 128), 128, 44, 57)
    assert g.row_starts == (0,) and g.col_starts == (0,)
    assert np.array_equal(overlap_index(g), np.ones((128, 128), np.int64))


def test_full_coverage(paper_grid):
    assert overlap_index(paper_grid).min() >= 1


def test_overlap_index_matches_brute_force(paper_grid):
    oi = overlap_index(paper_grid)
    assert np.array_equal(oi, brute_force_oi(paper_grid))


def test_overlap_extremes(paper_grid):
    oi = overlap_index(paper_grid)
    assert oi[0, 0] == 1
    assert oi.min() == 1
    assert oi.max() == 9
    # the ninefold-covered pixels sit in the central band of the image
    rows, cols = np.nonzero(oi == 9)
    assert rows.min() >= 88 and rows.max() < 128
    assert cols.min() >= 114 and cols.max() <= 294


def test_centrosymmetry(paper_grid):
    h, w = paper_grid.image_size
    p = paper_grid.patch_size
    mirrored = sorted((w - p) - s for s in paper_grid.col_starts)
    assert tuple(mirrored) == paper_grid.col_starts
    mirrored_r = sorted((h - p) - s for s in paper_grid.row_starts)
    assert tuple(mirrored_r) == paper_grid.row_starts


def test_grid_rejects_oversized_patch():
    with pytest.raises(InvalidGeometry):
        build_grid((100, 100), 128, 44, 57)
    with pytest.raises(InvalidGeometry):
        build_grid((216, 409), 128, 0, 57)


def test_grid_rejects_uncoverable_stride():
    # stride far beyond the patch size leaves central gaps
    with pytest.raises(InvalidGeometry):
        build_grid((1000, 1000), 10, 400, 400)


@pytest.mark.parametrize("patch, rows, cols, size, axis", [
    (4, (0, 6), (0,), (10, 4), "row"),
    (4, (0,), (0, 6), (4, 10), "col"),
    (0, (0,), (0,), (4, 4), "row"),
], ids=["row-gap", "col-gap", "patch-0"])
def test_grid_with_a_gap_raises(patch, rows, cols, size, axis):
    """Patches of 4 at starts 0 and 6 leave pixels 4-5 of a 10-pixel axis
    uncovered, and patches of 0 cover nothing: reconstruct would average
    those pixels over no patch."""
    with pytest.raises(InvalidGeometry, match=f"{axis} starts .* uncovered"):
        PatchGrid(patch, rows, cols, size)


@given(h=st.integers(1, 160), w=st.integers(1, 160), data=st.data())
def test_built_grids_cover_their_image_or_raise(h, w, data):
    """Whatever the image, patch and strides, build_grid either raises
    InvalidGeometry or gives a grid that covers every pixel.
    Patches run up to one past the image's thin side, strides up to twice
    the patch and beyond, where gaps open."""
    patch = data.draw(st.integers(0, min(h, w) + 1), "patch")
    v_stride, h_stride = (data.draw(st.integers(0, 2 * patch + 2), name)
                          for name in ("v_stride", "h_stride"))
    try:
        grid = build_grid((h, w), patch, v_stride, h_stride)
    except InvalidGeometry:
        return
    assert grid.image_size == (h, w)
    assert overlap_index(grid).min() >= 1


def test_extract_shapes_and_gather(paper_grid, rng):
    cube = rng.uniform(0, 1, (216, 409, 25)).astype(np.float32)
    cube[:, :, 0] = np.arange(216, dtype=np.float32)[:, None]
    patches = extract_patches(cube, paper_grid)
    assert len(patches) == 18
    assert all(p.shape == (128, 128, 25) for p in patches)
    # patch index 7 = row_start 44, col_start 57 (row-major over 3x6)
    assert patches[7][0, 0, 0] == 44


def test_extract_single_patch_equals_cube(rng):
    cube = rng.uniform(0, 1, (64, 64, 3)).astype(np.float32)
    g = build_grid((64, 64), 64, 44, 57)
    (patch,) = extract_patches(cube, g)
    assert np.array_equal(patch, cube)


def test_extract_gives_read_only_views_of_the_cube(paper_grid, rng):
    """Every patch shares the cube's memory and refuses a write, which would
    otherwise change the overlapping patches next to it."""
    cube = rng.uniform(0, 1, (216, 409, 25)).astype(np.float32)
    before = cube.copy()
    patches = extract_patches(cube, paper_grid)
    for (r, c), patch in zip(paper_grid.origins(), patches):
        assert np.shares_memory(patch, cube) and not patch.flags.writeable
        assert np.array_equal(patch, before[r : r + 128, c : c + 128])
    with pytest.raises(ValueError):
        patches[7][0, 0, 0] = 1.0
    assert cube.flags.writeable and np.array_equal(cube, before)


def test_extract_grid_size_mismatch(rng):
    with pytest.raises(InvalidGeometry):
        extract_patches(np.zeros((100, 100, 3)), build_grid(IMAGE, 128, 44, 57))


def test_reconstruct_uniform_probabilities(paper_grid):
    patches = [np.full((128, 128, 4), 0.25, np.float32) for _ in range(18)]
    prob, labels = reconstruct(patches, paper_grid)
    assert (labels == 0).all()  # tie-break toward class 0
    np.testing.assert_allclose(prob, 0.25, atol=1e-6)


def test_reconstruct_single_patch_identity(rng):
    g = build_grid((32, 32), 32, 44, 57)
    patch = rng.dirichlet(np.ones(3), (32, 32)).astype(np.float32)
    prob, labels = reconstruct([patch], g)
    np.testing.assert_allclose(prob, patch, atol=1e-7)
    assert np.array_equal(labels, patch.argmax(-1))


def test_reconstruct_hand_computed_average():
    # two patches fully overlap on a 4x4 canvas and disagree
    g = PatchGrid(4, (0,), (0, 0), (4, 4))
    a = np.zeros((4, 4, 2), np.float32)
    b = np.zeros((4, 4, 2), np.float32)
    a[..., 0], a[..., 1] = 0.9, 0.1
    b[..., 0], b[..., 1] = 0.5, 0.5
    prob, labels = reconstruct([a, b], g)
    np.testing.assert_allclose(prob[..., 0], 0.7, atol=1e-6)
    np.testing.assert_allclose(prob[..., 1], 0.3, atol=1e-6)
    assert (labels == 0).all()


def test_reconstruct_of_extracted_map_is_identity(paper_grid, rng):
    prob_map = rng.dirichlet(np.ones(3), IMAGE).astype(np.float32)
    patches = extract_patches(prob_map, paper_grid)
    rebuilt, _ = reconstruct(patches, paper_grid)
    np.testing.assert_allclose(rebuilt, prob_map, atol=1e-5)


def test_reconstruct_rows_sum_to_one(paper_grid, rng):
    patches = [
        rng.dirichlet(np.ones(5), (128, 128)).astype(np.float32) for _ in range(18)
    ]
    prob, _ = reconstruct(patches, paper_grid)
    assert np.abs(prob.sum(-1) - 1).max() <= 1e-4


def test_reconstruct_patch_count_mismatch(paper_grid):
    with pytest.raises(ShapeMismatch):
        reconstruct([np.zeros((128, 128, 3), np.float32)], paper_grid)


def test_grid_json_roundtrip(paper_grid):
    restored = PatchGrid.from_json(json.dumps({"patch": paper_grid.patch_size,
                                               "rows": paper_grid.row_starts,
                                               "cols": paper_grid.col_starts}))
    assert restored == paper_grid

import numpy as np
import pytest

from specdrive import mosaic
from specdrive.errors import DimensionMismatch
from specdrive.mosaic import (
    STAGE_NAMES,
    STAGE_TOTAL,
    MosaicLayout,
    band_extract,
    crop_clip,
    default_layout,
    preprocess_pipeline,
    reflectance_correct,
    translate_to_center,
)


def test_crop_takes_active_window():
    frame = np.arange(1088 * 2048, dtype=np.uint16).reshape(1088, 2048)
    active = crop_clip(frame, default_layout())
    assert active.shape == (1080, 2045)
    assert np.array_equal(active, frame[:1080, :2045])


def test_crop_identity_on_active_frame(small_layout):
    frame = np.arange(20 * 25, dtype=np.uint16).reshape(20, 25)
    assert np.array_equal(crop_clip(frame, small_layout), frame)


def test_crop_preserves_constant(small_layout):
    frame = np.full((22, 30), 7, np.uint16)
    assert (crop_clip(frame, small_layout) == 7).all()


def test_crop_rejects_small_frame(small_layout):
    with pytest.raises(DimensionMismatch):
        crop_clip(np.zeros((19, 25), np.uint16), small_layout)


def test_crop_respects_origin():
    lay = MosaicLayout(tile=np.arange(25).reshape(5, 5), active_origin=(3, 2),
                       active_size=(10, 15))
    frame = np.arange(20 * 20, dtype=np.uint16).reshape(20, 20)
    assert np.array_equal(crop_clip(frame, lay), frame[3:13, 2:17])


def test_reflectance_endpoints_and_midpoint():
    img = np.array([[100, 500, 300]], np.uint16)
    dark = np.full_like(img, 100)
    white = np.full_like(img, 500)
    r, bad = reflectance_correct(img, dark, white)
    assert bad == 0
    assert r.dtype == np.float32
    np.testing.assert_allclose(r, [[0.0, 1.0, 0.5]])


def test_reflectance_clamps_out_of_range():
    img = np.array([[50, 700]], np.uint16)
    dark = np.full_like(img, 100)
    white = np.full_like(img, 500)
    r, _ = reflectance_correct(img, dark, white)
    assert r[0, 0] == 0.0 and r[0, 1] == 1.0


def test_reflectance_degenerate_pixels_zeroed_and_counted():
    img = np.array([[400, 400]], np.uint16)
    dark = np.array([[100, 100]], np.uint16)
    white = np.array([[100, 500]], np.uint16)  # first pixel: white == dark
    r, bad = reflectance_correct(img, dark, white)
    assert bad == 1
    assert r[0, 0] == 0.0
    assert r[0, 1] == pytest.approx(0.75)


def test_reflectance_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        reflectance_correct(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)))


def test_band_extract_fixed_point(small_layout):
    # every mosaic holds pixel value = band index -> cube[r, c, b] = b
    refl = np.zeros(small_layout.active_size, np.float32)
    for dr in range(5):
        for dc in range(5):
            refl[dr::5, dc::5] = small_layout.tile[dr, dc]
    cube = band_extract(refl, small_layout)
    expect = np.broadcast_to(np.arange(25, dtype=np.float32), cube.shape)
    assert np.array_equal(cube, expect)


def test_band_extract_single_mosaic():
    lay = MosaicLayout(tile=np.arange(25).reshape(5, 5), active_size=(5, 5))
    refl = np.arange(25, dtype=np.float32).reshape(5, 5)
    cube = band_extract(refl, lay)
    assert cube.shape == (1, 1, 25)
    # tile is row-major identity, so band b reads tile position b
    assert np.array_equal(cube[0, 0], np.arange(25, dtype=np.float32))


def test_band_extract_full_size_shape():
    refl = np.zeros((1080, 2045), np.float32)
    assert band_extract(refl, default_layout()).shape == (216, 409, 25)


def test_band_extract_is_permutation_gather(rng, small_layout):
    refl = rng.uniform(0, 1, small_layout.active_size).astype(np.float32)
    cube = band_extract(refl, small_layout)
    for dr in range(5):
        for dc in range(5):
            b = small_layout.tile[dr, dc]
            assert sorted(cube[:, :, b].ravel()) == sorted(refl[dr::5, dc::5].ravel())


def test_translate_exact_on_affine_fields(rng):
    lay = MosaicLayout(tile=np.arange(25).reshape(5, 5), active_size=(50, 60))
    hm, wm, _ = lay.cube_shape
    rows = np.arange(50, dtype=np.float64)[:, None]
    cols = np.arange(60, dtype=np.float64)[None, :]
    centers_r = 5 * np.arange(hm) + 2
    centers_c = 5 * np.arange(wm) + 2
    for _ in range(100):
        a, b = rng.uniform(-0.002, 0.002, 2)
        c = rng.uniform(0.2, 0.8)
        field = (a * rows + b * cols + c).astype(np.float32)
        cube = translate_to_center(field, lay)
        expect = a * centers_r[:, None] + b * centers_c[None, :] + c
        err = np.abs(cube[1:-1, 1:-1] - expect[1:-1, 1:-1, None])
        assert err.max() <= 1e-5


def test_translate_constant_everywhere(small_layout):
    field = np.full(small_layout.active_size, 0.3, np.float32)
    cube = translate_to_center(field, small_layout)
    assert np.array_equal(cube, np.full_like(cube, np.float32(0.3)))


def test_translate_center_band_copied_verbatim(rng, small_layout):
    refl = rng.uniform(0, 1, small_layout.active_size).astype(np.float32)
    cube = translate_to_center(refl, small_layout)
    b_center = small_layout.tile[2, 2]
    assert np.array_equal(cube[:, :, b_center], refl[2::5, 2::5])


def test_naive_stages_bitwise_match_vectorized(rng, small_layout):
    frame = rng.integers(400, 60000, (22, 28)).astype(np.uint16)
    dark = np.full((22, 28), 300, np.uint16)
    white = np.full((22, 28), 61000, np.uint16)
    fast = preprocess_pipeline(frame, dark, white, small_layout, vectorized=True)
    slow = preprocess_pipeline(frame, dark, white, small_layout, vectorized=False)
    assert np.array_equal(fast.cube, slow.cube)


def test_pipeline_composes_stages(rng, small_layout):
    frame = rng.integers(400, 60000, (22, 28)).astype(np.uint16)
    dark = np.full((22, 28), 300, np.uint16)
    white = np.full((22, 28), 61000, np.uint16)
    res = preprocess_pipeline(frame, dark, white, small_layout)
    active = crop_clip(frame, small_layout)
    refl, _ = reflectance_correct(active, crop_clip(dark, small_layout),
                                  crop_clip(white, small_layout))
    assert np.array_equal(res.cube, translate_to_center(refl, small_layout))


def test_pipeline_thread_count_determinism(rng, small_layout):
    frame = rng.integers(400, 60000, (22, 28)).astype(np.uint16)
    dark = np.full((22, 28), 300, np.uint16)
    white = np.full((22, 28), 61000, np.uint16)
    ref = preprocess_pipeline(frame, dark, white, small_layout, threads=1).cube
    for t in (2, 4, 8):
        cube = preprocess_pipeline(frame, dark, white, small_layout, threads=t).cube
        assert np.array_equal(ref, cube)


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("vectorized", [True, False])
def test_pipeline_oracle_on_permuted_layout(threads, vectorized):
    """A permuted tile, an off-center center, a shifted active window and
    degenerate pixels, against the naive one-worker pipeline."""
    rng = np.random.default_rng(7)
    lay = MosaicLayout(tile=rng.permutation(25).reshape(5, 5), active_origin=(1, 2),
                       active_size=(20, 25), center_offset=(1, 3))
    frame = rng.integers(0, 65535, (23, 29)).astype(np.uint16)
    dark = rng.integers(200, 400, (23, 29)).astype(np.uint16)
    white = rng.integers(60000, 65000, (23, 29)).astype(np.uint16)
    white[5:9, 4:10] = dark[5:9, 4:10]
    ref = preprocess_pipeline(frame, dark, white, lay, threads=1, vectorized=False)
    refl, _ = reflectance_correct(crop_clip(frame, lay), crop_clip(dark, lay),
                                  crop_clip(white, lay))
    assert ref.degenerate_pixels == 24
    assert np.array_equal(ref.cube[:, :, lay.tile[1, 3]], refl[1::5, 3::5])
    res = preprocess_pipeline(frame, dark, white, lay, threads=threads,
                              vectorized=vectorized)
    assert res.cube.dtype == np.float32 and res.cube.shape == lay.cube_shape
    assert res.cube.flags.c_contiguous
    assert np.array_equal(res.cube, ref.cube)
    assert res.degenerate_pixels == ref.degenerate_pixels


def _translate_naive(refl, lay):
    planes = mosaic._translate(mosaic._extract_naive(refl, lay), lay,
                               mosaic._translate_band_naive, 1)
    return planes.transpose(1, 2, 0)


@pytest.mark.parametrize("center", [(0, 0), (4, 4), (0, 4), (4, 0), (1, 3)])
@pytest.mark.parametrize("size", [(5, 5), (5, 30), (30, 5), (35, 20), (335, 15)])
def test_translate_oracle_across_geometry(size, center):
    """Vectorized translation against the naive one on 1-row, 1-column and
    rectangular mosaics, every side of the center, with a permuted tile;
    then with a third of the samples set to NaN, +-inf and +-0."""
    rng = np.random.default_rng(17)
    lay = MosaicLayout(tile=rng.permutation(25).reshape(5, 5), active_size=size,
                       center_offset=center)
    refl = rng.uniform(0, 1, size).astype(np.float32)
    fast, slow = translate_to_center(refl, lay), _translate_naive(refl, lay)
    assert np.array_equal(fast.view(np.uint32), slow.view(np.uint32))
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0], np.float32)
    refl.ravel()[rng.choice(refl.size, refl.size // 3, replace=False)] = rng.choice(
        special, refl.size // 3)
    with np.errstate(invalid="ignore"):  # inf - inf
        fast, slow = translate_to_center(refl, lay), _translate_naive(refl, lay)
    assert np.array_equal(fast, slow, equal_nan=True)
    signed = ~np.isnan(slow)
    assert np.array_equal(np.signbit(fast[signed]), np.signbit(slow[signed]))


def test_pipeline_timing_names(rng, small_layout):
    frame = rng.integers(400, 60000, (22, 28)).astype(np.uint16)
    dark = np.full((22, 28), 300, np.uint16)
    white = np.full((22, 28), 61000, np.uint16)
    res = preprocess_pipeline(frame, dark, white, small_layout)
    assert set(res.timings_ms) == set(STAGE_NAMES) | {STAGE_TOTAL}
    assert res.timings_ms[STAGE_TOTAL] == pytest.approx(
        sum(res.timings_ms[n] for n in STAGE_NAMES)
    )


def test_layout_validation():
    bad = np.arange(25).reshape(5, 5)
    bad[0, 0] = 1  # not a bijection
    with pytest.raises(DimensionMismatch):
        MosaicLayout(tile=bad)
    with pytest.raises(DimensionMismatch):
        MosaicLayout(tile=np.arange(25).reshape(5, 5), active_size=(21, 25))


def test_axis_coeffs_interior_and_borders():
    i0, i1, t = mosaic._axis_coeffs(4, offset=0, center=2, pitch=5)
    assert list(i0) == [0, 1, 2, 3]
    assert list(i1) == [1, 2, 3, 3]
    assert t[0] == pytest.approx(0.4) and t[-1] == 0.0
    i0, i1, t = mosaic._axis_coeffs(4, offset=4, center=2, pitch=5)
    assert list(i0) == [0, 0, 1, 2]
    assert list(i1) == [0, 1, 2, 3]
    assert t[0] == 0.0 and t[1] == pytest.approx(0.6)


B = mosaic._REFL_ROWS


@pytest.mark.parametrize("height", [1, B - 1, B, B + 1, 5 * B // 2, 1080])
def test_reflectance_blocks_match_naive(height):
    """Row blocks of the whole-array expression are bitwise the naive
    per-pixel form, below, at, off and far past the block height, with
    degenerate pixels on both sides of a block edge."""
    rng = np.random.default_rng(height)
    shape = (height, 7)
    img = rng.integers(0, 65535, shape).astype(np.uint16)
    dark = rng.integers(200, 2000, shape).astype(np.uint16)
    white = rng.integers(30000, 65000, shape).astype(np.uint16)
    img[::3] = dark[::3]  # reflectance 0 exactly, and clamped rows below it
    img[1::5] = 0
    edge = min(B, height - 1)
    white[max(edge - 1, 0) : edge + 2, 2:5] = dark[max(edge - 1, 0) : edge + 2, 2:5]
    eps = np.float32(mosaic.DEFAULT_EPS)
    fast, n_fast = mosaic._reflectance(img, dark, white, eps)
    slow, n_slow = mosaic._reflectance_naive(img, dark, white, eps)
    assert fast.shape == shape and fast.flags.c_contiguous
    assert np.array_equal(fast.view(np.uint32), slow.view(np.uint32))
    assert n_fast == n_slow == int(np.count_nonzero(white == dark))
    assert n_fast > 0


def test_pipeline_leaves_inputs_unchanged(rng):
    lay = MosaicLayout(tile=np.arange(25).reshape(5, 5), active_origin=(1, 2),
                       active_size=(20, 25))
    frame = rng.integers(0, 65535, (23, 29)).astype(np.uint16)
    dark = rng.integers(200, 400, (23, 29)).astype(np.uint16)
    white = rng.integers(60000, 65000, (23, 29)).astype(np.uint16)
    white[4:6] = dark[4:6]
    before = [a.copy() for a in (frame, dark, white)]
    for vectorized in (True, False):
        preprocess_pipeline(frame, dark, white, lay, vectorized=vectorized, threads=2)
        for a, b in zip((frame, dark, white), before):
            assert np.array_equal(a, b)


def test_crop_is_a_view_of_the_frame():
    lay = MosaicLayout(tile=np.arange(25).reshape(5, 5), active_origin=(3, 2),
                       active_size=(10, 15))
    frame = np.arange(20 * 20, dtype=np.uint16).reshape(20, 20)
    assert np.shares_memory(crop_clip(frame, lay), frame)


def test_result_cube_is_contiguous_transpose_of_planes(rng, small_layout):
    frame = rng.integers(400, 60000, (22, 28)).astype(np.uint16)
    dark = np.full((22, 28), 300, np.uint16)
    white = np.full((22, 28), 61000, np.uint16)
    res = preprocess_pipeline(frame, dark, white, small_layout)
    hm, wm, bands = small_layout.cube_shape
    assert res.planes.shape == (bands, hm, wm) and res.planes.flags.c_contiguous
    assert res.cube.flags.c_contiguous and res.cube.shape == (hm, wm, bands)
    assert np.array_equal(res.cube, res.planes.transpose(1, 2, 0))
    assert res.cube is res.cube  # transposed once, then kept
    res.cube = np.zeros(3)
    assert res.cube.shape == (3,)


def test_band_offsets_invert_the_tile():
    rng = np.random.default_rng(3)
    lay = MosaicLayout(tile=rng.permutation(25).reshape(5, 5))
    for b, (dr, dc) in enumerate(lay.band_offsets):
        assert lay.tile[dr, dc] == b


@pytest.mark.parametrize("n", [1, 2, 7])
def test_axis_t_is_axis_coeffs_t(n):
    """_axis_t's scalar is _axis_coeffs' t at every query but the one that
    clamps: the last when the samples lie at or before the center, the
    first when they lie past it."""
    for offset in range(5):
        for center in range(5):
            _, _, want = mosaic._axis_coeffs(n, offset, center, 5)
            got = mosaic._axis_t(offset, center, 5)
            assert type(got) is np.float32
            clamped = -1 if center >= offset else 0
            assert want[clamped] == 0.0
            interior = np.delete(want, clamped % n)
            assert np.array_equal(interior.view(np.uint32),
                                  np.full(n - 1, got).view(np.uint32))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # 0 * inf
@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("wm", [1, 2, 3])
def test_translate_clamped_column_does_not_leak_into_next_row(wm, threads):
    """The column pass pairs each row's clamped column with its flat
    neighbour in the next or previous row; a NaN or inf there must not
    reach that row's output, on either side of the center."""
    lay = MosaicLayout(tile=np.arange(25).reshape(5, 5), active_size=(20, 5 * wm))
    rng = np.random.default_rng(wm)
    lattice = rng.uniform(0, 1, (25, 4, wm)).astype(np.float32)
    lattice[:, 0, -1] = np.nan  # the flat neighbour of row 1's first column
    lattice[:, 3, 0] = np.inf   # the flat neighbour of row 2's last column
    slow = mosaic._translate(lattice, lay, mosaic._translate_band_naive, 1)
    fast = mosaic._translate(lattice, lay, mosaic._translate_band, threads)
    assert np.array_equal(fast, slow, equal_nan=True)
    finite = np.isfinite(slow)
    assert np.array_equal(fast[finite].view(np.uint32), slow[finite].view(np.uint32))
    # band 4 (samples right of the center) pairs columns (i-1, i) and rows
    # (i, i+1), so its row 1 reads rows 1-2 alone; band 20 (below, left of
    # the center) pairs columns (i, i+1) and rows (i-1, i), so its row 2
    # reads rows 1-2 alone: a leaked neighbour would show in them
    assert np.isfinite(slow[4, 1]).all() and np.isfinite(slow[20, 2]).all()

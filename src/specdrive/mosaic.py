"""Raw mosaic frames to reflectance cubes.

A snapshot camera covers the sensor with a repeating 5x5 grid of narrowband
filters, so each raw pixel carries one of 25 bands. The pipeline turns a
16-bit radiance frame into a (mosaic_rows, mosaic_cols, bands) reflectance
cube in four stages:

  1. crop to the filter-covered active window,
  2. dark/white reflectance correction,
  3. band extraction (gather each band's lattice samples),
  4. translation to center (interpolate every band at each mosaic center).

The band plane is the unit of work: extraction writes one contiguous
(mosaic_rows, mosaic_cols) plane per band, and translation computes each
output plane from its own band's plane alone, into that band's slot of one
band-major (bands, mosaic_rows, mosaic_cols) stack. That stack is the
pipeline's result and the .hsc payload's layout, so writing a cube file
moves no data between layouts; the (rows, cols, bands) cube is transposed
from it only when a caller asks for it. Cropping returns a view, and
reflectance runs in row blocks that stay in cache. Translation is a column
and a row pass over whole planes with one scalar weight per axis; the
clamped column and row (weight 0) are rewritten after their pass, so each
element meets the naive form's float32 operands in its order and the cube
is bitwise the naive one's. Only translation is split across
worker threads, one band per task through tiling.map_patches; a plane
depends on nothing but its band, so the cube does not depend on the worker
count.

Every stage exists in a vectorized and a naive scalar form. Both are written
against the same canonical float32 operation order, so their outputs are
bitwise identical; the naive form doubles as the reference for benchmarks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, int_option
from .tiling import map_patches

STAGE_CROP = "Image cropping"
STAGE_REFLECTANCE = "Reflectance correction"
STAGE_EXTRACT = "Band extraction"
STAGE_TRANSLATE = "Translation to center"
STAGE_TOTAL = "Total"
STAGE_NAMES = (STAGE_CROP, STAGE_REFLECTANCE, STAGE_EXTRACT, STAGE_TRANSLATE)

FULL_SCALE = 65535.0
# white-dark spans at or below this many counts are treated as degenerate
DEFAULT_EPS = 1e-6 * FULL_SCALE


@dataclass(frozen=True)
class MosaicLayout:
    """Geometry of the filter mosaic on the sensor.

    tile maps the in-mosaic offset (dr, dc) to a band index; active_origin /
    active_size locate the filter-covered window on the raw frame.
    """

    tile: np.ndarray
    active_origin: tuple[int, int] = (0, 0)
    active_size: tuple[int, int] = (1080, 2045)
    center_offset: tuple[int, int] = (2, 2)
    layout_id: str = "default-5x5"

    def __post_init__(self):
        tile = np.asarray(self.tile, dtype=np.int64)
        object.__setattr__(self, "tile", tile)
        if tile.ndim != 2 or tile.shape[0] != tile.shape[1]:
            raise DimensionMismatch(f"tile must be square, got {tile.shape}")
        k = tile.shape[0]
        if sorted(tile.ravel().tolist()) != list(range(k * k)):
            raise DimensionMismatch("tile must be a bijection onto band indices")
        if min(self.active_origin) < 0 or min(self.active_size) < 1:
            raise DimensionMismatch(
                f"bad active window {self.active_size} at {self.active_origin}")
        if self.active_size[0] % k or self.active_size[1] % k:
            raise DimensionMismatch(
                f"active size {self.active_size} not divisible by mosaic pitch {k}"
            )
        if not (0 <= self.center_offset[0] < k and 0 <= self.center_offset[1] < k):
            raise DimensionMismatch("center offset outside the mosaic tile")

    @property
    def pitch(self) -> int:
        return self.tile.shape[0]

    @property
    def bands(self) -> int:
        return self.pitch * self.pitch

    @property
    def cube_shape(self) -> tuple[int, int, int]:
        k = self.pitch
        return (self.active_size[0] // k, self.active_size[1] // k, self.bands)

    @cached_property
    def band_offsets(self) -> tuple[tuple[int, int], ...]:
        """The inverse of tile: band_offsets[b] is band b's (dr, dc)."""
        rows, cols = np.divmod(np.argsort(self.tile, axis=None), self.pitch)
        return tuple(zip(rows.tolist(), cols.tolist()))


def default_layout() -> MosaicLayout:
    """Row-major band order: band = 5*dr + dc. The vendor's true spectral
    ordering is not public; downstream math does not depend on it."""
    return MosaicLayout(tile=np.arange(25).reshape(5, 5))


@dataclass
class PreprocessResult:
    """The pipeline's output: planes is the band-major (bands, mosaic_rows,
    mosaic_cols) float32 stack, the layout a .hsc file stores, so
    formats.save_cube(path, planes.transpose(1, 2, 0)) writes it as is.
    cube is the C-contiguous (mosaic_rows, mosaic_cols, bands) array,
    transposed from planes on first access and kept; it can be assigned."""

    planes: np.ndarray
    timings_ms: dict[str, float] = field(default_factory=dict)
    degenerate_pixels: int = 0

    @cached_property
    def cube(self) -> np.ndarray:
        return np.ascontiguousarray(self.planes.transpose(1, 2, 0))


def crop_clip(frame: np.ndarray, layout: MosaicLayout) -> np.ndarray:
    """The filter-covered active window of the raw frame, as a view: it
    shares the frame's memory, so writing to it writes to the frame."""
    r0, c0 = layout.active_origin
    h, w = layout.active_size
    if frame.ndim != 2 or frame.shape[0] < r0 + h or frame.shape[1] < c0 + w:
        raise DimensionMismatch(
            f"frame {frame.shape} smaller than active window "
            f"{layout.active_size} at origin {layout.active_origin}"
        )
    return frame[r0 : r0 + h, c0 : c0 + w]


def reflectance_correct(
    img: np.ndarray,
    dark: np.ndarray,
    white: np.ndarray,
    eps: float = DEFAULT_EPS,
) -> tuple[np.ndarray, int]:
    """Normalize radiance counts to [0, 1] reflectance.

    r = clamp((img - dark) / max(white - dark, eps), 0, 1), computed in
    float32. Pixels whose white-dark span is <= eps are degenerate: they are
    forced to 0 and counted (second return value), not treated as fatal.
    """
    if not (img.shape == dark.shape == white.shape):
        raise DimensionMismatch(
            f"frame shapes disagree: {img.shape} / {dark.shape} / {white.shape}"
        )
    if eps <= 0:
        raise ValueError("eps must be positive")
    return _reflectance(img, dark, white, np.float32(eps))


# frame rows per reflectance block: at full width a block's uint16 inputs,
# its output and its three scratch arrays are ~1.2 MB, so the block's passes
# run in L2 instead of streaming the 8.8 MB frame from memory each time
_REFL_ROWS = 32


def _reflectance(img, dark, white, eps32):
    """The whole-array expression, one block of _REFL_ROWS rows at a time
    into one output. Each operand is cast to float32 once per block before
    anything is subtracted, as the naive form casts it, so every pixel
    meets the same float32 operations."""
    out = np.empty(img.shape, np.float32)
    span = np.empty((min(_REFL_ROWS, len(img)),) + img.shape[1:], np.float32)
    d = np.empty_like(span)
    bad = np.empty(span.shape, np.bool_)
    zero, one = np.float32(0.0), np.float32(1.0)
    n_bad = 0
    for r in range(0, len(img), _REFL_ROWS):
        rows = slice(r, r + _REFL_ROWS)
        o = out[rows]
        s, db, b = span[: len(o)], d[: len(o)], bad[: len(o)]
        np.copyto(db, dark[rows])
        np.copyto(s, white[rows])
        np.copyto(o, img[rows])
        np.subtract(s, db, out=s)
        np.less_equal(s, eps32, out=b)
        np.subtract(o, db, out=o)
        np.maximum(s, eps32, out=s)
        np.divide(o, s, out=o)
        np.clip(o, zero, one, out=o)
        np.copyto(o, zero, where=b)
        n_bad += int(np.count_nonzero(b))
    return out, n_bad


def _reflectance_naive(img, dark, white, eps32):
    zero = np.float32(0.0)
    one = np.float32(1.0)
    out = np.empty(img.shape, dtype=np.float32)
    n_bad = 0
    for r in range(img.shape[0]):
        for c in range(img.shape[1]):
            i = np.float32(img[r, c])
            d = np.float32(dark[r, c])
            w = np.float32(white[r, c])
            span = w - d
            denom = span if span > eps32 else eps32
            v = (i - d) / denom
            if v < zero:
                v = zero
            elif v > one:
                v = one
            if span <= eps32:
                v = zero
                n_bad += 1
            out[r, c] = v
    return out, n_bad


def band_extract(refl: np.ndarray, layout: MosaicLayout) -> np.ndarray:
    """Gather each band's own lattice samples into a cube, no interpolation.

    The result is a (mosaic_rows, mosaic_cols, bands) view of band-major
    storage, so each band plane cube[:, :, b] is contiguous.
    """
    _check_active(refl, layout)
    return _extract(refl, layout).transpose(1, 2, 0)


def _extract(refl, layout):
    """The band-major (bands, mosaic_rows, mosaic_cols) lattice planes."""
    p = layout.pitch
    hm, wm, bands = layout.cube_shape
    planes = np.empty((bands, hm, wm), dtype=np.float32)
    for dr in range(p):
        for dc in range(p):
            planes[layout.tile[dr, dc]] = refl[dr::p, dc::p]
    return planes


def _extract_naive(refl, layout):
    p = layout.pitch
    hm, wm, bands = layout.cube_shape
    planes = np.empty((bands, hm, wm), dtype=np.float32)
    for mr in range(hm):
        for mc in range(wm):
            for dr in range(p):
                for dc in range(p):
                    planes[layout.tile[dr, dc], mr, mc] = refl[mr * p + dr, mc * p + dc]
    return planes


def _axis_coeffs(n_mosaic: int, offset: int, center: int, pitch: int):
    """Interpolation bookkeeping for one axis of one band.

    The band samples sit at pitch*i + offset; the query points at
    pitch*i + center. Returns (i0, i1, t) so the interpolated value is
    (1-t)*v[i0] + t*v[i1]. Queries outside the sample hull fall back to the
    nearest sample (t forced to 0), which composes to linear interpolation
    on edges and nearest-sample at corners.
    """
    idx = np.arange(n_mosaic, dtype=np.int64)
    if center >= offset:
        i0 = idx.copy()
        t = np.full(n_mosaic, np.float32(center - offset) / np.float32(pitch), np.float32)
    else:
        i0 = idx - 1
        t = np.full(
            n_mosaic, np.float32(pitch + center - offset) / np.float32(pitch), np.float32
        )
    i1 = i0 + 1
    below = i0 < 0
    i0[below] = 0
    i1[below] = 0
    t[below] = np.float32(0.0)
    above = i1 > n_mosaic - 1
    i1[above] = n_mosaic - 1
    t[above] = np.float32(0.0)
    # where t collapsed to 0, i1 is unused; keep it in range
    return i0, i1, t


def _axis_t(offset: int, center: int, pitch: int) -> np.float32:
    """_axis_coeffs' t at every unclamped query, as one float32 scalar from
    the same float32 operands."""
    shift = center - offset + (0 if center >= offset else pitch)
    return np.float32(shift) / np.float32(pitch)


def translate_to_center(refl: np.ndarray, layout: MosaicLayout) -> np.ndarray:
    """Estimate every band at each mosaic's center position.

    Bilinear interpolation on the pitch-5 lattice of that band's samples;
    the band whose native offset is the center is copied verbatim. Returns
    a C-contiguous (mosaic_rows, mosaic_cols, bands) cube.
    """
    _check_active(refl, layout)
    planes = _translate(_extract(refl, layout), layout, _translate_band, 1)
    return np.ascontiguousarray(planes.transpose(1, 2, 0))


def _translate(lattice, layout, band_fn, threads):
    """band_fn(lattice[b], layout, b, out) fills plane b of one band-major
    stack for every band on `threads` workers; returns the (bands,
    mosaic_rows, mosaic_cols) stack."""
    hm, wm, bands = layout.cube_shape
    planes = np.empty((bands, hm, wm), dtype=np.float32)
    map_patches(lambda b: band_fn(lattice[b], layout, b, planes[b]), range(bands),
                threads)
    return planes


def _translate_band(s, layout, b, out):
    """Interpolate band b's lattice plane s at the mosaic centers into the
    C-contiguous (hm, wm) plane out.

    Per axis, _axis_coeffs pairs each query with samples (i, i+1), the last
    i+1 clamped, when the band's samples lie at or before the center, and
    with (i-1, i), the first i-1 clamped, when they lie past it; t is one
    scalar (_axis_t) except at the clamped query, where it is 0. So the
    column pass runs over the flattened plane, pairing each element with
    its flat neighbour, and then rewrites each row's one wrong pair, its
    clamped column, at t = 0. The row pass does the same over whole rows,
    in place in out, then rewrites the clamped row. Every element meets the
    float32 expression (1-t_r)*((1-t_c)*a0 + t_c*a1) + t_r*((1-t_c)*b0 +
    t_c*b1) operand for operand, so out is bitwise _translate_band_naive's.
    """
    p = layout.pitch
    cr, cc = layout.center_offset
    dr, dc = layout.band_offsets[b]
    if (dr, dc) == (cr, cc):
        out[...] = s
        return
    tmp = np.empty(s.shape, np.float32)
    _pair_pass(s.reshape(-1), _axis_t(dc, cc, p), cc >= dc, out.reshape(-1),
               tmp.reshape(-1))
    col = -1 if cc >= dc else 0
    _clamped(s[:, col], out[:, col])
    _pair_pass(out, _axis_t(dr, cr, p), cr >= dr, out, tmp)
    row = -1 if cr >= dr else 0
    _clamped(out[row], out[row])


def _pair_pass(a, t, after, out, tmp):
    """out[i] = (1-t)*a[i] + t*a[i+1] along axis 0 when after, else
    (1-t)*a[i-1] + t*a[i]; tmp is a's shape and takes the shifted term
    first, so out may be a. The unpaired last (after) or first slice of out
    is left as it was, for _clamped."""
    u = np.float32(1.0) - t
    if after:
        np.multiply(t, a[1:], out=tmp[:-1])
        np.multiply(u, a[:-1], out=out[:-1])
        np.add(out[:-1], tmp[:-1], out=out[:-1])
    else:
        np.multiply(u, a[:-1], out=tmp[1:])
        np.multiply(t, a[1:], out=out[1:])
        np.add(tmp[1:], out[1:], out=out[1:])


def _clamped(a, out):
    """The pair expression at t = 0, where both samples are a; out may be a."""
    zero = np.float32(0.0)
    np.add(np.float32(1.0) * a, zero * a, out=out)


def _translate_band_naive(s, layout, b, out):
    p = layout.pitch
    hm, wm = s.shape
    cr, cc = layout.center_offset
    dr, dc = layout.band_offsets[b]
    one = np.float32(1.0)
    if (dr, dc) == (cr, cc):
        for mr in range(hm):
            for mc in range(wm):
                out[mr, mc] = s[mr, mc]
        return
    r0, r1, tr = _axis_coeffs(hm, dr, cr, p)
    c0, c1, tc = _axis_coeffs(wm, dc, cc, p)
    for mr in range(hm):
        for mc in range(wm):
            t_r = tr[mr]
            t_c = tc[mc]
            top = (one - t_c) * s[r0[mr], c0[mc]] + t_c * s[r0[mr], c1[mc]]
            bot = (one - t_c) * s[r1[mr], c0[mc]] + t_c * s[r1[mr], c1[mc]]
            out[mr, mc] = (one - t_r) * top + t_r * bot


def _check_active(refl: np.ndarray, layout: MosaicLayout):
    if refl.shape != layout.active_size:
        raise DimensionMismatch(
            f"expected active frame {layout.active_size}, got {refl.shape}"
        )


def preprocess_pipeline(
    frame: np.ndarray,
    dark: np.ndarray,
    white: np.ndarray,
    layout: MosaicLayout | None = None,
    *,
    eps: float = DEFAULT_EPS,
    threads: int = 1,
    vectorized: bool = True,
) -> PreprocessResult:
    """Run the four preprocessing stages and time each one.

    Crop, reflectance and extraction are whole-array passes; the crops are
    views, and no stage writes to frame, dark or white. Translation
    computes one band plane per task and splits the bands across `threads`
    workers through tiling.map_patches. A plane reads only the lattice and
    its own band's coefficients and is written to its band's slot of the
    result's planes, so they are bitwise identical for any worker count and
    for both kernel variants.
    """
    if layout is None:
        layout = default_layout()
    int_option("threads", threads)
    if vectorized:
        refl_fn, extract_fn, band_fn = _reflectance, _extract, _translate_band
    else:
        refl_fn, extract_fn, band_fn = (
            _reflectance_naive, _extract_naive, _translate_band_naive)
    timings: dict[str, float] = {}

    def timed(stage, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        timings[stage] = (time.perf_counter() - t0) * 1e3
        return out

    active = timed(STAGE_CROP, crop_clip, frame, layout)
    # reference frames are corrected over the same active window
    dark_a = crop_clip(dark, layout) if dark.shape != active.shape else dark
    white_a = crop_clip(white, layout) if white.shape != active.shape else white
    refl, n_bad = timed(
        STAGE_REFLECTANCE, refl_fn, active, dark_a, white_a, np.float32(eps))
    lattice = timed(STAGE_EXTRACT, extract_fn, refl, layout)
    planes = timed(STAGE_TRANSLATE, _translate, lattice, layout, band_fn, threads)

    timings[STAGE_TOTAL] = sum(timings[name] for name in STAGE_NAMES)
    return PreprocessResult(planes=planes, timings_ms=timings, degenerate_pixels=n_bad)

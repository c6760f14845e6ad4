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
band-major stack that is transposed to the cube once. Translation reads its
neighbours as shifted slices of an edge-padded copy of the plane, not by
index gathers; the slices hold the same values the gathers read, so the
cube is bitwise what the gathers gave. Only translation is split across
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

    def band_offset(self, band: int) -> tuple[int, int]:
        """Return the (dr, dc) lattice offset of a band inside the tile."""
        pos = np.argwhere(self.tile == band)
        return int(pos[0, 0]), int(pos[0, 1])


def default_layout() -> MosaicLayout:
    """Row-major band order: band = 5*dr + dc. The vendor's true spectral
    ordering is not public; downstream math does not depend on it."""
    return MosaicLayout(tile=np.arange(25).reshape(5, 5))


@dataclass
class PreprocessResult:
    cube: np.ndarray
    timings_ms: dict[str, float] = field(default_factory=dict)
    degenerate_pixels: int = 0


def crop_clip(frame: np.ndarray, layout: MosaicLayout) -> np.ndarray:
    """Cut the filter-covered active window out of the raw frame."""
    r0, c0 = layout.active_origin
    h, w = layout.active_size
    if frame.ndim != 2 or frame.shape[0] < r0 + h or frame.shape[1] < c0 + w:
        raise DimensionMismatch(
            f"frame {frame.shape} smaller than active window "
            f"{layout.active_size} at origin {layout.active_origin}"
        )
    return frame[r0 : r0 + h, c0 : c0 + w].copy()


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


def _reflectance(img, dark, white, eps32):
    # dtype= casts both operands to float32 before subtracting, as the naive form does
    span = np.subtract(white, dark, dtype=np.float32)
    bad = span <= eps32
    i = np.subtract(img, dark, dtype=np.float32)
    np.maximum(span, eps32, out=span)
    np.divide(i, span, out=i)
    np.clip(i, np.float32(0.0), np.float32(1.0), out=i)
    np.copyto(i, np.float32(0.0), where=bad)
    return i, int(np.count_nonzero(bad))


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
    return _extract(refl, layout)


def _extract(refl, layout):
    p = layout.pitch
    hm, wm, bands = layout.cube_shape
    planes = np.empty((bands, hm, wm), dtype=np.float32)
    for dr in range(p):
        for dc in range(p):
            planes[layout.tile[dr, dc]] = refl[dr::p, dc::p]
    return planes.transpose(1, 2, 0)


def _extract_naive(refl, layout):
    p = layout.pitch
    hm, wm, bands = layout.cube_shape
    planes = np.empty((bands, hm, wm), dtype=np.float32)
    for mr in range(hm):
        for mc in range(wm):
            for dr in range(p):
                for dc in range(p):
                    planes[layout.tile[dr, dc], mr, mc] = refl[mr * p + dr, mc * p + dc]
    return planes.transpose(1, 2, 0)


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


def translate_to_center(refl: np.ndarray, layout: MosaicLayout) -> np.ndarray:
    """Estimate every band at each mosaic's center position.

    Bilinear interpolation on the pitch-5 lattice of that band's samples;
    the band whose native offset is the center is copied verbatim.
    """
    return _translate(band_extract(refl, layout), layout, _translate_band, 1)


def _translate(lattice, layout, band_fn, threads):
    """band_fn(lattice, layout, b, out) fills plane b of one band-major stack
    for every band on `threads` workers; returns the stack as one
    C-contiguous (mosaic_rows, mosaic_cols, bands) cube."""
    hm, wm, bands = layout.cube_shape
    planes = np.empty((bands, hm, wm), dtype=np.float32)
    map_patches(lambda b: band_fn(lattice, layout, b, planes[b]), range(bands), threads)
    return np.ascontiguousarray(planes.transpose(1, 2, 0))


# output rows per block in _translate_band: at full width its two scratch
# blocks are ~50 KB, so each block's six passes stay in cache
_BLOCK_ROWS = 32


def _translate_band(lattice, layout, b, out):
    """Interpolate band b at the mosaic centers into the (hm, wm) plane out.

    Per axis, _axis_coeffs pairs each query with samples (i, i+1), the last
    i+1 clamped, when the band's samples lie at or before the center, and
    with (i-1, i), the first i-1 clamped, when they lie past it; t is 0
    where it clamps. An edge-padded copy of the plane, its replicated row
    and column behind the axis in the first case and in front of it in the
    second, holds those pairs as shifted slices: pad[:hm] is rows i0 and
    pad[1:] rows i1, likewise for columns. So the four corners are, element
    for element, the values the index gathers used to read, and they meet
    in the same float32 expression, (1-t_r)*((1-t_c)*a0 + t_c*a1) +
    t_r*((1-t_c)*b0 + t_c*b1), operand for operand: the plane is bitwise
    what the gathers gave. The column pass over padded row i is both the
    top of output row i and the bottom of row i-1, so it runs once per
    row, in blocks of _BLOCK_ROWS rows.
    """
    p = layout.pitch
    hm, wm, _ = layout.cube_shape
    cr, cc = layout.center_offset
    dr, dc = layout.band_offset(b)
    s = lattice[:, :, b]
    if (dr, dc) == (cr, cc):
        out[...] = s
        return
    _, _, tr = _axis_coeffs(hm, dr, cr, p)
    _, _, tc = _axis_coeffs(wm, dc, cc, p)
    pr, pc = int(cr < dr), int(cc < dc)
    pad = np.empty((hm + 1, wm + 1), dtype=np.float32)
    pad[pr : pr + hm, pc : pc + wm] = s
    pad[pr : pr + hm, 0 if pc else -1] = s[:, 0 if pc else -1]
    pad[0 if pr else -1] = pad[1 if pr else -2]
    one = np.float32(1.0)
    uc, ur, tr = one - tc, (one - tr)[:, None], tr[:, None]
    h = np.empty((_BLOCK_ROWS + 1, wm), dtype=np.float32)
    tmp = np.empty_like(h)
    for r in range(0, hm, _BLOCK_ROWS):
        n = min(_BLOCK_ROWS, hm - r)
        hb, tb, ob = h[: n + 1], tmp[: n + 1], out[r : r + n]
        np.multiply(uc, pad[r : r + n + 1, :wm], out=hb)
        np.multiply(tc, pad[r : r + n + 1, 1:], out=tb)
        np.add(hb, tb, out=hb)
        np.multiply(ur[r : r + n], hb[:n], out=ob)
        np.multiply(tr[r : r + n], hb[1:], out=tb[:n])
        np.add(ob, tb[:n], out=ob)


def _translate_band_naive(lattice, layout, b, out):
    p = layout.pitch
    hm, wm, _ = layout.cube_shape
    cr, cc = layout.center_offset
    dr, dc = layout.band_offset(b)
    s = lattice[:, :, b]
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

    Crop, reflectance and extraction are whole-array passes. Translation
    computes one band plane per task and splits the bands across `threads`
    workers through tiling.map_patches. A plane reads only the lattice and
    its own band's coefficients and is written to its band's slot, so the
    cube is bitwise identical for any worker count and for both kernel
    variants.
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
    cube = timed(STAGE_TRANSLATE, _translate, lattice, layout, band_fn, threads)

    timings[STAGE_TOTAL] = sum(timings[name] for name in STAGE_NAMES)
    return PreprocessResult(cube=cube, timings_ms=timings, degenerate_pixels=n_bad)

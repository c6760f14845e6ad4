"""Synthetic scenes with exact ground truth.

Real labelled recordings from a mosaic camera cannot be assumed available,
so tests and demos run on generated scenes that invert the preprocessing
model: a ground-truth reflectance field is sampled at each band's lattice
positions and re-encoded as radiance counts I = dark + r * (white - dark).

Two scene kinds:

* "classes": regions on the mosaic grid, each with its own 25-band
  signature. Signatures are snapped to integer counts, so inside a region
  the raw frame encodes the reflectance exactly and the pipeline recovers
  it to float32 rounding. Labels are weak: pixels whose interpolation
  neighbourhood crosses a region boundary carry the ignore label, mirroring
  contour-free labelling of real datasets.

* "gradient": per-band affine radiance fields with integer coefficients,
  exactly representable in 16-bit counts. Center interpolation is exact on
  affine fields, which makes these scenes a round-trip oracle for the whole
  preprocessing chain (interior to float32 rounding, border ring to the
  one-axis fallback error).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpec, fields, json_field, json_spec
from .metrics import IGNORE_LABEL
from .model import ModelGraph, build_mlp
from .mosaic import MosaicLayout, default_layout


@dataclass(frozen=True)
class SceneSpec:
    kind: str = json_field("classes", frozenset({"classes", "gradient"}))
    # class maps and masks are uint8, and IGNORE_LABEL takes the last value
    num_classes: int = json_field(3, int, 1, IGNORE_LABEL)
    layout_kind: str = json_field("vstripes", frozenset({"vstripes", "hstripes", "rects"}))
    rects: tuple = json_field((), [[int] * 5], 0)  # (r0, c0, r1, c1, class_id), mosaic grid
    noise: float = json_field(0.0, float, 0, 1)  # a share of the dark-to-white span
    seed: int = json_field(0, int, 0)
    erode: int = json_field(1, int, 0, 32)  # weak_labels makes (2 * erode + 1)^2 shifts
    dark_level: int = json_field(512, int, 0, 65535)
    white_level: int = json_field(62000, int, 0, 65535)

    def __post_init__(self):
        fields(vars(self), json_spec(SceneSpec), "scene spec", InvalidSpec)
        if self.layout_kind == "rects" and not self.rects:
            raise InvalidSpec("rects layout needs at least one rectangle")
        if self.rects and self.layout_kind != "rects":
            raise InvalidSpec(f"'rects' need layout_kind 'rects', not {self.layout_kind!r}")
        if self.dark_level >= self.white_level:
            raise InvalidSpec("need dark_level < white_level")

    @classmethod
    def from_dict(cls, d, name: str = "scene spec") -> "SceneSpec":
        """The spec in the JSON object d; name says where it came from."""
        checked = fields(d, json_spec(cls), name, InvalidSpec)
        try:
            return cls(**checked)
        except InvalidSpec as e:  # a check across keys
            raise InvalidSpec(f"{name}: {e}") from None


@dataclass
class SceneData:
    raw: np.ndarray            # full sensor frame, uint16
    dark: np.ndarray
    white: np.ndarray
    gt_cube: np.ndarray        # float32 reflectance at mosaic centers
    labels: np.ndarray         # weak labels, uint8, ignore at region contours
    class_map: np.ndarray      # dense class per mosaic, uint8
    signatures: np.ndarray | None  # (classes, bands) effective reflectance
    layout: MosaicLayout
    spec: SceneSpec = field(repr=False, default=None)


def class_signatures(num_classes: int, seed: int = 0, bands: int = 25) -> np.ndarray:
    """Smooth, well-separated spectral curves in (0, 1): each class gets a
    distinct reflectance peak plus a seeded baseline jitter."""
    rng = np.random.default_rng(seed)
    b = np.arange(bands)
    sigs = np.empty((num_classes, bands))
    for k in range(num_classes):
        center = (k + 0.5) * bands / num_classes
        bump = np.exp(-((b - center) ** 2) / (2 * 3.5**2))
        base = 0.18 + 0.08 * (k % 3) + rng.uniform(-0.02, 0.02)
        sigs[k] = base + 0.5 * bump + rng.normal(0.0, 0.004, bands)
    return np.clip(sigs, 0.05, 0.95)


def _class_map(spec: SceneSpec, hm: int, wm: int) -> np.ndarray:
    if spec.layout_kind == "vstripes":
        cols = np.arange(wm)
        cmap = (cols * spec.num_classes // wm)[None, :].repeat(hm, axis=0)
    elif spec.layout_kind == "hstripes":
        rows = np.arange(hm)
        cmap = (rows * spec.num_classes // hm)[:, None].repeat(wm, axis=1)
    else:
        cmap = np.zeros((hm, wm), dtype=np.int64)
        for r0, c0, r1, c1, cid in spec.rects:
            if not (0 <= r0 < r1 <= hm and 0 <= c0 < c1 <= wm):
                raise InvalidSpec(f"rectangle {(r0, c0, r1, c1)} outside the canvas")
            if not 0 <= cid < spec.num_classes:
                raise InvalidSpec(f"rectangle class {cid} out of range")
            cmap[r0:r1, c0:c1] = cid
    return cmap.astype(np.uint8)


def weak_labels(class_map: np.ndarray, erode: int = 1) -> np.ndarray:
    """IGNORE_LABEL every pixel within `erode` (chebyshev) of a region edge."""
    labels = class_map.astype(np.uint8).copy()
    if erode <= 0:
        return labels
    h, w = class_map.shape
    bad = np.zeros((h, w), dtype=bool)
    pm = np.pad(class_map, erode, mode="edge")
    for di in range(-erode, erode + 1):
        for dj in range(-erode, erode + 1):
            if di == 0 and dj == 0:
                continue
            shifted = pm[erode + di : erode + di + h, erode + dj : erode + dj + w]
            bad |= shifted != class_map
    labels[bad] = IGNORE_LABEL
    return labels


def synth_scene(spec: SceneSpec, layout: MosaicLayout | None = None) -> SceneData:
    """Generate raw + reference frames, ground-truth cube and weak labels."""
    if layout is None:
        layout = default_layout()
    hm, wm, bands = layout.cube_shape
    ah, aw = layout.active_size
    p = layout.pitch
    rng = np.random.default_rng(spec.seed)
    span = spec.white_level - spec.dark_level

    # band index of every raw pixel in the active window
    band_map = np.tile(layout.tile.astype(np.int64), (hm, wm))
    if spec.kind == "classes":
        sig = class_signatures(spec.num_classes, spec.seed, bands)
        sig_counts = np.rint(spec.dark_level + sig * span)
        sig_eff = (sig_counts - spec.dark_level) / span
        cmap = _class_map(spec, hm, wm)
        cmap_full = np.repeat(np.repeat(cmap, p, axis=0), p, axis=1)
        counts = sig_counts.astype(np.float32)[cmap_full, band_map]
        gt = sig_eff[cmap].astype(np.float32)
        signatures = sig_eff
    else:
        slope_r = rng.integers(-2, 3, size=bands)
        slope_c = rng.integers(-2, 3, size=bands)
        # keep the whole affine field inside (dark, white) with margin
        lo = spec.dark_level + 64 - np.minimum(slope_r * (ah - 1), 0) - np.minimum(
            slope_c * (aw - 1), 0
        )
        hi = spec.white_level - 64 - np.maximum(slope_r * (ah - 1), 0) - np.maximum(
            slope_c * (aw - 1), 0
        )
        base = rng.integers(lo, hi + 1)
        # affine integer count fields are exact in float32 (all values < 2^24)
        x = np.arange(ah, dtype=np.float32)[:, None]
        y = np.arange(aw, dtype=np.float32)[None, :]
        counts = base.astype(np.float32)[band_map]
        counts += slope_r.astype(np.float32)[band_map] * x
        counts += slope_c.astype(np.float32)[band_map] * y
        cr, cc = layout.center_offset
        xc = (cr + p * np.arange(hm, dtype=np.float32))[:, None, None]
        yc = (cc + p * np.arange(wm, dtype=np.float32))[None, :, None]
        gt_counts = (
            base.astype(np.float32)
            + slope_r.astype(np.float32) * xc
            + slope_c.astype(np.float32) * yc
        )
        gt = ((gt_counts - np.float32(spec.dark_level)) / np.float32(span)).astype(
            np.float32
        )
        cmap = np.zeros((hm, wm), dtype=np.uint8)
        signatures = None

    if spec.noise > 0:
        counts = counts + np.rint(spec.noise * span * rng.standard_normal(counts.shape))

    frame_h = layout.active_origin[0] + ah + 8
    frame_w = layout.active_origin[1] + aw + 3
    raw = np.full((frame_h, frame_w), spec.dark_level, dtype=np.uint16)
    r0, c0 = layout.active_origin
    raw[r0 : r0 + ah, c0 : c0 + aw] = np.clip(counts, 0, 65535).astype(np.uint16)
    dark = np.full((frame_h, frame_w), spec.dark_level, dtype=np.uint16)
    white = np.full((frame_h, frame_w), spec.white_level, dtype=np.uint16)

    return SceneData(
        raw=raw,
        dark=dark,
        white=white,
        gt_cube=gt,
        labels=weak_labels(cmap, spec.erode),
        class_map=cmap,
        signatures=signatures,
        layout=layout,
        spec=spec,
    )


def interior_mask(shape: tuple[int, int]) -> np.ndarray:
    """True away from the outer ring of mosaics, where center interpolation
    has its full 4-sample neighbourhood."""
    mask = np.zeros(shape, dtype=bool)
    mask[1:-1, 1:-1] = True
    return mask


# separating_mlp_weights' gains: of the tanh embedding, of the class scores
# and of the centered logits
EMBED_GAIN, SCORE_GAIN, OUT_GAIN = 2.0, 0.1, 300.0


def separating_mlp_weights(signatures) -> tuple[ModelGraph, dict[str, np.ndarray]]:
    """Hand-built spectral classifier with provable argmax.

    Construction: band-sum normalize, center, squash through tanh with a
    known gain, then score each class by closeness to its (numerically
    embedded) centroid; the final layer subtracts the mean score so logits
    stay centered. Every stage after the scores is strictly monotone per
    unit, so the network's argmax equals the nearest-centroid decision.
    """
    sig = np.asarray(signatures, np.float64)
    classes, bands = sig.shape
    if bands != 25:
        raise InvalidSpec("separating classifier expects 25 bands")
    if classes < 2 or classes > 100:
        raise InvalidSpec("separating classifier supports 2..100 classes")
    graph = build_mlp(bands, classes)

    sig_n = sig / sig.sum(axis=1, keepdims=True)
    mu = sig_n.mean(axis=0)
    centroids = np.tanh(EMBED_GAIN * (sig_n - mu))  # (classes, 25)

    weights: dict[str, np.ndarray] = {
        "norm.zscore.mean": mu.astype(np.float32),
        "norm.zscore.std": np.ones(bands, np.float32),
        "fc0.weight": (EMBED_GAIN * np.eye(bands)).astype(np.float32),
        "fc0.bias": np.zeros(25, np.float32),
    }
    w1 = np.zeros((25, 100))
    b1 = np.zeros(100)
    w1[:, :classes] = SCORE_GAIN * centroids.T
    b1[:classes] = -SCORE_GAIN * 0.5 * (centroids**2).sum(axis=1)
    weights["fc1.weight"] = w1.astype(np.float32)
    weights["fc1.bias"] = b1.astype(np.float32)

    w2 = np.zeros((100, 100))
    w2[:classes, :classes] = np.eye(classes)
    weights["fc2.weight"] = w2.astype(np.float32)
    weights["fc2.bias"] = np.zeros(100, np.float32)

    w3 = np.zeros((100, classes))
    w3[:classes, :classes] = OUT_GAIN * (
        np.eye(classes) - np.full((classes, classes), 1.0 / classes)
    )
    weights["fc3.weight"] = w3.astype(np.float32)
    weights["fc3.bias"] = np.zeros(classes, np.float32)
    return graph, weights

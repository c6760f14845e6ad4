"""On-disk formats: raw frames, cubes, layouts, masks, renders and the
framed tensor container behind the .sdw and .sdq model files.

Everything is either JSON or a trivially parseable binary: raw frames are
little-endian uint16 rasters with a JSON sidecar, cubes are a JSON header
line followed by band-major float32 planes, masks are binary portable
graymaps (P5) holding class indices, renders are portable pixmaps (P6) with
a fixed palette so two runs are diffable byte for byte.

Loaders trust nothing: a malformed header, a payload of the wrong length or
a non-finite cube raises CorruptContainer naming the file. read_container
returns a container's data, its header and arrays, for the loaders to check.
"""

from __future__ import annotations

import json
import re
from math import prod
from pathlib import Path

import numpy as np

from .errors import (CorruptContainer, DimensionMismatch, Field, construct, decode, fields,
                     read_json)
from .metrics import IGNORE_LABEL
from .mosaic import MosaicLayout
from .tiling import PatchGrid

# class index -> RGB; cycled for indices past the end, ignore label is black
PALETTE = (
    (84, 84, 84),     # 0 drivable surface
    (255, 255, 255),  # 1 road marks
    (178, 34, 34),    # 2 non-drivable / other
    (34, 139, 34),    # 3 vegetation
    (70, 130, 180),   # 4 sky
    (218, 165, 32),
    (186, 85, 211),
    (0, 139, 139),
    (244, 164, 96),
    (119, 136, 153),
)


_SIZE = Field(int, 1)
# the one-line JSON header of a cube, and a raw frame's sidecar
CUBE_HEADER = {"height": _SIZE, "width": _SIZE, "bands": _SIZE,
               "dtype": Field(frozenset({"f32le"})),
               "order": Field(frozenset({"band-major"}))}
SIDECAR = {"width": _SIZE, "height": _SIZE, "bit_depth": Field(int, 1, 16, default=16),
           "layout_id": Field(str, default="default-5x5")}
# tile entries are bounded so they fit int64; MosaicLayout checks they are
# the band indices
LAYOUT = {"tile": Field([[int]], 0, 2**31), "active_origin": Field([int] * 2, 0),
          "active_size": Field([int] * 2, 1), "center_offset": Field([int] * 2, 0),
          "id": Field(str, default="custom")}


def write_container(path, magic: bytes, header: dict, tensors) -> None:
    """Framed container: 4-byte magic, little-endian uint32 header length,
    UTF-8 JSON header (the given keys, then the "tensors" manifest), then the
    tensor bytes in manifest order. tensors are (manifest entry, array)
    pairs; each entry names the array's name, shape and dtype."""
    text = json.dumps({**header, "tensors": [entry for entry, _ in tensors]}).encode()
    with open(path, "wb") as f:
        f.write(magic)
        f.write(len(text).to_bytes(4, "little"))
        f.write(text)
        for _, arr in tensors:
            f.write(arr.tobytes())


def read_container(path, magic: bytes, dtypes: dict[str, str],
                   header: dict[str, Field], entry: dict[str, Field] | None = None):
    """Read a framed container and return its data: (header, {name:
    (array, manifest entry)}), both as errors.fields reads them. The header
    holds header's keys and "tensors", whose entries hold a name, shape,
    dtype (a key of dtypes, which maps it to a numpy dtype) and entry's
    keys. The payload must end exactly after the last tensor and float
    tensors must be finite."""
    raw = Path(path).read_bytes()
    if len(raw) < 8 or raw[:4] != magic:
        raise CorruptContainer(f"{path}: not a {magic.decode()} container")
    offset = 8 + int.from_bytes(raw[4:8], "little")
    entry = {"name": Field(str), "shape": Field([int], 0),
             "dtype": Field(frozenset(dtypes)), **(entry or {})}
    # a truncated header is cut-off JSON
    header = fields(decode(raw[8:offset], str(path), CorruptContainer),
                    {**header, "tensors": Field([entry])}, str(path), CorruptContainer)
    arrays: dict[str, tuple[np.ndarray, dict]] = {}
    for e in header["tensors"]:
        name, shape, dtype = e["name"], e["shape"], np.dtype(dtypes[e["dtype"]])
        nbytes = prod(shape) * dtype.itemsize
        if len(raw) < offset + nbytes:
            raise CorruptContainer(f"{path}: truncated payload at {name}")
        arr = np.frombuffer(raw, dtype, prod(shape), offset).reshape(shape).copy()
        if dtype.kind == "f" and not np.isfinite(arr).all():
            raise CorruptContainer(f"{path}: non-finite values in {name}")
        arrays[name] = (arr, e)
        offset += nbytes
    if offset != len(raw):
        raise CorruptContainer(f"{path}: {len(raw) - offset} trailing bytes")
    return header, arrays


def save_raw(path, frame: np.ndarray, layout_id: str = "default-5x5") -> None:
    """The frame as little-endian uint16 and its sidecar, at bit depth 16."""
    frame = np.ascontiguousarray(frame, dtype="<u2")
    Path(path).write_bytes(frame.tobytes())
    sidecar = {
        "width": frame.shape[1],
        "height": frame.shape[0],
        "bit_depth": 16,
        "layout_id": layout_id,
    }
    Path(str(path) + ".json").write_text(json.dumps(sidecar))


def load_raw(path) -> tuple[np.ndarray, dict]:
    sidecar_path = Path(str(path) + ".json")
    if not sidecar_path.exists():
        raise CorruptContainer(f"{path}: missing sidecar {sidecar_path}")
    meta = read_json(sidecar_path, SIDECAR, CorruptContainer)
    h, w = meta["height"], meta["width"]
    size = Path(path).stat().st_size
    if size != w * h * 2:
        raise CorruptContainer(
            f"{path}: payload is {size} bytes, sidecar promises {w * h * 2}"
        )
    frame = np.empty((h, w), "<u2")
    with open(path, "rb") as f:
        if f.readinto(frame) != frame.nbytes:
            raise CorruptContainer(f"{path}: payload changed while reading")
    return frame, meta


def save_cube(path, cube: np.ndarray) -> None:
    """Write a (rows, cols, bands) cube as its JSON header line and its
    band-major little-endian float32 planes, in one transposing copy. A cube
    that is a view of such planes, as preprocess writes
    PreprocessResult.planes.transpose(1, 2, 0), is written straight from
    its buffer."""
    cube = np.asarray(cube, dtype=np.float32)
    if cube.ndim != 3:
        raise DimensionMismatch(f"cube must be 3-d, got {cube.shape}")
    h, w, b = cube.shape
    header = json.dumps(
        {"height": h, "width": w, "bands": b, "dtype": "f32le", "order": "band-major"}
    )
    planes = np.ascontiguousarray(cube.transpose(2, 0, 1), "<f4")
    with open(path, "wb") as f:
        f.write(header.encode() + b"\n")
        f.write(planes)


def load_cube(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise CorruptContainer(f"{path}: missing cube header")
    meta = fields(decode(raw[:nl], str(path), CorruptContainer), CUBE_HEADER, str(path),
                  CorruptContainer)
    h, w, b = meta["height"], meta["width"], meta["bands"]
    payload = memoryview(raw)[nl + 1 :]
    if len(payload) != h * w * b * 4:
        raise CorruptContainer(f"{path}: cube payload truncated")
    planes = np.frombuffer(payload, "<f4").reshape(b, h, w)
    if not np.isfinite(planes).all():
        raise CorruptContainer(f"{path}: cube holds NaN or infinite values")
    return np.ascontiguousarray(planes.transpose(1, 2, 0))


def save_layout(path, layout: MosaicLayout) -> None:
    Path(path).write_text(
        json.dumps(
            {
                "tile": layout.tile.tolist(),
                "active_origin": list(layout.active_origin),
                "active_size": list(layout.active_size),
                "center_offset": list(layout.center_offset),
                "id": layout.layout_id,
            }
        )
    )


def load_layout(path) -> MosaicLayout:
    d = read_json(path, LAYOUT, CorruptContainer)
    if len({len(row) for row in d["tile"]}) > 1:
        raise CorruptContainer(f"{path}: 'tile' rows differ in length")
    d["layout_id"] = d.pop("id")
    return construct(MosaicLayout, d, str(path))


def save_mask(path, mask: np.ndarray) -> None:
    mask = np.ascontiguousarray(mask, dtype=np.uint8)
    h, w = mask.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(mask.tobytes())


# one header field of a binary graymap, after whitespace and comment lines
_PNM_FIELD = re.compile(rb"(?:\s|#[^\n]*\n)+(\d+)")


def load_mask(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if not raw.startswith(b"P5"):
        raise CorruptContainer(f"{path}: not a binary graymap")
    header: list[int] = []
    pos = 2
    while len(header) < 3:
        m = _PNM_FIELD.match(raw, pos)
        if m is None:
            raise CorruptContainer(f"{path}: bad graymap header")
        header.append(int(m.group(1)))
        pos = m.end()
    if not raw[pos : pos + 1].isspace():
        raise CorruptContainer(f"{path}: bad graymap header")
    pos += 1  # single whitespace after maxval
    w, h, maxval = header
    if maxval != 255:
        raise CorruptContainer(f"{path}: unsupported maxval {maxval}")
    data = raw[pos : pos + w * h]
    if len(data) != w * h:
        raise CorruptContainer(f"{path}: graymap payload truncated")
    return np.frombuffer(data, np.uint8).reshape(h, w).copy()


def render_mask(mask: np.ndarray) -> np.ndarray:
    """Class indices to RGB with the fixed palette; IGNORE_LABEL is black."""
    rgb = np.zeros((*mask.shape, 3), np.uint8)
    for cid in np.unique(mask):
        if cid == IGNORE_LABEL:
            continue
        rgb[mask == cid] = PALETTE[int(cid) % len(PALETTE)]
    return rgb


def save_render(path, mask: np.ndarray) -> None:
    rgb = render_mask(mask)
    h, w = mask.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(rgb.tobytes())


def load_grid(path):
    return PatchGrid.from_json(Path(path).read_bytes(), str(path))

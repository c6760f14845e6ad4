import json

import numpy as np
import pytest

from specdrive import formats
from specdrive.errors import CorruptContainer, Field
from specdrive.metrics import IGNORE_LABEL
from specdrive.mosaic import default_layout
from specdrive.tiling import build_grid


def test_raw_roundtrip(tmp_path, rng):
    frame = rng.integers(0, 65536, (12, 17)).astype(np.uint16)
    path = tmp_path / "f.u16"
    formats.save_raw(path, frame, "demo")
    back, meta = formats.load_raw(path)
    assert np.array_equal(frame, back)
    assert meta == {"width": 17, "height": 12, "bit_depth": 16, "layout_id": "demo"}


def test_raw_missing_sidecar(tmp_path):
    path = tmp_path / "f.u16"
    path.write_bytes(b"\x00" * 8)
    with pytest.raises(CorruptContainer):
        formats.load_raw(path)


def test_raw_payload_length_checked(tmp_path, rng):
    frame = rng.integers(0, 65536, (4, 4)).astype(np.uint16)
    path = tmp_path / "f.u16"
    formats.save_raw(path, frame)
    path.write_bytes(path.read_bytes()[:-2])
    with pytest.raises(CorruptContainer):
        formats.load_raw(path)


def test_cube_roundtrip(tmp_path, rng):
    cube = rng.uniform(0, 1, (7, 9, 5)).astype(np.float32)
    path = tmp_path / "c.hsc"
    formats.save_cube(path, cube)
    back = formats.load_cube(path)
    assert np.array_equal(cube, back)
    header = path.read_bytes().split(b"\n", 1)[0].decode()
    assert '"order": "band-major"' in header and '"dtype": "f32le"' in header


@pytest.mark.parametrize("make", [
    lambda c: c,
    lambda c: np.ascontiguousarray(c.transpose(1, 0, 2)).transpose(1, 0, 2),
    lambda c: np.ascontiguousarray(c.transpose(2, 0, 1)).transpose(1, 2, 0),
    lambda c: np.repeat(c, 2, axis=1)[:, ::2],
    lambda c: np.ascontiguousarray(c.transpose(2, 0, 1), ">f4").transpose(1, 2, 0),
    lambda c: c.astype(np.float64),
], ids=["float32", "transposed", "band-major", "strided", "big-endian", "float64"])
@pytest.mark.parametrize("height", [1, 7, 8, 21])
def test_cube_payload_is_band_major_planes(tmp_path, rng, height, make):
    """The cube write gives the whole-cube transpose's bytes for heights
    below, at and off the 8-row block and for any input layout: a view of
    little-endian band-major planes is written as it is, anything else in
    row blocks."""
    cube = make(rng.uniform(0, 1, (height, 6, 5)).astype(np.float32))
    path = tmp_path / "c.hsc"
    formats.save_cube(path, cube)
    payload = path.read_bytes().split(b"\n", 1)[1]
    assert payload == np.ascontiguousarray(cube.transpose(2, 0, 1), "<f4").tobytes()
    assert np.array_equal(formats.load_cube(path), cube.astype(np.float32))


def test_cube_truncation_detected(tmp_path, rng):
    cube = rng.uniform(0, 1, (4, 4, 3)).astype(np.float32)
    path = tmp_path / "c.hsc"
    formats.save_cube(path, cube)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(CorruptContainer):
        formats.load_cube(path)


def test_layout_roundtrip(tmp_path):
    lay = default_layout()
    path = tmp_path / "l.json"
    formats.save_layout(path, lay)
    back = formats.load_layout(path)
    assert np.array_equal(back.tile, lay.tile)
    assert back.active_size == lay.active_size
    assert back.center_offset == lay.center_offset


def test_mask_roundtrip(tmp_path, rng):
    mask = rng.integers(0, 4, (11, 13)).astype(np.uint8)
    mask[0, 0] = IGNORE_LABEL
    path = tmp_path / "m.pgm"
    formats.save_mask(path, mask)
    assert path.read_bytes().startswith(b"P5\n13 11\n255\n")
    assert np.array_equal(formats.load_mask(path), mask)


def test_render_palette_fixed(tmp_path):
    mask = np.array([[0, 1], [2, IGNORE_LABEL]], np.uint8)
    rgb = formats.render_mask(mask)
    assert tuple(rgb[0, 0]) == formats.PALETTE[0]
    assert tuple(rgb[0, 1]) == formats.PALETTE[1]
    assert tuple(rgb[1, 1]) == (0, 0, 0)
    path = tmp_path / "m.ppm"
    formats.save_render(path, mask)
    assert path.read_bytes().startswith(b"P6\n2 2\n255\n")


def test_grid_file_roundtrip(tmp_path):
    grid = build_grid((216, 409), 128, 44, 57)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(
        {"patch": grid.patch_size, "rows": grid.row_starts, "cols": grid.col_starts}))
    assert formats.load_grid(path) == grid


def test_read_container_returns_its_data(tmp_path):
    """read_container takes no callback: it returns the header and each
    tensor with its manifest entry, for the model loaders to check."""
    a = np.arange(6, dtype="<f4").reshape(2, 3)
    formats.write_container(tmp_path / "c.bin", b"TST1", {"k": 1},
                            [({"name": "a", "shape": [2, 3], "dtype": "f32le"}, a)])
    header, arrays = formats.read_container(tmp_path / "c.bin", b"TST1",
                                            {"f32le": "<f4"}, {"k": Field(int)})
    assert header["k"] == 1 and list(arrays) == ["a"]
    arr, entry = arrays["a"]
    assert np.array_equal(arr, a)
    assert entry == {"name": "a", "shape": (2, 3), "dtype": "f32le"}

"""Fuzzed loaders: every on-disk format and JSON input, truncated,
bit-flipped, with a header key dropped or with one JSON value swapped for a
value of another type, either loads or raises a SpecdriveError, and the CLI
command that reads it exits 0 or 2, never 3. The analysis commands' own
arguments are fuzzed the same way.

The example set is fixed by the hypothesis profile in conftest.py."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from specdrive import bench, cli, formats
from specdrive.cli import main
from specdrive.errors import SpecdriveError, decode, fields
from specdrive.model import UNetConfig, build_mlp, build_unet
from specdrive.mosaic import MosaicLayout
from specdrive.quant import load_qgraph, quantize_model, save_qgraph
from specdrive.synth import SceneSpec
from specdrive.weights import generate_weights, load_weights, save_weights

SMALL = UNetConfig(patch_size=8, encoder_depth=1, initial_filters=2, in_channels=5)


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Valid seed files, plus an out/ directory the fuzzed copies go to."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(9)
    cube = rng.uniform(0.05, 0.95, (12, 12, 5)).astype(np.float32)
    formats.save_cube(root / "cube.hsc", cube)
    unet = build_unet(SMALL)
    w = generate_weights(unet, 2)
    save_weights(root / "unet.sdw", unet, w)
    save_qgraph(root / "unet.sdq", quantize_model(unet, w, [cube[:8, :8]]))
    mlp = build_mlp(5, 3)
    save_qgraph(root / "mlp.sdq", quantize_model(mlp, generate_weights(mlp, 3), [cube]))
    layout = MosaicLayout(tile=np.arange(25).reshape(5, 5), active_size=(10, 15))
    formats.save_layout(root / "layout.json", layout)
    for name, hi in (("raw", 3000), ("dark", 200), ("white", 4000)):
        formats.save_raw(root / f"{name}.u16",
                         rng.integers(hi - 200, hi, (10, 15)).astype(np.uint16))
    (root / "grid.json").write_text(json.dumps({"patch": 8, "rows": [0, 4], "cols": [0, 4]}))
    formats.save_mask(root / "mask.pgm", rng.integers(0, 3, (6, 7)).astype(np.uint8))
    formats.save_mask(root / "labels.pgm", rng.integers(0, 3, (12, 12)).astype(np.uint8))
    (root / "out").mkdir()
    paths = {k: str(root / f) for k, f in (
        ("cube", "cube.hsc"), ("model", "unet.sdw"), ("grid", "grid.json"),
        ("raw", "raw.u16"), ("dark", "dark.u16"), ("white", "white.u16"),
        ("layout", "layout.json"))}
    json_files = {
        "spec.json": {"kind": "classes", "num_classes": 3, "layout_kind": "rects",
                      "rects": [[0, 0, 10, 10, 1]], "noise": 0.01, "seed": 7, "erode": 1,
                      "dark_level": 512, "white_level": 62000},
        "run.json": {**{k: paths[k] for k in ("cube", "model", "grid")}, "threads": 1,
                     "out": str(root / "out" / "mask.pgm"), "quantized": False},
        "bench_preprocess.json": {"iterations": 1, "warmup": 0, "threads": [1],
                                  "vectorized": [True],
                                  **{k: paths[k] for k in ("raw", "dark", "white", "layout")}},
        "bench_infer.json": {"iterations": 1, "warmup": 0, "threads": 1, "vectorized": True,
                             **{k: paths[k] for k in ("cube", "model", "grid")},
                             "quantized_model": str(root / "unet.sdq"), "preprocess_ms": 5.0},
    }
    for name, value in json_files.items():
        (root / name).write_text(json.dumps(value))
    return root


# -- mutations ---------------------------------------------------------------


def _key_paths(obj, prefix=()):
    """Every path to a dict key inside a JSON value."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield prefix + (k,)
            yield from _key_paths(v, prefix + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _key_paths(v, prefix + (i,))


def _value_paths(obj, prefix=()):
    """Every path to a value inside a JSON value, the whole value first."""
    yield prefix
    if isinstance(obj, (dict, list)):
        for k, v in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _value_paths(v, prefix + (k,))


def _parent(obj, path):
    for step in path[:-1]:
        obj = obj[step]
    return obj


def _whole(data):
    return b"", data, b""


def _json_dropper(split=_whole, join=lambda h, t, r: h + t + r):
    """Drop one key anywhere in a JSON header; split/join cut the header out
    of the file and put it back."""

    def drop(draw, data):
        head, text, tail = split(data)
        header = json.loads(text)
        path = draw(st.sampled_from(list(_key_paths(header))))
        del _parent(header, path)[path[-1]]
        return join(head, json.dumps(header).encode(), tail)

    return drop


# what a value swap puts in: every JSON type, a float that is not an
# integer, a non-finite number and an integer past 64 bits. The strings are
# empty or a NUL, so that no swapped path names a file the command could
# write.
SWAPS = [True, False, 0.5, "", "\u0000", [], [0], None, float("nan"), 2**70]


def _json_swapper(split=_whole, join=lambda h, t, r: h + t + r):
    """Replace one value anywhere in a JSON header, the header itself
    included, with one of SWAPS."""

    def swap(draw, data):
        head, text, tail = split(data)
        header = json.loads(text)
        path = draw(st.sampled_from(list(_value_paths(header))))
        new = draw(st.sampled_from(SWAPS))
        if path:
            _parent(header, path)[path[-1]] = new
        else:
            header = new
        return join(head, json.dumps(header).encode(), tail)

    return swap


def _split_container(data):
    end = 8 + int.from_bytes(data[4:8], "little")
    return data[:4], data[8:end], data[end:]


def _join_container(head, text, tail):
    return head + len(text).to_bytes(4, "little") + text + tail


def _split_cube(data):
    nl = data.index(b"\n")
    return b"", data[:nl], data[nl:]


def _drop_pnm_field(draw, data):
    """Remove the width, height or maxval field of a graymap header."""
    fields = data.split(maxsplit=4)
    del fields[draw(st.integers(1, 3))]
    return b"P5\n" + b" ".join(fields[1:-1]) + b"\n" + fields[-1]


JSON = (_json_dropper(), _json_swapper())
CONTAINER = (_json_dropper(_split_container, _join_container),
             _json_swapper(_split_container, _join_container))
CUBE = (_json_dropper(_split_cube), _json_swapper(_split_cube))


def mutate(draw, data: bytes, edits) -> bytes:
    """A truncated copy, a copy with a few bits flipped, or a copy with one
    of the format's header edits applied (a format without a header has
    none)."""
    how = draw(st.sampled_from(["truncate", "flip", *edits]))
    if how == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if how != "flip":
        return how(draw, data)
    out = bytearray(data)
    # half the flips land in the first 512 bytes, where the headers are
    hot = min(len(data), 512)
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, hot - 1) | st.integers(0, len(data) - 1))
        out[pos] ^= 1 << draw(st.integers(0, 7))
    return bytes(out)


def check(ws, d, seed, edits, load, argv, name=None):
    """Write a mutated copy of seed to out/, load it and run argv on it
    (with "@" standing for its path)."""
    path = ws / "out" / (name or seed)
    path.write_bytes(mutate(d.draw, (ws / seed).read_bytes(), edits))
    try:
        load(path)
    except SpecdriveError:
        pass
    rc = main([str(path) if a == "@" else str(a) for a in argv])
    assert rc in (0, 2)


def segment(ws, **over):
    args = {"cube": ws / "cube.hsc", "model": ws / "unet.sdw",
            "out": ws / "out" / "mask.pgm", **over}
    return ["segment"] + [a for k, v in args.items() for a in (f"--{k}", v)]


def preprocess(ws, **over):
    args = {"raw": ws / "raw.u16", "dark": ws / "dark.u16", "white": ws / "white.u16",
            "layout": ws / "layout.json", "out": ws / "out" / "cube.hsc", **over}
    return ["preprocess"] + [a for k, v in args.items() for a in (f"--{k}", v)]


# -- one test per format -----------------------------------------------------


@given(d=st.data())
def test_fuzz_sdw(ws, d):
    check(ws, d, "unet.sdw", CONTAINER, load_weights, segment(ws, model="@"))


@pytest.mark.parametrize("seed", ["unet.sdq", "mlp.sdq"])
@given(d=st.data())
def test_fuzz_sdq(ws, seed, d):
    check(ws, d, seed, CONTAINER, load_qgraph, segment(ws, model="@"))


@given(d=st.data())
def test_fuzz_cube(ws, d):
    check(ws, d, "cube.hsc", CUBE, formats.load_cube,
          segment(ws, cube="@"))


@given(d=st.data())
def test_fuzz_raw_payload(ws, d):
    (ws / "out" / "raw.u16.json").write_bytes((ws / "raw.u16.json").read_bytes())
    check(ws, d, "raw.u16", (), formats.load_raw, preprocess(ws, raw="@"))


@given(d=st.data())
def test_fuzz_raw_sidecar(ws, d):
    raw = ws / "out" / "side.u16"
    raw.write_bytes((ws / "raw.u16").read_bytes())
    check(ws, d, "raw.u16.json", JSON, lambda p: formats.load_raw(raw),
          preprocess(ws, raw=raw), name="side.u16.json")


@given(d=st.data())
def test_fuzz_layout(ws, d):
    check(ws, d, "layout.json", JSON, formats.load_layout,
          preprocess(ws, layout="@"))


@given(d=st.data())
def test_fuzz_grid(ws, d):
    check(ws, d, "grid.json", JSON, formats.load_grid, segment(ws, grid="@"))


@given(d=st.data())
def test_fuzz_mask(ws, d):
    check(ws, d, "mask.pgm", (_drop_pnm_field,), formats.load_mask,
          ["metrics", "--gt", "@", "--pred", ws / "mask.pgm", "--classes", "3"])


def _decoded(path):
    return decode(path.read_bytes(), str(path))


@given(d=st.data())
def test_fuzz_scene_spec(ws, d):
    check(ws, d, "spec.json", JSON, lambda p: SceneSpec.from_dict(_decoded(p), str(p)),
          ["synth", "--spec", "@", "--out", ws / "out" / "scene"])


@given(d=st.data())
def test_fuzz_segment_manifest(ws, d):
    check(ws, d, "run.json", JSON, lambda p: fields(_decoded(p), cli.MANIFEST, str(p)),
          ["segment", "--manifest", "@"])


@pytest.mark.parametrize("target", ["preprocess", "infer"])
@given(d=st.data())
def test_fuzz_bench_config(ws, target, d):
    check(ws, d, f"bench_{target}.json", JSON,
          lambda p: bench.read_config(_decoded(p), str(p), cli.BENCH_INPUTS[target]),
          ["bench", target, "--config", "@"])


_NUMBER = st.one_of(st.floats(), st.integers(-3, 3), st.sampled_from(["", "x"])).map(str)


@given(d=st.data())
def test_fuzz_analysis_arguments(ws, d):
    """Any --classes, --frequencies, --ignore, -k or label mask (6x7 or
    the cube's 12x12) given to metrics or spectral exits 0 or 2. Values go
    in as --flag=value, so a leading minus is a value, not a flag."""
    masks = st.sampled_from([ws / "mask.pgm", ws / "labels.pgm"])
    classes = f"--classes={d.draw(st.integers(-2, 300))}"
    ignore = f"--ignore={d.draw(st.integers(-300, 300) | st.integers())}"
    what = d.draw(st.sampled_from(["metrics", "corr", "jm", "select-bands"]))
    if what == "metrics":
        freqs = d.draw(st.lists(_NUMBER, max_size=5).map(",".join) | st.text(max_size=6))
        argv = ["metrics", "--gt", d.draw(masks), "--pred", d.draw(masks), classes,
                ignore, f"--frequencies={freqs}"]
    else:
        argv = ["spectral", what, "--cube", ws / "cube.hsc", classes, ignore,
                f"-k={d.draw(st.integers(-2, 30))}"]
        if d.draw(st.booleans()):
            argv += ["--gt", d.draw(masks)]
    assert main([str(a) for a in argv]) in (0, 2)

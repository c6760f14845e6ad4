"""Malformed inputs are data errors: the loaders raise a SpecdriveError and
the CLI exits 2, never 3 (an internal error) and never 0 with a wrong
answer."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from specdrive import cli, formats, kernels
from specdrive.cli import main
from specdrive.errors import (
    CorruptContainer,
    InvalidOption,
    ShapeMismatch,
    SpecdriveError,
    StructureError,
)
from specdrive.metrics import ConfusionMatrix, compute_metrics
from specdrive.model import LayerSpec, ModelGraph, UNetConfig, build_mlp, build_unet
from specdrive.mosaic import default_layout
from specdrive.quant import load_qgraph, quantize_model, save_qgraph
from specdrive.spectral import class_stats
from specdrive.synth import SceneSpec
from specdrive.weights import generate_weights, load_weights, save_weights

SMALL = UNetConfig(patch_size=8, encoder_depth=1, initial_filters=2, in_channels=5)


def reframe(data: bytes, edit) -> bytes:
    """Apply edit to the JSON header of a framed container, keeping the
    framing consistent so only the header content is wrong."""
    hlen = int.from_bytes(data[4:8], "little")
    header = json.loads(data[8 : 8 + hlen])
    edit(header)
    text = json.dumps(header).encode()
    return data[:4] + len(text).to_bytes(4, "little") + text + data[8 + hlen :]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("bad")
    rng = np.random.default_rng(5)
    cube = rng.uniform(0.05, 0.95, (12, 12, 5)).astype(np.float32)
    formats.save_cube(root / "cube.hsc", cube)
    g = build_unet(SMALL)
    w = generate_weights(g, 1)
    save_weights(root / "unet.sdw", g, w)
    save_qgraph(root / "unet.sdq", quantize_model(g, w, [cube[:8, :8]]))
    mlp = build_mlp(5, 3)
    mw = generate_weights(mlp, 2)
    save_weights(root / "mlp.sdw", mlp, mw)
    save_qgraph(root / "mlp.sdq", quantize_model(mlp, mw, [cube]))
    frame = rng.integers(0, 4096, (1088, 2048)).astype(np.uint16)
    for name in ("raw", "dark", "white"):
        formats.save_raw(root / f"{name}.u16", frame)
    formats.save_layout(root / "layout.json", default_layout())
    formats.save_mask(root / "mask.pgm", np.zeros((4, 4), np.uint8))
    formats.save_mask(root / "labels.pgm", rng.integers(0, 3, (12, 12)).astype(np.uint8))
    return root


def segment_argv(files, tmp_path, **over):
    args = {"cube": files / "cube.hsc", "model": files / "unet.sdw",
            "out": tmp_path / "mask.pgm", **over}
    return ["segment"] + [a for k, v in args.items() for a in (f"--{k}", str(v))]


def segment(files, tmp_path, **over):
    return main(segment_argv(files, tmp_path, **over))


def preprocess(files, tmp_path, **over):
    args = {"raw": files / "raw.u16", "dark": files / "dark.u16",
            "white": files / "white.u16", "layout": files / "layout.json",
            "out": tmp_path / "cube.hsc", **over}
    return main(["preprocess"] + [a for k, v in args.items() for a in (f"--{k}", str(v))])


def bench(files, tmp_path, **cfg):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(cfg))
    return main(["bench", "preprocess", "--config", str(path)])


def manifest(files, tmp_path, **entries):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(entries))
    return segment(files, tmp_path, manifest=path)


def test_valid_files_run(files, tmp_path):
    assert segment(files, tmp_path) == 0
    assert segment(files, tmp_path, model=files / "unet.sdq") == 0


def test_sdq_trailing_bytes_exit_2(files, tmp_path):
    bad = tmp_path / "fat.sdq"
    bad.write_bytes((files / "unet.sdq").read_bytes() + b"xx")
    with pytest.raises(CorruptContainer):
        load_qgraph(bad)
    assert segment(files, tmp_path, model=bad) == 2


def test_sdw_without_model_exit_2(files, tmp_path):
    bad = tmp_path / "nomodel.sdw"
    bad.write_bytes(reframe((files / "unet.sdw").read_bytes(),
                            lambda h: h.pop("model")))
    with pytest.raises(CorruptContainer):
        load_weights(bad)
    assert segment(files, tmp_path, model=bad) == 2


def test_sdw_tensors_not_matching_model_exit_2(files, tmp_path):
    def rename(h):
        h["tensors"][0]["name"] = "enc0.conv0.kernel"

    bad = tmp_path / "renamed.sdw"
    bad.write_bytes(reframe((files / "unet.sdw").read_bytes(), rename))
    with pytest.raises(CorruptContainer):
        load_weights(bad)
    assert segment(files, tmp_path, model=bad) == 2


def test_sdq_without_activations_exit_2(files, tmp_path):
    bad = tmp_path / "noact.sdq"
    bad.write_bytes(reframe((files / "unet.sdq").read_bytes(),
                            lambda h: h.pop("activations")))
    with pytest.raises(CorruptContainer):
        load_qgraph(bad)
    assert segment(files, tmp_path, model=bad) == 2


def test_sdq_f8_tensor_exit_2(files, tmp_path):
    def widen(h):
        h["tensors"][-1]["dtype"] = "<f8"

    bad = tmp_path / "f8.sdq"
    bad.write_bytes(reframe((files / "unet.sdq").read_bytes(), widen))
    with pytest.raises(CorruptContainer):
        load_qgraph(bad)
    assert segment(files, tmp_path, model=bad) == 2


def test_sdq_unknown_layer_kind_exit_2(files, tmp_path):
    def rename_kind(h):
        h["layers"][3]["kind"] = "swish"

    bad = tmp_path / "kind.sdq"
    bad.write_bytes(reframe((files / "unet.sdq").read_bytes(), rename_kind))
    with pytest.raises(StructureError):
        load_qgraph(bad)
    assert segment(files, tmp_path, model=bad) == 2


def _relabel_relu(h):
    next(d for d in h["layers"] if d["name"] == "dec0.relu1")["kind"] = "dropout"


def _drop_relu(h):
    h["layers"] = [d for d in h["layers"] if d["name"] != "enc0.relu0"]
    for d in h["layers"]:
        d["inputs"] = ["enc0.conv0" if i == "enc0.relu0" else i for i in d["inputs"]]


@pytest.mark.parametrize("edit", [_relabel_relu, _drop_relu])
def test_sdq_layers_not_the_models_folded_graph_exit_2(files, tmp_path, edit):
    """The layer list must be the model description's graph with its batch
    norm folded; a relabelled or dropped relu used to load and segment with
    a silently different answer."""
    bad = tmp_path / "layers.sdq"
    bad.write_bytes(reframe((files / "unet.sdq").read_bytes(), edit))
    with pytest.raises(CorruptContainer, match="folded graph"):
        load_qgraph(bad)
    assert segment(files, tmp_path, model=bad) == 2


def _bool_zero_point(h):
    next(iter(h["activations"].values()))["zero_point"] = True


def _bool_weight_zero_point(h):
    next(t for t in h["tensors"] if t["name"] == "head.conv.weight")["zero_point"] = False


def _bool_scale(h):
    next(iter(h["activations"].values()))["scale"] = True


def _weight_without_scale(h):
    next(t for t in h["tensors"] if t["name"] == "head.conv.weight").pop("scale")


@pytest.mark.parametrize("edit", [_bool_zero_point, _bool_weight_zero_point, _bool_scale,
                                  _weight_without_scale])
def test_sdq_bool_in_scheme_exit_2(files, tmp_path, edit):
    """A scheme's scale and zero point are JSON numbers, and an int8
    weight's manifest entry holds both; true used to load as 1 (zero point)
    or a scale of 1.0."""
    bad = tmp_path / "zp.sdq"
    bad.write_bytes(reframe((files / "unet.sdq").read_bytes(), edit))
    with pytest.raises(CorruptContainer):
        load_qgraph(bad)
    assert segment(files, tmp_path, model=bad) == 2


def test_graph_rejects_unknown_kind():
    with pytest.raises(StructureError):
        ModelGraph([LayerSpec("a", "swish", ("input",), 1, 1)])


def test_graph_rejects_wrong_input_count():
    with pytest.raises(StructureError):
        ModelGraph([LayerSpec("a", "relu", ("input", "input"), 1, 1)])


def test_sidecar_without_width_exit_2(files, tmp_path):
    raw = tmp_path / "raw.u16"
    raw.write_bytes((files / "raw.u16").read_bytes())
    meta = json.loads((files / "raw.u16.json").read_text())
    del meta["width"]
    (tmp_path / "raw.u16.json").write_text(json.dumps(meta))
    with pytest.raises(CorruptContainer):
        formats.load_raw(raw)
    assert preprocess(files, tmp_path, raw=raw) == 2


@pytest.mark.parametrize("role", ["raw", "dark", "white"])
def test_short_frame_refusal_names_its_role(files, tmp_path, capsys, role):
    """A frame smaller than the active window exits 2 saying which of the
    three frames it is; a short dark frame used to read as the raw one."""
    formats.save_raw(tmp_path / f"{role}.u16", np.zeros((50, 60), np.uint16))
    assert preprocess(files, tmp_path, **{role: tmp_path / f"{role}.u16"}) == 2
    assert (f"{role} frame (50, 60) smaller than active window (1080, 2045) at origin "
            "(0, 0)") in capsys.readouterr().err


def test_empty_layout_exit_2(files, tmp_path):
    bad = tmp_path / "layout.json"
    bad.write_text("{}")
    with pytest.raises(CorruptContainer):
        formats.load_layout(bad)
    assert preprocess(files, tmp_path, layout=bad) == 2


@pytest.mark.parametrize("over", [
    {"tile": [[0.9, 1.2], [2.5, 3.7]]},
    {"tile": [[True, False], [2, 3]]},
    {"tile": [["0", "1"], ["2", "3"]]},
    {"center_offset": [True, False]},
    {"tile": [[0, 1], [2]]},
], ids=lambda v: json.dumps(v))
def test_layout_entry_not_an_integer_exit_2(files, tmp_path, over):
    # a window that pitches 2 and 5 both divide, so only the entries are wrong
    d = {**json.loads((files / "layout.json").read_text()), "active_size": [1080, 2040]}
    bad = tmp_path / "layout.json"
    bad.write_text(json.dumps({**d, **over}))
    with pytest.raises(CorruptContainer):
        formats.load_layout(bad)
    assert preprocess(files, tmp_path, layout=bad) == 2


@pytest.mark.parametrize("text", [
    '{"patch": 8, "cols": [0, 4]}',                  # no rows
    '{"patch": 4, "rows": [0, 8], "cols": [0, 8]}',  # leaves pixels uncovered
    '{"patch": 8, "rows": [], "cols": [0, 4]}',
    '{"patch": 8, "rows": [Infinity], "cols": [0, 4]}',
    '{"patch": 10.7, "rows": [0, 2], "cols": [0, 2]}',   # not an integer
    '{"patch": "8", "rows": [0, 4], "cols": [0, 4]}',
    '{"patch": 8, "rows": [false, 4], "cols": [0, 4]}',
    '{"patch": 8, "rows": [0, 4.0], "cols": [0, 4]}',
    '{"patch": 8, "rows": [0, 4], "cols": [0, "4"]}',
])
def test_malformed_grid_exit_2(files, tmp_path, text):
    bad = tmp_path / "grid.json"
    bad.write_text(text)
    with pytest.raises(SpecdriveError):
        formats.load_grid(bad)
    assert segment(files, tmp_path, grid=bad) == 2


def test_sdq_activations_of_wrong_type_exit_2(files, tmp_path):
    def listify(h):
        h["activations"] = list(h["activations"])

    bad = tmp_path / "list.sdq"
    bad.write_bytes(reframe((files / "unet.sdq").read_bytes(), listify))
    with pytest.raises(CorruptContainer):
        load_qgraph(bad)
    assert segment(files, tmp_path, model=bad) == 2


def test_truncated_graymap_header_exit_2(files, tmp_path):
    bad = tmp_path / "cut.pgm"
    bad.write_bytes(b"P5\n4")
    with pytest.raises(CorruptContainer):
        formats.load_mask(bad)
    rc = main(["metrics", "--gt", str(bad), "--pred", str(files / "mask.pgm"),
               "--classes", "3"])
    assert rc == 2


def test_cube_with_nan_exit_2(files, tmp_path):
    cube = formats.load_cube(files / "cube.hsc")
    cube[3, 4, 1] = np.nan
    bad = tmp_path / "nan.hsc"
    formats.save_cube(bad, cube)
    with pytest.raises(CorruptContainer):
        formats.load_cube(bad)
    assert segment(files, tmp_path, cube=bad) == 2


def test_cube_with_inf_rejected(tmp_path):
    cube = np.ones((2, 3, 4), np.float32)
    cube[1, 2, 3] = -np.inf
    formats.save_cube(tmp_path / "inf.hsc", cube)
    with pytest.raises(SpecdriveError):
        formats.load_cube(tmp_path / "inf.hsc")


@pytest.mark.parametrize("key, value", [("height", True), ("height", 1.0),
                                        ("bands", True)])
def test_cube_dimension_not_an_integer_exit_2(tmp_path, key, value):
    """A boolean or float dimension whose product still matches the payload
    used to reach reshape and exit 3 with a TypeError."""
    good = tmp_path / "good.hsc"
    formats.save_cube(good, np.ones((1, 3, 1), np.float32))
    header, payload = good.read_bytes().split(b"\n", 1)
    meta = {**json.loads(header), key: value}
    bad = tmp_path / "bad.hsc"
    bad.write_bytes(json.dumps(meta).encode() + b"\n" + payload)
    with pytest.raises(CorruptContainer):
        formats.load_cube(bad)
    assert main(["spectral", "corr", "--cube", str(bad)]) == 2


@pytest.mark.parametrize("bit_depth", [True, 12.0, "12"])
def test_sidecar_bit_depth_not_an_integer_exit_2(files, tmp_path, bit_depth):
    raw = tmp_path / "raw.u16"
    raw.write_bytes((files / "raw.u16").read_bytes())
    meta = {**json.loads((files / "raw.u16.json").read_text()), "bit_depth": bit_depth}
    (tmp_path / "raw.u16.json").write_text(json.dumps(meta))
    with pytest.raises(CorruptContainer):
        formats.load_raw(raw)
    assert preprocess(files, tmp_path, raw=raw) == 2


def test_sdw_with_nan_weight_exit_2(files, tmp_path):
    g, w = load_weights(files / "unet.sdw")
    w["head.conv.bias"][0] = np.nan
    bad = tmp_path / "nan.sdw"
    save_weights(bad, g, w)
    with pytest.raises(CorruptContainer):
        load_weights(bad)
    assert segment(files, tmp_path, model=bad) == 2


@pytest.mark.parametrize("fmt, std", [("sdw", 0.0), ("sdw", -1.0), ("sdq", 0.0),
                                      ("sdq", -1.0)])
def test_zscore_std_not_positive_refused_at_load(files, tmp_path, capsys, monkeypatch,
                                                 fmt, std):
    """A zscore std that is not > 0 makes a corrupt model file, refused
    when it loads, before zscore divides by it, naming the file and the
    tensor. A std of 0 used to segment with exit 0 into an all-class-0
    mask, and quantize wrote an .sdq of infinite scale."""
    g = build_unet(UNetConfig(patch_size=8, encoder_depth=1, initial_filters=2,
                              in_channels=5, input_norm="zscore"))
    w = generate_weights(g, 1)
    qg = quantize_model(g, w, [formats.load_cube(files / "cube.hsc")[:8, :8]])
    bad = tmp_path / f"std.{fmt}"
    if fmt == "sdw":
        w["norm.zscore.std"][2] = std
        save_weights(bad, g, w)
    else:
        qg.tensors["norm.zscore.std"][2] = std
        save_qgraph(bad, qg)

    def no_division(*a):
        raise AssertionError("zscore ran on a std that is not > 0")

    monkeypatch.setattr(kernels, "zscore", no_division)
    with pytest.raises(CorruptContainer, match="norm.zscore.std"):
        (load_weights if fmt == "sdw" else load_qgraph)(bad)
    runs = [segment_argv(files, tmp_path, model=bad), ["model-info", bad]]
    if fmt == "sdw":
        runs.append(["quantize", "--model", bad, "--calib", files,
                     "--out", tmp_path / "q.sdq"])
    for argv in runs:
        assert main([str(a) for a in argv]) == 2, argv
        err = capsys.readouterr().err
        assert f"{bad}: norm.zscore.std" in err, err
    assert not (tmp_path / "mask.pgm").exists() and not (tmp_path / "q.sdq").exists()


@pytest.mark.parametrize("variance", [-1.0, -2e-5])
def test_batchnorm_variance_below_minus_eps_refused_at_load(files, tmp_path, capsys, variance):
    """A batch-norm variance whose sum with BN_EPS is not > 0, in float64 as
    fold_batchnorm computes it, makes a corrupt .sdw, refused when it
    loads, naming the file and the tensor. -2e-5 used to load and fold into
    NaN weights. A float32 -1e-5 still loads: its sum is 2.5e-13."""
    g, w = load_weights(files / "unet.sdw")
    bad = tmp_path / "var.sdw"
    w["enc0.bn0.variance"][0] = variance
    save_weights(bad, g, w)
    with pytest.raises(CorruptContainer, match="enc0.bn0.variance"):
        load_weights(bad)
    for argv in (segment_argv(files, tmp_path, model=bad), ["model-info", bad],
                 ["quantize", "--model", bad, "--calib", files, "--out", tmp_path / "q.sdq"]):
        assert main([str(a) for a in argv]) == 2, argv
        err = capsys.readouterr().err
        assert f"{bad}: enc0.bn0.variance" in err, err
    assert not (tmp_path / "mask.pgm").exists() and not (tmp_path / "q.sdq").exists()
    w["enc0.bn0.variance"][0] = -1e-5
    save_weights(bad, g, w)
    load_weights(bad)


@pytest.mark.parametrize("run, option", [
    (bench, {"iterations": 0}),
    (bench, {"iterations": "x"}),
    (bench, {"warmup": -1}),
    (bench, {"threads": [0]}),
    (bench, {"threads": "two"}),
    (bench, {"watts": "x"}),
    (bench, {"watts": -5}),
    (bench, {"watts": "nan"}),
    (bench, {"watts": "inf"}),
    (bench, {"watts": True}),
    (bench, {"watts": "3"}),
    (bench, {"vectorized": "false"}),
    (bench, {"vectorized": [0, "no"]}),
    (preprocess, {"threads": 0}),
    (segment, {"threads": -2}),
    (manifest, {"threads": -3}),
    (manifest, {"threads": "two"}),
], ids=lambda v: getattr(v, "__name__", None) or json.dumps(v))
def test_bad_option_exit_2(files, tmp_path, run, option):
    assert run(files, tmp_path, **option) == 2


def test_segment_threads_precedence(files, tmp_path, monkeypatch):
    """--threads, then the manifest, then 1."""
    seen = []
    real = cli.map_patches

    def spy(fn, patches, threads):
        seen.append(threads)
        return real(fn, patches, threads)

    monkeypatch.setattr(cli, "map_patches", spy)
    assert manifest(files, tmp_path, threads=4) == 0
    assert segment(files, tmp_path, manifest=tmp_path / "run.json", threads=2) == 0
    assert segment(files, tmp_path) == 0
    assert seen == [4, 2, 1]


@pytest.mark.parametrize("command", ["segment", "quantize", "bench infer"])
def test_grid_file_a_unet_cannot_pool_exit_2(tmp_path, capsys, command):
    """A grid file whose patch is not a multiple of 2^encoder_depth used to
    reach the kernels and exit 2 with maxpool2's message, which names no
    grid and no model. Every command that reads a grid now refuses it before
    any model runs, naming the file, its patch and the step. A per-pixel
    model runs untiled, so any grid file given with it, which would change
    nothing, is refused too, naming the file (it used to be accepted)."""
    g = build_unet(UNetConfig(patch_size=8, encoder_depth=2, initial_filters=2,
                              in_channels=5))
    mlp = build_mlp(5, 3)
    for name, graph in (("u.sdw", g), ("mlp.sdw", mlp)):
        save_weights(tmp_path / name, graph, generate_weights(graph, 1))
    (tmp_path / "calib").mkdir()
    cube = tmp_path / "calib" / "c10.hsc"
    formats.save_cube(cube, np.random.default_rng(10).uniform(
        0.05, 0.95, (10, 10, 5)).astype(np.float32))
    bad = tmp_path / "g.json"
    bad.write_text(json.dumps({"patch": 6, "rows": [0, 4], "cols": [0, 4]}))
    fits = tmp_path / "g8.json"
    fits.write_text(json.dumps({"patch": 8, "rows": [0, 2], "cols": [0, 2]}))
    out = tmp_path / "out"
    for model, grid, said in (
            ("u.sdw", bad, [f"grid {bad} has patch 6", "multiple of 4 (2^encoder_depth)"]),
            ("mlp.sdw", fits, [f"grid {fits} would change nothing", "untiled"])):
        (tmp_path / "b.json").write_text(json.dumps({
            "model": str(tmp_path / model), "cube": str(cube), "grid": str(grid),
            "iterations": 1}))
        argv = {"segment": ["segment", "--cube", str(cube), "--out", str(out)],
                "quantize": ["quantize", "--calib", str(tmp_path / "calib"),
                             "--out", str(out)],
                "bench infer": ["bench", "infer", "--config", str(tmp_path / "b.json")]
                }[command]
        if command != "bench infer":
            argv += ["--model", str(tmp_path / model), "--grid", str(grid)]
        assert main(argv) == 2, model
        err = capsys.readouterr().err
        assert all(text in err for text in said), err
        assert not out.exists()


def test_segment_manifest_not_an_object_exit_2(files, tmp_path, capsys):
    """A manifest holding a JSON list used to reach dict.update and exit 3."""
    path = tmp_path / "list.json"
    path.write_text(json.dumps([str(files / "cube.hsc")]))
    assert segment(files, tmp_path, manifest=path) == 2
    assert "must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("classes", [0, 256, 300])
def test_synth_class_count_out_of_range_exit_2(tmp_path, capsys, classes):
    """Masks are uint8 with 255 as the ignore label, so a scene has 1 to 255
    classes; 300 used to exit 0, class 255 becoming the ignore label and the
    classes from 256 up wrapping to 0."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"num_classes": classes}))
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "s")]) == 2
    assert "'num_classes' must be int in [1, 255]" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()
    assert SceneSpec(num_classes=255).num_classes == 255


def _spec_file(files, tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path, ["synth", "--spec", path, "--out", tmp_path / "s"]


def _bench_file(target):
    """A bench config; infer's times the U-Net on the cube, or on a scene
    when cfg names one."""
    def write(files, tmp_path, cfg):
        inputs = {"model": str(files / "unet.sdw")}
        if "scene" not in cfg:
            inputs["cube"] = str(files / "cube.hsc")
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({**(inputs if target == "infer" else {}),
                                    "warmup": 0, **cfg}))
        return path, ["bench", target, "--config", path]
    return write


def _manifest_file(files, tmp_path, entries):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(entries))
    return path, segment_argv(files, tmp_path, manifest=path)


def _cube_file(files, tmp_path, over):
    header, payload = (files / "cube.hsc").read_bytes().split(b"\n", 1)
    path = tmp_path / "edited.hsc"
    path.write_bytes(json.dumps({**json.loads(header), **over}).encode() + b"\n" + payload)
    return path, ["spectral", "corr", "--cube", path]


def _model_file(name, command="segment"):
    def write(files, tmp_path, config):
        path = tmp_path / name
        path.write_bytes(reframe((files / name).read_bytes(),
                                 lambda h: h["model"]["config"].update(config)))
        if command == "model-info":
            return path, ["model-info", path]
        return path, segment_argv(files, tmp_path, model=path)
    return write


def _layout_file(files, tmp_path, over):
    """A 2x2 layout on the raw frames, edited by over, through preprocess."""
    layout = {"tile": [[0, 1], [2, 3]], "active_origin": [0, 0],
              "active_size": [1080, 2040], "center_offset": [0, 1], "id": "two"}
    path = tmp_path / "layout.json"
    path.write_text(json.dumps({**layout, **over}))
    return path, ["preprocess", "--raw", files / "raw.u16", "--dark", files / "dark.u16",
                  "--white", files / "white.u16", "--layout", path,
                  "--out", tmp_path / "cube.hsc"]


JSON_FILES = {"synth": _spec_file, "bench infer": _bench_file("infer"),
              "bench preprocess": _bench_file("preprocess"), "manifest": _manifest_file,
              "cube": _cube_file, "unet.sdw": _model_file("unet.sdw"),
              "unet.sdw model-info": _model_file("unet.sdw", "model-info"),
              "mlp.sdw": _model_file("mlp.sdw"), "layout": _layout_file}


@pytest.mark.parametrize("target, value, key", [
    # these exited 3
    ("synth", [1], "must be a JSON object"),
    ("synth", {"num_classes": "3"}, "'num_classes'"),
    ("synth", {"num_classes": 2.5}, "'num_classes'"),
    ("synth", {"noise": "x"}, "'noise'"),
    ("synth", {"layout_kind": "rects", "rects": [[1, 2]]}, "'rects'"),
    ("synth", {"erode": True}, "'erode'"),
    ("synth", {"erode": 1e9}, "'erode'"),
    ("synth", {"seed": -1}, "'seed'"),
    ("synth", {"seed": 1.5}, "'seed'"),
    ("bench infer", {"scene": [1]}, "'scene'"),
    ("bench preprocess", {"scene": {"seed": "x"}}, "'scene': 'seed'"),
    ("unet.sdw", {"patch_size": 8.0}, "'patch_size'"),
    # these exited 0, with a default or a value that was never meant
    ("synth", {"num_class": 5}, "unknown key 'num_class'"),
    ("synth", {"height": -5}, "unknown key 'height'"),
    ("synth", {"noise": float("nan")}, "'noise'"),
    ("synth", {"dark_level": 1.5}, "'dark_level'"),
    ("synth", {"rects": [[0, 0, 10, 10, 1]]}, "'rects'"),
    ("manifest", {"render": "a\u0000b"}, "'render'"),
    ("bench infer", {"iterations": True}, "'iterations'"),
    ("bench infer", {"iteration": 1}, "unknown key 'iteration'"),
    ("manifest", {"threads": True}, "'threads'"),
    ("manifest", {"thread": 2}, "unknown key 'thread'"),
    ("cube", {"dtype": "f64le"}, "'dtype'"),
    ("unet.sdw", {"dropout_rate": "x"}, "'dropout_rate'"),
    ("mlp.sdw", {"classes": 3.0}, "'classes'"),
    ("mlp.sdw", {"bias": True}, "unknown key 'bias'"),
    # these exited 2 without naming the file
    ("bench preprocess", {"scene": {"rects": [[0, 0, 10, 10, 1]]}}, "'scene': 'rects' need"),
    ("bench preprocess", {"scene": {"dark_level": 9, "white_level": 9}},
     "'scene': need dark_level < white_level"),
    ("bench infer", {"scene": {"dark_level": 9, "white_level": 9}},
     "'scene': need dark_level < white_level"),
    ("layout", {"tile": [[0, 1], [1, 3]]}, "tile must be a bijection"),
    ("layout", {"active_size": [9, 10]}, "not divisible by mosaic pitch 2"),
    ("layout", {"center_offset": [0, 5]}, "center_offset[1] must be int in [0, 1]"),
    ("unet.sdw", {"patch_size": 100, "encoder_depth": 3}, "not divisible by 2^3"),
    ("unet.sdw model-info", {"patch_size": 100, "encoder_depth": 3}, "not divisible by 2^3"),
    ("unet.sdw", {"conv_kernel": 2}, "conv kernel must be odd"),
    ("unet.sdw model-info", {"conv_kernel": 2}, "conv kernel must be odd"),
    ("bench preprocess", {"threads": []}, "need at least one thread count"),
], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
def test_json_input_refused_naming_file_and_key(files, tmp_path, capsys, target, value, key):
    """Every JSON input goes through one typed-field reader: a value of the
    wrong type or out of range, a non-finite number, an unknown key or a
    non-object exits 2 with a message naming the file and the key."""
    path, argv = JSON_FILES[target](files, tmp_path, value)
    assert main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and key in err


def _activation_scale(layer, scale):
    def edit(h):
        h["activations"][layer]["scale"] = scale
    return edit


def _fc3_scales(h):
    h["activations"]["fc3"]["scale"] = 1e307
    next(t for t in h["tensors"] if t["name"] == "fc3.bias")["scale"] = 1e307


@pytest.mark.parametrize("edit", [_activation_scale("fc1", 5e-324), _fc3_scales,
                                  _activation_scale("fc1", 2.0**101)],
                         ids=["fc1 5e-324", "fc3 1e307", "fc1 2^101"])
def test_sdq_scale_out_of_bound_exit_2(files, tmp_path, capsys, edit):
    """A scale outside [2^-100, 2^100] made the int8 walk's requantization
    ratio infinite (NaN, then undefined int8 values) or its dequantized
    head infinite (NaN probabilities, an all-class-0 mask), with exit 0."""
    bad = tmp_path / "scale.sdq"
    bad.write_bytes(reframe((files / "mlp.sdq").read_bytes(), edit))
    with pytest.raises(CorruptContainer, match="'scale'"):
        load_qgraph(bad)
    assert segment(files, tmp_path, model=bad) == 2
    assert f"{bad}: " in capsys.readouterr().err


def test_sdq_scales_at_the_bounds_load(files, tmp_path):
    for scale in (2.0**-100, 2.0**100):
        path = tmp_path / "edge.sdq"
        path.write_bytes(reframe((files / "mlp.sdq").read_bytes(),
                                 _activation_scale("fc1", scale)))
        assert load_qgraph(path).schemes["fc1"].scale == scale


@pytest.mark.parametrize("mismatched", ["model", "quantized_model"])
def test_bench_infer_band_mismatch_exit_2(files, tmp_path, capsys, mismatched):
    """bench infer, like segment, rejects a cube whose band count is not the
    model's, for the float model and for the int8 one. A per-pixel model
    used to reach a numpy broadcast instead and exit 3."""
    cube = formats.load_cube(files / "cube.hsc")
    formats.save_cube(tmp_path / "three.hsc", cube[..., :3].copy())
    g3, g5 = build_mlp(3, 3), build_mlp(5, 3)
    w5 = generate_weights(g5, 5)
    save_weights(tmp_path / "mlp3.sdw", g3, generate_weights(g3, 3))
    save_weights(tmp_path / "mlp5.sdw", g5, w5)
    save_qgraph(tmp_path / "mlp5.sdq", quantize_model(g5, w5, [cube]))
    float_model = "mlp5.sdw" if mismatched == "model" else "mlp3.sdw"
    path = tmp_path / "infer.json"
    path.write_text(json.dumps({
        "model": str(tmp_path / float_model), "quantized_model": str(tmp_path / "mlp5.sdq"),
        "cube": str(tmp_path / "three.hsc"), "iterations": 1, "warmup": 0}))
    assert main(["bench", "infer", "--config", str(path)]) == 2
    assert "cube has 3 bands, model expects 5" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["mlp", "unet"])
def test_quantize_band_mismatch_exit_2(files, tmp_path, capsys, model):
    """quantize checks each calibration cube's band count as segment does;
    the MLP used to reach a numpy broadcast in zscore and exit 3."""
    g = build_mlp(5, 3)
    save_weights(tmp_path / "mlp.sdw", g, generate_weights(g, 5))
    (tmp_path / "calib").mkdir()
    formats.save_cube(tmp_path / "calib/wide.hsc", np.full((12, 12, 30), 0.5, np.float32))
    path = tmp_path / "mlp.sdw" if model == "mlp" else files / "unet.sdw"
    assert main(["quantize", "--model", str(path), "--calib", str(tmp_path / "calib"),
                 "--out", str(tmp_path / "q.sdq")]) == 2
    assert "cube has 30 bands, model expects 5" in capsys.readouterr().err


@pytest.mark.parametrize("given, missing", [((), "raw, dark, white"),
                                            (("raw",), "dark, white")])
def test_bench_preprocess_without_inputs_exit_2(files, tmp_path, capsys, given, missing):
    """A bench config with no scene must name raw, dark and white."""
    inputs = {k: str(files / f"{k}.u16") for k in given}
    assert bench(files, tmp_path, iterations=1, **inputs) == 2
    assert f"lacks {missing}" in capsys.readouterr().err


def test_bench_config_not_an_object_exit_2(files, tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1]")
    assert main(["bench", "preprocess", "--config", str(path)]) == 2


@pytest.mark.parametrize("value", ["x", -1, float("inf"), float("nan"), True, [50]],
                         ids=lambda v: json.dumps(v))
def test_bench_preprocess_ms_checked_before_timing(files, tmp_path, monkeypatch, value):
    """A bad preprocess_ms exits 2 before any patch is run."""
    def no_run(*a, **kw):
        raise AssertionError("timing ran before preprocess_ms was checked")

    monkeypatch.setattr(cli, "map_patches", no_run)
    path = tmp_path / "infer.json"
    path.write_text(json.dumps({"model": str(files / "unet.sdw"),
                                "cube": str(files / "cube.hsc"),
                                "iterations": 1, "warmup": 0, "preprocess_ms": value}))
    assert main(["bench", "infer", "--config", str(path)]) == 2


def test_sdq_weight_of_minus_128_exit_2(files, tmp_path):
    """Symmetric int8 weights lie in [-127, 127]; the integer kernels' exact
    float32 accumulation is proved for that range only."""
    qg = load_qgraph(files / "unet.sdq")
    qg.tensors["head.conv.weight"][0, 0, 0, 0] = -128
    bad = tmp_path / "w128.sdq"
    save_qgraph(bad, qg)
    with pytest.raises(CorruptContainer):
        load_qgraph(bad)
    assert segment(files, tmp_path, model=bad) == 2


def test_sdq_accumulator_bound_checked_at_load_exit_2(files, tmp_path):
    """A bias that lets a layer's worst-case int32 sum reach 2^31 makes a
    corrupt container when it loads, as quantize_graph would have refused
    it: model-info exits 2, not only segment at its first patch."""
    qg = load_qgraph(files / "unet.sdq")
    w, bias = qg.tensors["enc0.conv0.weight"], qg.tensors["enc0.conv0.bias"]
    worst = int(np.prod(w.shape[:-1])) * 255 * 127
    bias[0] = -(2**31 - worst - 1)  # one below the bound still loads
    save_qgraph(tmp_path / "edge.sdq", qg)
    assert main(["model-info", str(tmp_path / "edge.sdq")]) == 0
    bias[0] -= 1
    bad = tmp_path / "acc.sdq"
    save_qgraph(bad, qg)
    with pytest.raises(CorruptContainer, match="enc0.conv0"):
        load_qgraph(bad)
    assert main(["model-info", str(bad)]) == 2
    assert segment(files, tmp_path, model=bad) == 2
    bias[0] = -(2**31)  # its int32 absolute value wraps to itself
    save_qgraph(bad, qg)
    assert main(["model-info", str(bad)]) == 2


@pytest.mark.parametrize("argv", [
    # these exited 3: a count other than --classes, text, a --gt of another
    # shape than the cube (4x4 labels, 12x12 cube)
    ["metrics", "--classes", "3", "--frequencies", "1,2"],
    ["metrics", "--classes", "3", "--frequencies", "a,b,c"],
    ["spectral", "jm", "--gt", "mask.pgm"],
    ["spectral", "select-bands", "--gt", "mask.pgm"],
    # these exited 0 with NaN weights or an empty matrix
    ["metrics", "--classes", "3", "--frequencies", "nan,1,1"],
    ["metrics", "--classes", "3", "--frequencies", "0,0,0"],
    ["spectral", "jm", "--gt", "labels.pgm", "--classes", "0"],
    # and their neighbours
    ["metrics", "--classes", "3", "--frequencies", "inf,1,1"],
    ["metrics", "--classes", "3", "--frequencies=-1,1,1"],
    ["metrics", "--classes", "3", "--frequencies", "1e-320,1,1"],
    # inverses that are finite but sum to infinity: this exited 0, weighted,,,
    ["metrics", "--classes", "3", "--frequencies", "1e-308,1e-308,1"],
    ["metrics", "--classes", "0"],
    ["metrics", "--classes", "257"],
    ["spectral", "jm", "--gt", "labels.pgm", "--classes", "-1"],
], ids=" ".join)
def test_analysis_command_bad_argument_exit_2(files, argv):
    """metrics scores mask.pgm against itself; spectral reads the 12x12 cube."""
    paths = {"mask.pgm": str(files / "mask.pgm"), "labels.pgm": str(files / "labels.pgm")}
    argv = [paths.get(a, a) for a in argv]
    if argv[0] == "metrics":
        argv += ["--gt", paths["mask.pgm"], "--pred", paths["mask.pgm"]]
    else:
        argv += ["--cube", str(files / "cube.hsc")]
    assert main(argv) == 2


def test_analysis_commands_good_arguments_exit_0(files):
    mask, labels = str(files / "mask.pgm"), str(files / "labels.pgm")
    cube = str(files / "cube.hsc")
    assert main(["metrics", "--gt", mask, "--pred", mask, "--classes", "3",
                 "--frequencies", "0,1,1"]) == 0
    assert main(["spectral", "jm", "--cube", cube, "--gt", labels]) == 0
    assert main(["spectral", "select-bands", "--cube", cube, "--gt", labels]) == 0


@pytest.mark.parametrize("argv", [
    ["metrics", "--gt", "plain/x", "--pred", "mask.pgm", "--classes", "3"],
    ["metrics", "--gt", "mask.pgm", "--pred", "mask.pgm", "--classes", "3", "--out", "plain/x"],
    ["segment", "--cube", "plain/x", "--model", "mlp.sdw", "--out", "out.pgm"],
    ["segment", "--cube", "cube.hsc", "--model", "mlp.sdw", "--out", "plain/x"],
], ids=" ".join)
def test_path_under_a_regular_file_exit_2(files, tmp_path, capsys, argv):
    """A path through a regular file raises NotADirectoryError, an OSError like
    a missing file; it exited 3 with a traceback."""
    (tmp_path / "plain").write_text("a regular file")
    paths = {"mask.pgm": files / "mask.pgm", "mlp.sdw": files / "mlp.sdw",
             "cube.hsc": files / "cube.hsc", "plain/x": tmp_path / "plain" / "x",
             "out.pgm": tmp_path / "out.pgm"}
    assert main([str(paths.get(a, a)) for a in argv]) == 2
    assert "Not a directory" in capsys.readouterr().err


@pytest.mark.parametrize("freqs, error", [
    ([1.0, 2.0], ShapeMismatch),
    ([np.nan, 1.0, 1.0], InvalidOption),
    ([-1.0, 1.0, 1.0], InvalidOption),
    ([0.0, 0.0, 0.0], InvalidOption),
    ([1e-320, 1.0, 1.0], InvalidOption),
    ([1e-308, 1e-308, 1.0], InvalidOption),
])
def test_compute_metrics_rejects_bad_frequencies(freqs, error):
    with pytest.raises(error):
        compute_metrics(ConfusionMatrix(np.eye(3, dtype=np.int64)), frequencies=freqs)


def test_class_stats_rejects_labels_of_another_shape():
    with pytest.raises(ShapeMismatch):
        class_stats(np.zeros((4, 5, 3)), np.zeros((5, 4), np.uint8), 2)


def _cross_input_files(files, tmp_path):
    """Inputs that are each valid but do not fit together: a 3-band cube
    for 5-band models, a calibration directory holding it, a dark frame
    smaller than the layout's active window, a bench infer config joining
    the cube to a 5-band model, a bench preprocess config joining that
    dark frame to the layout, labels giving class 1 one pixel of the
    cube, too few for its covariance or for two bands to select, and a
    1x12x12 cube whose labels give each of 4 classes 3 pixels, no more
    than its 12 bands."""
    cube = formats.load_cube(files / "cube.hsc")
    formats.save_cube(tmp_path / "three.hsc", cube[..., :3].copy())
    (tmp_path / "calib").mkdir()
    formats.save_cube(tmp_path / "calib" / "three.hsc", cube[..., :3].copy())
    formats.save_raw(tmp_path / "dark.u16", np.zeros((100, 100), np.uint16))
    (tmp_path / "infer.json").write_text(json.dumps({
        "model": str(files / "mlp.sdw"), "cube": str(tmp_path / "three.hsc"),
        "iterations": 1, "warmup": 0}))
    one = np.zeros((12, 12), np.uint8)
    one[5, 5] = 1
    formats.save_mask(tmp_path / "one.pgm", one)
    formats.save_cube(tmp_path / "twelve.hsc", np.random.default_rng(12).uniform(
        0.05, 0.95, (1, 12, 12)).astype(np.float32))
    formats.save_mask(tmp_path / "fourths.pgm", (np.arange(12) % 4).astype(np.uint8)[None])
    (tmp_path / "pre.json").write_text(json.dumps({
        "raw": str(files / "raw.u16"), "dark": str(tmp_path / "dark.u16"),
        "white": str(files / "white.u16"), "layout": str(files / "layout.json"),
        "iterations": 1, "warmup": 0}))


# (argv with {f} for the fixture's files and {t} for tmp_path, compared paths)
CROSS_INPUT = {
    "segment bands": (["segment", "--cube", "{t}/three.hsc", "--model", "{f}/mlp.sdw",
                       "--out", "{t}/m.pgm"], ["{t}/three.hsc", "{f}/mlp.sdw"]),
    "segment bands int8": (["segment", "--cube", "{t}/three.hsc", "--model", "{f}/unet.sdq",
                            "--quantized", "--out", "{t}/m.pgm"],
                           ["{t}/three.hsc", "{f}/unet.sdq"]),
    "segment --gt": (["segment", "--cube", "{f}/cube.hsc", "--model", "{f}/mlp.sdw",
                      "--out", "{t}/m.pgm", "--gt", "{f}/mask.pgm"],
                     ["{f}/mask.pgm", "{f}/cube.hsc"]),
    "metrics": (["metrics", "--gt", "{f}/mask.pgm", "--pred", "{f}/labels.pgm",
                 "--classes", "3"], ["{f}/mask.pgm", "{f}/labels.pgm"]),
    "quantize bands": (["quantize", "--model", "{f}/mlp.sdw", "--calib", "{t}/calib",
                        "--out", "{t}/q.sdq"], ["{t}/calib/three.hsc", "{f}/mlp.sdw"]),
    "spectral jm --gt": (["spectral", "jm", "--cube", "{f}/cube.hsc", "--gt", "{f}/mask.pgm"],
                         ["{f}/mask.pgm", "{f}/cube.hsc"]),
    "preprocess dark": (["preprocess", "--raw", "{f}/raw.u16", "--dark", "{t}/dark.u16",
                         "--white", "{f}/white.u16", "--layout", "{f}/layout.json",
                         "--out", "{t}/c.hsc"], ["{t}/dark.u16", "{f}/layout.json"]),
    "bench infer bands": (["bench", "infer", "--config", "{t}/infer.json"],
                          ["{t}/three.hsc", "{f}/mlp.sdw"]),
    "bench preprocess dark": (["bench", "preprocess", "--config", "{t}/pre.json"],
                              ["{t}/dark.u16", "{f}/layout.json"]),
    "spectral jm one-pixel class": (["spectral", "jm", "--cube", "{f}/cube.hsc", "--gt",
                                     "{t}/one.pgm", "--classes", "2"],
                                    ["{t}/one.pgm", "{f}/cube.hsc"]),
    "spectral jm classes of no more pixels than bands": (
        ["spectral", "jm", "--cube", "{t}/twelve.hsc", "--gt", "{t}/fourths.pgm",
         "--classes", "4"], ["{t}/fourths.pgm", "{t}/twelve.hsc"]),
    "spectral select-bands one pixel": (["spectral", "select-bands", "--cube",
                                         "{f}/cube.hsc", "--gt", "{t}/one.pgm",
                                         "--ignore", "0", "-k", "2"],
                                        ["{t}/one.pgm", "{f}/cube.hsc"]),
}


@pytest.mark.parametrize("case", CROSS_INPUT)
def test_cross_input_refusal_names_its_files(files, tmp_path, capsys, case):
    """A check across two inputs exits 2 naming the file of each input it
    compared. The segment band and --gt refusals and metrics' used to name
    none."""
    _cross_input_files(files, tmp_path)
    argv, paths = CROSS_INPUT[case]
    fill = {"f": files, "t": tmp_path}
    assert main([a.format(**fill) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("specdrive: error: ")
    for path in paths:
        assert path.format(**fill) in err, (path, err)


@given(d=st.data())
def test_valid_inputs_that_do_not_fit_exit_0_or_2_naming_a_file(tmp_path_factory, d):
    """Pairs of small inputs, each valid on its own, of drawn shapes, band
    counts and class counts: a cube and a label mask, and a float and an
    int8 model. Every command that joins two of them exits 0, or exits 2
    naming one of its input files; never 3."""
    root = tmp_path_factory.mktemp("pair")
    side = st.sampled_from([1, 2, 3, 8, 12])
    h, w, bands = d.draw(side), d.draw(side), d.draw(side)
    in_ch = d.draw(st.sampled_from([bands, d.draw(side)]))
    pixels = np.random.default_rng(h * w).uniform(0.05, 0.95, (h, w, bands)).astype(np.float32)
    formats.save_cube(root / "cube.hsc", pixels)
    gh, gw = d.draw(st.sampled_from([(h, w), (d.draw(side), d.draw(side))]))
    gk, classes = d.draw(st.integers(1, 4)), d.draw(st.integers(2, 4))
    formats.save_mask(root / "gt.pgm", np.arange(gh * gw, dtype=np.uint8).reshape(gh, gw) % gk)
    graph = (build_mlp(in_ch, classes) if d.draw(st.booleans()) else build_unet(
        UNetConfig(patch_size=8, encoder_depth=1, initial_filters=2, in_channels=in_ch,
                   classes=classes)))
    weights = generate_weights(graph, 3)
    save_weights(root / "m.sdw", graph, weights)
    calib = np.random.default_rng(4).uniform(0.05, 0.95, (8, 8, in_ch)).astype(np.float32)
    save_qgraph(root / "m.sdq", quantize_model(graph, weights, [calib]))
    (root / "calib").mkdir()
    formats.save_cube(root / "calib" / "c.hsc", pixels)
    (root / "b.json").write_text(json.dumps({"model": str(root / "m.sdw"),
                                             "cube": str(root / "cube.hsc"),
                                             "quantized_model": str(root / "m.sdq"),
                                             "iterations": 1, "warmup": 0}))
    formats.save_mask(root / "pred.pgm", np.zeros((h, w), np.uint8))
    cube, gt, sdw, sdq = (str(root / n) for n in ("cube.hsc", "gt.pgm", "m.sdw", "m.sdq"))
    out = str(root / "out.pgm")
    for argv in (
            ["segment", "--cube", cube, "--model", sdw, "--out", out, "--gt", gt],
            ["segment", "--cube", cube, "--model", sdq, "--out", out],
            ["quantize", "--model", sdw, "--calib", str(root / "calib"),
             "--out", str(root / "q.sdq")],
            ["bench", "infer", "--config", str(root / "b.json")],
            ["metrics", "--gt", gt, "--pred", str(root / "pred.pgm"), "--classes",
             str(classes)],
            ["spectral", "jm", "--cube", cube, "--gt", gt, "--classes", str(classes)]):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main(argv)
        assert rc == 0 or (rc == 2 and any(str(f) in err.getvalue()
                                           for f in root.rglob("*"))), (argv, rc, err.getvalue())

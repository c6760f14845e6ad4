import hashlib
import json
from functools import partial

import numpy as np
import pytest

from specdrive import cli, formats, kernels
from specdrive.cli import _grid_for, infer_cube, main, run_segment
from specdrive.metrics import IGNORE_LABEL
from specdrive.model import PIXEL_BLOCK, UNetConfig, build_mlp, build_unet, forward
from specdrive.mosaic import MosaicLayout, preprocess_pipeline
from specdrive.quant import load_qgraph, payload_bytes, qforward
from specdrive.synth import SceneSpec, separating_mlp_weights, synth_scene
from specdrive.tiling import build_grid, extract_patches, reconstruct
from specdrive.weights import generate_weights, save_weights


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Shared workspace: a synthetic scene, its cube, and model containers."""
    root = tmp_path_factory.mktemp("cli")
    spec = {"kind": "classes", "num_classes": 3, "layout_kind": "vstripes", "seed": 42}
    (root / "scene.json").write_text(json.dumps(spec))
    assert main(["synth", "--spec", str(root / "scene.json"),
                 "--out", str(root / "scene")]) == 0
    assert main([
        "preprocess",
        "--raw", str(root / "scene/raw.u16"),
        "--dark", str(root / "scene/dark.u16"),
        "--white", str(root / "scene/white.u16"),
        "--layout", str(root / "scene/layout.json"),
        "--out", str(root / "cube.hsc"),
    ]) == 0

    # a small crop keeps model runs quick; labels crop alongside
    cube = formats.load_cube(root / "cube.hsc")
    labels = formats.load_mask(root / "scene/labels.pgm")
    formats.save_cube(root / "crop.hsc", cube[40:104, 60:156])
    formats.save_mask(root / "crop_labels.pgm", labels[40:104, 60:156])

    scene = synth_scene(SceneSpec.from_dict(spec))
    graph, weights = separating_mlp_weights(scene.signatures)
    save_weights(root / "mlp.sdw", graph, weights)
    unet = build_unet(UNetConfig())
    save_weights(root / "unet.sdw", unet, generate_weights(unet, 0))
    mlp_rand = build_mlp(25, 3)
    save_weights(root / "mlp_rand.sdw", mlp_rand, generate_weights(mlp_rand, 0))

    calib = root / "calib"
    calib.mkdir()
    formats.save_cube(calib / "a.hsc", cube[40:104, 60:156])
    formats.save_cube(calib / "b.hsc", cube[100:164, 200:296])
    return root


def test_synth_outputs_exist(work):
    for name in ("raw.u16", "raw.u16.json", "dark.u16", "white.u16",
                 "layout.json", "gt_cube.hsc", "labels.pgm", "scene_meta.json"):
        assert (work / "scene" / name).exists()


def test_preprocess_matches_ground_truth(work):
    cube = formats.load_cube(work / "cube.hsc")
    gt = formats.load_cube(work / "scene/gt_cube.hsc")
    labels = formats.load_mask(work / "scene/labels.pgm")
    scored = labels != IGNORE_LABEL
    assert np.abs(cube - gt)[scored].max() <= 1e-5


def small_raw_scene(root, seed=11):
    """Seeded raw, dark and white frames with a permuted tile, an
    off-center center, a shifted active window and a patch of degenerate
    reference pixels, written to root; returns them and their layout."""
    rng = np.random.default_rng(seed)
    lay = MosaicLayout(tile=rng.permutation(25).reshape(5, 5), active_origin=(3, 1),
                       active_size=(85, 120), center_offset=(1, 3))
    frame = rng.integers(0, 65535, (90, 125)).astype(np.uint16)
    dark = rng.integers(200, 400, (90, 125)).astype(np.uint16)
    white = rng.integers(60000, 65000, (90, 125)).astype(np.uint16)
    white[14:20, 10:40] = dark[14:20, 10:40]
    for name, a in (("raw", frame), ("dark", dark), ("white", white)):
        formats.save_raw(root / f"{name}.u16", a)
    formats.save_layout(root / "layout.json", lay)
    return frame, dark, white, lay


# sha256 of the .hsc file that preprocess writes for small_raw_scene(seed=11),
# recorded when the file was still written from the (rows, cols, bands) cube
SMALL_SCENE_HSC_SHA256 = "d55ea195c436925af4d6dfe8cbfe014c648e0ff5921939a5897b65f3ae5c9a9d"


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("vector", [True, False])
def test_preprocess_file_is_library_cube(tmp_path, vector, threads):
    """The file preprocess writes from the band planes holds the bytes
    save_cube writes for the library's cube, for both kernel variants and
    any worker count, and they have not changed."""
    frame, dark, white, lay = small_raw_scene(tmp_path)
    rc = main(["preprocess"] + [
        a for k in ("raw", "dark", "white") for a in (f"--{k}", str(tmp_path / f"{k}.u16"))
    ] + ["--layout", str(tmp_path / "layout.json"), "--out", str(tmp_path / "cli.hsc"),
         "--threads", str(threads)] + ([] if vector else ["--no-vector"]))
    assert rc == 0
    formats.save_cube(tmp_path / "lib.hsc",
                      preprocess_pipeline(frame, dark, white, lay).cube)
    data = (tmp_path / "cli.hsc").read_bytes()
    assert data == (tmp_path / "lib.hsc").read_bytes()
    assert hashlib.sha256(data).hexdigest() == SMALL_SCENE_HSC_SHA256


def test_segment_with_metrics_and_render(work):
    rc = main([
        "segment",
        "--cube", str(work / "crop.hsc"),
        "--model", str(work / "mlp.sdw"),
        "--out", str(work / "mask.pgm"),
        "--render", str(work / "mask.ppm"),
        "--gt", str(work / "crop_labels.pgm"),
        "--metrics", str(work / "metrics.csv"),
    ])
    assert rc == 0
    mask = formats.load_mask(work / "mask.pgm")
    assert mask.shape == (64, 96)
    csv = (work / "metrics.csv").read_text()
    assert csv.splitlines()[0] == "name,recall,precision,iou"
    overall = [l for l in csv.splitlines() if l.startswith("overall")][0]
    assert overall.split(",")[3] == "100.00"  # separating classifier is exact
    assert (work / "mask.ppm").read_bytes().startswith(b"P6\n96 64\n")


def test_segment_manifest_with_flag_override(work, tmp_path):
    manifest = {
        "cube": str(work / "crop.hsc"),
        "model": str(work / "mlp.sdw"),
        "out": str(tmp_path / "by_manifest.pgm"),
    }
    (tmp_path / "run.json").write_text(json.dumps(manifest))
    out_flag = tmp_path / "by_flag.pgm"
    rc = main(["segment", "--manifest", str(tmp_path / "run.json"),
               "--out", str(out_flag)])
    assert rc == 0
    assert out_flag.exists() and not (tmp_path / "by_manifest.pgm").exists()


def test_run_segment_reproducible(work, tmp_path):
    manifest = {
        "cube": str(work / "crop.hsc"),
        "model": str(work / "mlp.sdw"),
        "out": str(tmp_path / "a.pgm"),
    }
    run_segment(manifest)
    run_segment({**manifest, "out": str(tmp_path / "b.pgm")})
    assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()


def test_quantize_and_quantized_segment(work):
    rc = main([
        "quantize",
        "--model", str(work / "mlp.sdw"),
        "--calib", str(work / "calib"),
        "--out", str(work / "mlp.sdq"),
        "--report", str(work / "quant.csv"),
    ])
    assert rc == 0
    report = (work / "quant.csv").read_text()
    ratio = float([l for l in report.splitlines() if l.startswith("ratio")][0].split(",")[1])
    assert ratio < 1.0
    rc = main([
        "segment",
        "--cube", str(work / "crop.hsc"),
        "--model", str(work / "mlp.sdq"),
        "--quantized",
        "--out", str(work / "mask_q.pgm"),
    ])
    assert rc == 0
    float_mask = formats.load_mask(work / "mask.pgm")
    q_mask = formats.load_mask(work / "mask_q.pgm")
    assert (float_mask == q_mask).mean() >= 0.95


def test_quantized_flag_on_float_container_is_data_error(work, capsys):
    rc = main([
        "segment", "--cube", str(work / "crop.hsc"),
        "--model", str(work / "mlp.sdw"), "--quantized",
        "--out", str(work / "nope.pgm"),
    ])
    assert rc == 2
    assert "quantize" in capsys.readouterr().err


def test_model_info_unet(work, capsys):
    assert main(["model-info", str(work / "unet.sdw")]) == 0
    out = capsys.readouterr().out
    assert "params 31707 (320 non-trainable)" in out
    assert "282,066,944" in out  # FLOPs per patch under the 2xMAC convention
    assert "18" in out


def test_model_info_counts_the_network_as_defined(work, capsys):
    """A U-Net's .sdq holds a graph with its batch norm folded; model-info
    counts the network it was made from, as for the .sdw, and the quantized
    ratio is over that network's float bytes, as in quantize --report."""
    sdq = _quantized(work, "unet")
    assert main(["model-info", str(work / "unet.sdw")]) == 0
    params = [l for l in capsys.readouterr().out.splitlines() if l.startswith("params")]
    assert main(["model-info", str(sdq)]) == 0
    out = capsys.readouterr().out
    assert params == ["params 31707 (320 non-trainable)"]
    assert params[0] in out.splitlines()
    assert "FLOPs per image (18 patches)" in out
    ratio = payload_bytes(load_qgraph(sdq)) / (4 * 31707)
    assert f"(ratio {ratio:.3f})" in out


@pytest.mark.parametrize("patch, patches", [(64, 72), (128, 18)])
def test_model_info_counts_the_default_grid(tmp_path, capsys, patch, patches):
    """FLOPs per image count the patches of segment's default grid on the
    default layout's 216x409 frame; a patch-64 U-Net used to print the
    patch-128 grid's 18."""
    unet = build_unet(UNetConfig(patch_size=patch))
    save_weights(tmp_path / "u.sdw", unet, generate_weights(unet, 0))
    assert main(["model-info", str(tmp_path / "u.sdw")]) == 0
    assert f"FLOPs per image ({patches} patches)" in capsys.readouterr().out
    assert _grid_for(unet.meta, (216, 409), None).n_patches == patches


@pytest.mark.parametrize("patch, counts", [
    (128, ["MACs per patch: 141,033,472", "FLOPs per patch (2xMAC): 282,066,944",
           "FLOPs per image (18 patches): 5,077,204,992",
           "default grid on the 216x409 frame: 18 patches of 128x128, "
           "3.34 evaluations per pixel",
           "float payload bytes: 126,828"]),
    (256, ["MACs per patch: 401,614,848", "FLOPs per patch (2xMAC): 803,229,696",
           "FLOPs per image (4 patches): 3,212,918,784",
           "default grid on the 216x409 frame: 4 patches of 216x216, "
           "2.11 evaluations per pixel",
           "float payload bytes: 126,828"]),
    (None, ["MACs per pixel: 13,425", "FLOPs per pixel (2xMAC): 26,850",
            "FLOPs per image (88344 pixels): 2,372,036,400",
            "float payload bytes: 54,612"]),
], ids=["unet-128", "unet-256", "mlp"])
def test_model_info_counts_macs_at_the_grid_patch(tmp_path, capsys, patch, counts):
    """A U-Net's MACs per patch are counted at the side of the patches
    segment runs: on the 216x409 frame a patch-256 U-Net's default grid is
    4 patches of 216x216, not of 256x256 (564,133,888 MACs each), and
    model-info prints that grid. The MLP, which segments untiled, is
    counted once per pixel and prints no grid."""
    graph = build_unet(UNetConfig(patch_size=patch)) if patch else build_mlp(25, 3)
    save_weights(tmp_path / "m.sdw", graph, generate_weights(graph, 0))
    assert main(["model-info", str(tmp_path / "m.sdw")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"kind: {graph.meta['kind']} ({json.dumps(graph.meta['config'])})"
    assert out[2:] == counts
    if patch:
        assert _grid_for(graph.meta, (216, 409), None).patch_size == min(patch, 216)


def test_model_info_mlp(work, capsys):
    assert main(["model-info", str(work / "mlp_rand.sdw")]) == 0
    out = capsys.readouterr().out
    assert "params 13653 (0 non-trainable)" in out


def test_missing_model_file_exits_2(work, capsys):
    rc = main(["segment", "--cube", str(work / "crop.hsc"),
               "--model", str(work / "absent.sdw"), "--out", str(work / "x.pgm")])
    assert rc == 2
    assert "absent.sdw" in capsys.readouterr().err


def test_truncated_container_exits_2(work, capsys):
    data = (work / "mlp.sdw").read_bytes()
    (work / "broken.sdw").write_bytes(data[:-64])
    rc = main(["model-info", str(work / "broken.sdw")])
    assert rc == 2
    assert "truncated" in capsys.readouterr().err


def test_usage_error_exits_1(capsys):
    assert main(["segment", "--bogus-flag"]) == 1
    assert main([]) == 1


def test_metrics_command(work, tmp_path):
    rc = main([
        "metrics", "--gt", str(work / "crop_labels.pgm"),
        "--pred", str(work / "mask.pgm"), "--classes", "3",
        "--frequencies", "0.5956,0.0338,0.3706",
        "--out", str(tmp_path / "m.csv"),
    ])
    assert rc == 0
    text = (tmp_path / "m.csv").read_text()
    assert text.startswith("name,recall,precision,iou")


def test_metrics_command_prints_warnings_on_stderr(tmp_path, capsys):
    formats.save_mask(tmp_path / "gt.pgm", np.array([[0, 0, 1, 1], [2, 2, 1, 0]], np.uint8))
    formats.save_mask(tmp_path / "pred.pgm", np.array([[0, 0, 2, 2], [2, 2, 0, 0]], np.uint8))
    rc = main(["metrics", "--gt", str(tmp_path / "gt.pgm"), "--pred", str(tmp_path / "pred.pgm"),
               "--classes", "3", "--frequencies", "0,0.5,0.5"])
    assert rc == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == "weighted,50.00,50.00,25.00"
    assert err.splitlines() == [
        "specdrive: warning: classes [1] never predicted, so their precision is undefined; "
        "excluded from mean/weighted precision",
        "specdrive: warning: classes [0] of frequency 0, so without weight; "
        "excluded from weighted aggregates",
    ]


def test_bench_preprocess_command(work, tmp_path, capsys):
    cfg = {
        "iterations": 1, "warmup": 0, "threads": [1, 2],
        "raw": str(work / "scene/raw.u16"), "dark": str(work / "scene/dark.u16"),
        "white": str(work / "scene/white.u16"),
        "layout": str(work / "scene/layout.json"),
        "watts": 4.0,
    }
    (tmp_path / "b.json").write_text(json.dumps(cfg))
    rc = main(["bench", "preprocess", "--config", str(tmp_path / "b.json"),
               "--out", str(tmp_path / "r.csv"), "--json", str(tmp_path / "r.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Translation to center" in out and "determinism gate: bitwise" in out
    parsed = json.loads((tmp_path / "r.json").read_text())
    assert parsed["determinism"] == "bitwise"
    assert len(parsed["results"]) == 2


@pytest.mark.parametrize("target", ["preprocess", "infer"])
def test_bench_on_a_scene_spec(work, tmp_path, capsys, target):
    """A bench config may describe its frame as a scene spec instead of
    files; bench infer preprocesses that scene's frame for its cube."""
    cfg = {"iterations": 1, "warmup": 0, "scene": {"layout_kind": "hstripes", "seed": 3}}
    if target == "infer":
        cfg["model"] = str(work / "mlp.sdw")
    (tmp_path / "b.json").write_text(json.dumps(cfg))
    assert main(["bench", target, "--config", str(tmp_path / "b.json")]) == 0
    assert "determinism gate" in capsys.readouterr().out


def test_synth_seed_flag_overrides_the_spec(work, tmp_path):
    spec = {"kind": "classes", "num_classes": 3, "layout_kind": "vstripes", "seed": 42}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "s"),
                 "--seed", "9"]) == 0
    meta = json.loads((tmp_path / "s/scene_meta.json").read_text())
    assert meta["spec"] == {**spec, "seed": 9}
    want = synth_scene(SceneSpec(seed=9))
    assert np.array_equal(formats.load_raw(tmp_path / "s/raw.u16")[0], want.raw)
    assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "t"),
                 "--seed=-1"]) == 2


def test_bench_infer_command(work, tmp_path, capsys):
    cfg = {
        "iterations": 1, "warmup": 0,
        "model": str(work / "mlp.sdw"),
        "cube": str(work / "crop.hsc"),
        "preprocess_ms": 80.0,
    }
    (tmp_path / "b.json").write_text(json.dumps(cfg))
    rc = main(["bench", "infer", "--config", str(tmp_path / "b.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Inference" in out and "two-stage pipeline" in out


def test_spectral_commands(work, tmp_path, capsys):
    rc = main(["spectral", "corr", "--cube", str(work / "crop.hsc"),
               "--out", str(tmp_path / "corr.csv")])
    assert rc == 0
    assert (tmp_path / "corr.csv").read_text().count("\n") == 26  # header + 25 bands

    rc = main(["spectral", "jm", "--cube", str(work / "crop.hsc"),
               "--gt", str(work / "crop_labels.pgm"), "--classes", "3",
               "--out", str(tmp_path / "jm.csv")])
    assert rc == 0
    assert (tmp_path / "jm.csv").read_text().startswith(",class0,class1,class2")

    # the full scene has three distinct signatures, so three independent bands
    capsys.readouterr()
    rc = main(["spectral", "select-bands", "-k", "3",
               "--cube", str(work / "cube.hsc"),
               "--gt", str(work / "scene/labels.pgm")])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("slot,band")
    assert len(out.strip().splitlines()) == 4


def _quantized(work, name):
    """The int8 container of work/<name>.sdw, made on first use so tests
    do not depend on their order."""
    path = work / f"{name}.sdq"
    if not path.exists():
        assert main(["quantize", "--model", str(work / f"{name}.sdw"),
                     "--calib", str(work / "calib"), "--out", str(path)]) == 0
    return path


def _library_segment(cube, model_path):
    """The library path: the whole graph on the whole cube for a per-pixel
    model, and on each float patch of the default grid, averaged back, for a
    U-Net."""
    model, weights = cli._load_model(str(model_path))
    run = (partial(qforward, model) if weights is None
           else partial(forward, model, weights=weights))
    grid = _grid_for(model.meta, cube.shape[:2], None)
    if grid is None:
        prob_map = run(cube)
        return prob_map, prob_map.argmax(-1).astype(np.uint8)
    return reconstruct([run(p) for p in extract_patches(cube, grid)], grid)


def test_segment_threads_do_not_change_output(work, tmp_path, monkeypatch):
    """Float and int8 MLP and U-Net masks and probability maps are, at 1, 2
    and 4 threads, the bits of the library path, though segment normalizes
    (and quantizes) the cube once for the U-Net and maps the MLP over the
    crop's three pixel blocks on its workers."""
    for name in ("mlp", "unet"):
        _quantized(work, name)
    cube = formats.load_cube(work / "crop.hsc")
    maps = []
    real = cli.infer_cube

    def spy(*args, **kw):
        maps.append(real(*args, **kw))
        return maps[-1]

    monkeypatch.setattr(cli, "infer_cube", spy)
    for model in ("mlp.sdw", "mlp.sdq", "unet.sdw", "unet.sdq"):
        want_map, want_labels = _library_segment(cube, work / model)
        for threads in (1, 2, 4):
            maps.clear()
            out = run_segment({"cube": str(work / "crop.hsc"), "model": str(work / model),
                               "out": str(tmp_path / f"t{threads}.pgm"), "threads": threads})
            assert np.array_equal(maps[0][0], want_map), (model, threads)
            assert np.array_equal(out["labels"], want_labels), (model, threads)
            assert np.array_equal(formats.load_mask(tmp_path / f"t{threads}.pgm"), want_labels)


@pytest.mark.parametrize("model", ["unet.sdw", "unet.sdq", "mlp.sdq"])
def test_patch_views_give_the_bits_of_patch_copies(work, monkeypatch, model):
    """infer_cube on read-only patch views gives, at 1, 2 and 4 threads, the
    bits of a reference that copies each patch, and leaves the cube as it
    was: no model op writes to its input. The MLP runs untiled, on pixel
    blocks that are views of the cube itself."""
    if model.endswith(".sdq"):
        _quantized(work, model[:-4])
    graph, weights = cli._load_model(str(work / model))
    cube = formats.load_cube(work / "crop.hsc")
    before = cube.copy()
    grid = _grid_for(graph.meta, cube.shape[:2], None)
    assert grid is None if model.startswith("mlp") else grid.n_patches > 1

    def copies(x, g):
        return [p.copy() for p in extract_patches(x, g)]

    with monkeypatch.context() as m:
        m.setattr(cli, "extract_patches", copies)
        want_map, want_labels = infer_cube(graph, cube, grid, weights=weights)
    for threads in (1, 2, 4):
        got_map, got_labels = infer_cube(graph, cube, grid, weights=weights, threads=threads)
        assert np.array_equal(got_map, want_map), threads
        assert np.array_equal(got_labels, want_labels), threads
        assert np.array_equal(cube, before), threads


@pytest.mark.parametrize("hw", [(90, 200), (127, 300), (6, 6)])
def test_quantize_thin_cube_default_grid(work, tmp_path, hw):
    """On a cube thinner than 128 whose side is not a multiple of
    2^encoder_depth, the U-Net's default patch rounds down to one, so
    quantize calibrates on it (the pooling used to meet an odd side and
    exit 2)."""
    cube = np.random.default_rng(sum(hw)).uniform(0.05, 0.95, (*hw, 25)).astype(np.float32)
    assert _grid_for({"kind": "unet", "config": {}}, hw, None).patch_size == min(hw) // 4 * 4
    (tmp_path / "calib").mkdir()
    formats.save_cube(tmp_path / "calib" / "thin.hsc", cube)
    assert main(["quantize", "--model", str(work / "unet.sdw"),
                 "--calib", str(tmp_path / "calib"), "--out", str(tmp_path / "q.sdq")]) == 0


def test_cube_thinner_than_the_unets_minimum_patch_exit_2(work, tmp_path, capsys):
    """A 3x700 cube cannot hold a patch the depth-2 U-Net's pooling can
    halve twice: segment and quantize refuse it, naming the cube and the
    minimum, before any model runs."""
    cube = np.random.default_rng(3).uniform(0.05, 0.95, (3, 700, 25)).astype(np.float32)
    (tmp_path / "calib").mkdir()
    formats.save_cube(tmp_path / "calib" / "thin.hsc", cube)
    for argv in (["segment", "--cube", str(tmp_path / "calib" / "thin.hsc"),
                  "--out", str(tmp_path / "m.pgm")],
                 ["quantize", "--calib", str(tmp_path / "calib"),
                  "--out", str(tmp_path / "q.sdq")]):
        capsys.readouterr()
        assert main(argv + ["--model", str(work / "unet.sdw")]) == 2
        err = capsys.readouterr().err
        assert "3x700" in err and "4x4" in err, err
    assert not (tmp_path / "m.pgm").exists() and not (tmp_path / "q.sdq").exists()


@pytest.mark.parametrize("model, hw", [
    ("mlp.sdw", (3, 700)), ("unet.sdw", (40, 300)), ("unet.sdw", (40, 100)),
    ("unet64.sdw", (150, 409)), ("unet32.sdw", (216, 409)), ("unet16.sdw", (40, 40)),
    ("unet.sdw", (90, 200)), ("unet.sdw", (127, 300)), ("unet.sdw", (6, 6))])
def test_segment_thin_cube_default_grid(work, tmp_path, model, hw):
    """A cube thinner than the patch, or a patch smaller than the strides,
    segments with the default grid; strides over half the patch used to
    leave gaps between patches (exit 2), and a U-Net patch that is not a
    multiple of 2^encoder_depth made the pooling meet an odd side (exit 2).
    unet<N>.sdw is a patch-N U-Net."""
    if not (work / model).exists():
        unet = build_unet(UNetConfig(patch_size=int(model[4:-4])))
        save_weights(work / model, unet, generate_weights(unet, 0))
    cube = np.random.default_rng(5).uniform(0.05, 0.95, (*hw, 25)).astype(np.float32)
    formats.save_cube(tmp_path / "thin.hsc", cube)
    assert main(["segment", "--cube", str(tmp_path / "thin.hsc"),
                 "--model", str(work / model), "--out", str(tmp_path / "m.pgm")]) == 0
    assert formats.load_mask(tmp_path / "m.pgm").shape == hw


@pytest.mark.parametrize("meta", [{"kind": "unet", "config": {"patch_size": 128}},
                                  {"kind": "mlp", "config": {}}])
def test_default_grid_of_full_size_cube(meta):
    """The U-Net gets the paper's 44/57-stride grid of 128-pixel patches;
    the per-pixel MLP, which segments untiled, no grid."""
    grid = _grid_for(meta, (216, 409), None)
    if meta["kind"] == "unet":
        assert grid.patch_size == 128
        assert grid.origins() == [(r, c) for r in (0, 44, 88)
                                  for c in (0, 57, 114, 167, 224, 281)]
    else:
        assert grid is None


@pytest.mark.parametrize("hw", [(216, 409), (140, 77), (3, 700), (129, 1000), (128, 128),
                                (300, 300), (1, 1)])
def test_per_pixel_default_grid_is_bitwise_the_paper_grid(work, hw):
    """A per-pixel model segments untiled: on the MLP, float and int8, at
    1, 2 and 4 threads. The int8 map is the bits of qforward on the whole
    cube, and the probability map and labels of the paper's 44/57-stride
    grid bit for bit, the model reading no neighbours and the float64
    average of equal float32 copies being that value. The float map is the
    bits of forward on the cube's PIXEL_BLOCK-row slices, the last padded
    with copies of the last pixel (a cube of one block or less whole), and
    its labels are those of forward on the whole cube: OpenBLAS may sum a
    pixel's products in another order at another row count."""
    _quantized(work, "mlp")
    cube = np.random.default_rng(sum(hw)).uniform(0.05, 0.95, (*hw, 25)).astype(np.float32)
    patch = min(128, *hw)
    cap = max(1, patch // 2)
    paper = build_grid(hw, patch, min(44, cap), min(57, cap))
    for name in ("mlp.sdw", "mlp.sdq"):
        model, weights = cli._load_model(str(work / name))
        assert _grid_for(model.meta, hw, None) is None
        if weights is None:
            run = partial(qforward, model)
            want_map = run(cube)
            paper_map, want_labels = reconstruct(
                [run(p) for p in extract_patches(cube, paper)], paper)
            assert np.array_equal(want_map, paper_map)
        else:
            run = partial(forward, model, weights=weights)
            want_map = _blocked_reference(run, cube)
            want_labels = run(cube).argmax(-1)
        for threads in (1, 2, 4):
            got_map, got_labels = infer_cube(model, cube, None, weights=weights,
                                             threads=threads)
            assert np.array_equal(got_map, want_map), (name, threads)
            assert np.array_equal(got_labels, want_labels), (name, threads)


def _blocked_reference(run, cube):
    """run on PIXEL_BLOCK-row slices of cube's pixels, the last slice padded
    with copies of the last pixel and its rows dropped; a cube of one block
    or less whole."""
    flat = cube.reshape(-1, cube.shape[-1])
    n = len(flat)
    if n <= PIXEL_BLOCK:
        return run(cube)
    flat = np.concatenate([flat, np.repeat(flat[-1:], -n % PIXEL_BLOCK, axis=0)])
    out = np.concatenate([run(flat[a : a + PIXEL_BLOCK]) for a in range(0, n, PIXEL_BLOCK)])
    return out[:n].reshape(*cube.shape[:-1], -1)


@pytest.mark.parametrize("model", ["mlp.sdw", "mlp.sdq"])
def test_per_pixel_segment_runs_untiled(work, tmp_path, monkeypatch, model):
    """A per-pixel segment cuts no patches and reconstructs nothing: on a
    cube over one block, every input the model gets is one full block of
    PIXEL_BLOCK pixels, the short last one padded."""
    path = _quantized(work, "mlp") if model.endswith(".sdq") else work / model
    cube = np.random.default_rng(9).uniform(0.05, 0.95, (50, 90, 25)).astype(np.float32)
    formats.save_cube(tmp_path / "c.hsc", cube)
    calls, rows = [], []
    for name in ("extract_patches", "reconstruct"):
        monkeypatch.setattr(cli, name, lambda *a, name=name: calls.append(name))
    for name in ("forward", "qforward"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda g, x, *a, real=real, **kw: rows.append(
            x.shape) or real(g, x, *a, **kw))
    assert main(["segment", "--cube", str(tmp_path / "c.hsc"), "--model", str(path),
                 "--out", str(tmp_path / "m.pgm"), "--threads", "2"]) == 0
    assert calls == [] and rows == [(PIXEL_BLOCK, 25)] * -(-50 * 90 // PIXEL_BLOCK)
    assert formats.load_mask(tmp_path / "m.pgm").shape == (50, 90)


def test_bench_infer_float_vs_int8(work, tmp_path, capsys):
    _quantized(work, "mlp")
    cfg = {
        "iterations": 1, "warmup": 0,
        "model": str(work / "mlp.sdw"),
        "quantized_model": str(work / "mlp.sdq"),
        "cube": str(work / "crop.hsc"),
    }
    (tmp_path / "b.json").write_text(json.dumps(cfg))
    rc = main(["bench", "infer", "--config", str(tmp_path / "b.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "float/int8 ratio" in out


@pytest.mark.parametrize("model", ["mlp.sdw", "mlp.sdq", "unet.sdw", "unet.sdq"])
def test_segment_and_bench_infer_normalize_each_pixel_once(work, tmp_path, monkeypatch,
                                                           model):
    """segment and bench infer run one engine, cli.infer_cube, which
    normalizes the cube once: band_norm sees exactly one pixel per cube
    pixel and engine run, though the U-Net's two 64x64 patches of the crop
    overlap. The MLP maps the crop's 6,144 pixels as three full blocks, so
    it pads none."""
    name, ext = model.split(".")
    path = _quantized(work, name) if ext == "sdq" else work / model
    normed, runs = [], []
    real_norm, real_infer = kernels.band_norm, cli.infer_cube

    def norm_spy(x):
        normed.append(x.size // x.shape[-1])
        return real_norm(x)

    def infer_spy(*args, **kw):
        runs.append(1)
        return real_infer(*args, **kw)

    monkeypatch.setattr(kernels, "band_norm", norm_spy)
    monkeypatch.setattr(cli, "infer_cube", infer_spy)
    cube = work / "crop.hsc"
    h, w = formats.load_cube(cube).shape[:2]
    (tmp_path / "b.json").write_text(json.dumps(
        {"iterations": 1, "warmup": 0, "model": str(path), "cube": str(cube)}))
    for argv in (["segment", "--cube", str(cube), "--model", str(path),
                  "--out", str(tmp_path / "m.pgm")],
                 ["bench", "infer", "--config", str(tmp_path / "b.json")]):
        normed.clear()
        runs.clear()
        assert main(argv) == 0
        assert runs and sum(normed) / (len(runs) * h * w) == 1.0, argv[0]

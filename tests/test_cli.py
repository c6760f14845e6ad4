import hashlib
import json

import numpy as np
import pytest

from specdrive import cli, formats
from specdrive.cli import _grid_for, main, run_segment
from specdrive.metrics import IGNORE_LABEL
from specdrive.model import UNetConfig, build_mlp, build_unet, forward
from specdrive.mosaic import MosaicLayout, preprocess_pipeline
from specdrive.quant import qforward
from specdrive.synth import SceneSpec, separating_mlp_weights, synth_scene
from specdrive.tiling import extract_patches, reconstruct
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


def test_threads_env_var(monkeypatch):
    from specdrive.cli import default_threads

    monkeypatch.setenv("SPECDRIVE_THREADS", "4")
    assert default_threads() == 4
    monkeypatch.setenv("SPECDRIVE_THREADS", "junk")
    assert default_threads() == 1
    monkeypatch.delenv("SPECDRIVE_THREADS")
    assert default_threads() == 1


def _library_segment(cube, model_path):
    """The per-patch library path: the whole graph on each float patch."""
    kind, model, weights = cli._load_model(str(model_path))
    grid = _grid_for(model.meta if kind == "float" else model.graph.meta, cube, None)
    probs = [qforward(model, p) if kind == "quantized" else forward(model, p, weights)
             for p in extract_patches(cube, grid)]
    return reconstruct(probs, grid)


def test_segment_threads_do_not_change_output(work, tmp_path, monkeypatch):
    """Float and int8 MLP and U-Net masks and probability maps are, at 1, 2
    and 4 threads, the bits of the per-patch library path, though segment
    normalizes (and quantizes) the cube once. The crop's 64x64 patches run
    in two pixel blocks each through the MLP."""
    for name in ("mlp", "unet"):
        if not (work / f"{name}.sdq").exists():  # independent of test ordering
            assert main(["quantize", "--model", str(work / f"{name}.sdw"),
                         "--calib", str(work / "calib"),
                         "--out", str(work / f"{name}.sdq")]) == 0
    cube = formats.load_cube(work / "crop.hsc")
    maps = []

    def spy(probs, grid):
        maps.append(reconstruct(probs, grid))
        return maps[-1]

    monkeypatch.setattr(cli, "reconstruct", spy)
    for model in ("mlp.sdw", "mlp.sdq", "unet.sdw", "unet.sdq"):
        want_map, want_labels = _library_segment(cube, work / model)
        for threads in (1, 2, 4):
            maps.clear()
            out = run_segment({"cube": str(work / "crop.hsc"), "model": str(work / model),
                               "out": str(tmp_path / f"t{threads}.pgm"), "threads": threads})
            assert np.array_equal(maps[0][0], want_map), (model, threads)
            assert np.array_equal(out["labels"], want_labels), (model, threads)
            assert np.array_equal(formats.load_mask(tmp_path / f"t{threads}.pgm"), want_labels)


@pytest.mark.parametrize("model, hw", [("mlp.sdw", (3, 700)), ("unet.sdw", (40, 300))])
def test_segment_thin_cube_default_grid(work, tmp_path, model, hw):
    """A cube thinner than the patch segments with the default grid; the
    44/57 strides used to leave gaps between its smaller patches (exit 2)."""
    cube = np.random.default_rng(5).uniform(0.05, 0.95, (*hw, 25)).astype(np.float32)
    formats.save_cube(tmp_path / "thin.hsc", cube)
    assert main(["segment", "--cube", str(tmp_path / "thin.hsc"),
                 "--model", str(work / model), "--out", str(tmp_path / "m.pgm")]) == 0
    assert formats.load_mask(tmp_path / "m.pgm").shape == hw


@pytest.mark.parametrize("meta", [{"kind": "unet", "config": {"patch_size": 128}},
                                  {"kind": "mlp", "config": {}}])
def test_default_grid_of_full_size_cube(meta):
    grid = _grid_for(meta, np.empty((216, 409, 1), np.float32), None)
    assert grid.patch_size == 128
    assert grid.origins() == [(r, c) for r in (0, 44, 88)
                              for c in (0, 57, 114, 167, 224, 281)]


def test_bench_infer_float_vs_int8(work, tmp_path, capsys):
    if not (work / "mlp.sdq").exists():  # independent of test ordering
        assert main(["quantize", "--model", str(work / "mlp.sdw"),
                     "--calib", str(work / "calib"),
                     "--out", str(work / "mlp.sdq")]) == 0
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

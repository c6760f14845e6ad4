import threading

import numpy as np
import pytest

from specdrive import cli, mosaic
from specdrive.bench import (
    STAGE_INFER,
    BenchConfig,
    bench_inference,
    bench_preprocess,
    read_config,
    report_csv,
    report_json,
    report_table,
)
from specdrive.errors import InvalidOption, NonDeterministicOutput
from specdrive.model import UNetConfig, build_mlp, build_unet
from specdrive.mosaic import STAGE_NAMES
from specdrive.quant import quantize_model
from specdrive.tiling import build_grid, extract_patches
from specdrive.weights import generate_weights


@pytest.fixture
def tiny_frames(rng, small_layout):
    frame = rng.integers(400, 60000, (22, 28)).astype(np.uint16)
    dark = np.full((22, 28), 300, np.uint16)
    white = np.full((22, 28), 61000, np.uint16)
    return frame, dark, white, small_layout


def test_single_iteration_stats(tiny_frames):
    cfg = BenchConfig(iterations=1, warmup=0)
    report = bench_preprocess(cfg, *tiny_frames)
    (result,) = report.results
    for name in STAGE_NAMES:
        assert result.stages[name].samples == 1
        assert result.stages[name].std_ms == 0.0
    assert result.total_mean_ms == pytest.approx(
        sum(s.mean_ms for s in result.stages.values())
    )


def test_stage_names_match_pipeline(tiny_frames):
    report = bench_preprocess(BenchConfig(iterations=2, warmup=0), *tiny_frames)
    assert tuple(report.results[0].stages) == STAGE_NAMES


def test_cross_config_gate_and_speedup(tiny_frames):
    cfg = BenchConfig(iterations=2, warmup=0, threads=(1, 2), vectorized=(True, False))
    report = bench_preprocess(cfg, *tiny_frames)
    assert len(report.results) == 4
    assert report.determinism == "bitwise"
    assert set(report.speedup) == {
        "vector=on,threads=1", "vector=on,threads=2",
        "vector=off,threads=1", "vector=off,threads=2",
    }
    assert report.speedup["vector=off,threads=1"] == pytest.approx(1.0)


def test_gate_catches_nondeterminism(tiny_frames, monkeypatch):
    real = mosaic.preprocess_pipeline
    def crooked(frame, dark, white, layout=None, **kw):
        res = real(frame, dark, white, layout, **kw)
        if not kw.get("vectorized", True):
            res.planes = res.planes + np.float32(1e-3)
        return res
    monkeypatch.setattr("specdrive.bench.preprocess_pipeline", crooked)
    cfg = BenchConfig(iterations=1, warmup=0, vectorized=(True, False))
    with pytest.raises(NonDeterministicOutput):
        bench_preprocess(cfg, *tiny_frames)


def test_energy_arithmetic(tiny_frames):
    cfg = BenchConfig(iterations=2, warmup=0, watts=2.5)
    report = bench_preprocess(cfg, *tiny_frames)
    r = report.results[0]
    assert r.joules == pytest.approx(2.5 * r.total_mean_ms / 1000.0)


def test_bench_inference_float_and_int8(rng):
    g = build_unet(UNetConfig(patch_size=16, encoder_depth=2, initial_filters=4,
                              in_channels=5, classes=3))
    w = generate_weights(g, 30)
    cube = rng.uniform(0, 1, (32, 48, 5)).astype(np.float32)
    grid = build_grid((32, 48), 16, 12, 12)
    cfg = BenchConfig(iterations=2, warmup=1, threads=(1, 2))

    rep_f = bench_inference(cfg, g, cube, grid, weights=w, preprocess_ms=50.0)
    assert set(rep_f.results[0].stages) == {STAGE_INFER}
    assert rep_f.determinism == "bitwise"
    assert rep_f.pipeline_fps == pytest.approx(
        1000.0 / max(50.0, rep_f.best().total_mean_ms)
    )

    # both kernel modes: the naive one quantizes the input with the
    # reference requantization too
    qg = quantize_model(g, w, extract_patches(cube, grid)[:2])
    qcfg = BenchConfig(iterations=2, warmup=1, threads=(1, 2), vectorized=(True, False))
    rep_q = bench_inference(qcfg, qg, cube, grid)
    assert len(rep_q.results) == 4
    ratio = rep_q.best().total_mean_ms / rep_f.best().total_mean_ms
    assert ratio > 0  # informational: int8-vs-float latency ratio on this host


def test_grid_must_match_the_model(rng):
    """A per-pixel model runs untiled, so a grid given with it is refused;
    a U-Net cannot run without one. Both raise InvalidOption, from
    cli.infer_cube and so from bench_inference."""
    unet = build_unet(UNetConfig(patch_size=16, encoder_depth=2, initial_filters=4,
                                 in_channels=5, classes=3))
    mlp = build_mlp(5, 3)
    cube = rng.uniform(0, 1, (16, 16, 5)).astype(np.float32)
    grid = build_grid((16, 16), 16, 8, 8)
    w_unet, w_mlp = generate_weights(unet, 1), generate_weights(mlp, 2)
    cases = [(unet, None, w_unet), (mlp, grid, w_mlp),
             (quantize_model(mlp, w_mlp, [cube]), grid, None)]
    cfg = BenchConfig(iterations=1, warmup=0)
    for model, bad_grid, w in cases:
        with pytest.raises(InvalidOption):
            cli.infer_cube(model, cube, bad_grid, weights=w)
        with pytest.raises(InvalidOption):
            bench_inference(cfg, model, cube, bad_grid, weights=w)


def test_report_serializations(tiny_frames):
    report = bench_preprocess(BenchConfig(iterations=2, warmup=0), *tiny_frames)
    csv = report_csv(report)
    assert csv.splitlines()[0].startswith("vectorized,threads,stage")
    assert "Image cropping" in csv
    js = report_json(report)
    assert '"determinism": "bitwise"' in js
    table = report_table(report)
    assert "Total" in table and "FPS" in table


def test_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(iterations=0)
    with pytest.raises(ValueError):
        BenchConfig(threads=(0,))
    cfg = read_config(
        {"iterations": 5, "threads": [1, 2], "vectorized": True, "watts": 3}, "bench config"
    )[0]
    assert cfg.iterations == 5 and cfg.threads == (1, 2)
    assert cfg.vectorized == (True,) and cfg.watts == 3.0


@pytest.fixture
def unet_case(rng):
    g = build_unet(UNetConfig(patch_size=16, encoder_depth=2, initial_filters=4,
                              in_channels=5, classes=3))
    cube = rng.uniform(0, 1, (32, 48, 5)).astype(np.float32)
    grid = build_grid((32, 48), 16, 12, 12)
    return g, generate_weights(g, 30), cube, grid


def patch_forward(monkeypatch, edit):
    """Replace the forward pass of the engine bench_inference times
    (cli.infer_cube) with the fast real one, followed by edit(probs, naive)
    on each patch's output. Pixel (0, 0) of the first patch is covered by no
    other patch, so an edit there reaches the reconstructed map unchanged."""
    from specdrive import cli

    real = cli.forward

    def edited(graph, x, weights, naive=False):
        probs = real(graph, x, weights)
        edit(probs, naive)
        return probs

    monkeypatch.setattr(cli, "forward", edited)


def near_tie(lead_fast, lead_naive):
    """Set pixel (0, 0) to a near tie between classes 0 and 1, class 0
    leading by lead_naive or lead_fast depending on the kernel mode."""
    def edit(probs, naive):
        d = lead_naive if naive else lead_fast
        probs[0, 0] = (0.5 + d / 2, 0.5 - d / 2, 0.0)
    return edit


def test_inference_gate_catches_one_ulp_across_threads(unet_case, monkeypatch):
    def shift_on_workers(probs, naive):
        if threading.current_thread() is not threading.main_thread():
            probs[0, 0, 0] = np.nextafter(probs[0, 0, 0], np.float32(1))

    patch_forward(monkeypatch, shift_on_workers)
    g, w, cube, grid = unet_case
    cfg = BenchConfig(iterations=1, warmup=0, threads=(1, 2))
    with pytest.raises(NonDeterministicOutput):
        bench_inference(cfg, g, cube, grid, weights=w)


def test_inference_gate_catches_label_flip_across_modes(unet_case, monkeypatch):
    patch_forward(monkeypatch, near_tie(4e-6, -4e-6))
    g, w, cube, grid = unet_case
    cfg = BenchConfig(iterations=1, warmup=0, vectorized=(True, False))
    with pytest.raises(NonDeterministicOutput):
        bench_inference(cfg, g, cube, grid, weights=w)


def test_inference_gate_tolerates_kernel_mode_rounding(unet_case, monkeypatch):
    patch_forward(monkeypatch, near_tie(4e-6, 6e-6))
    g, w, cube, grid = unet_case
    cfg = BenchConfig(iterations=1, warmup=0, threads=(1, 2), vectorized=(True, False))
    report = bench_inference(cfg, g, cube, grid, weights=w)
    assert report.determinism == "bitwise across threads; <=1e-5 across kernel modes"
    assert len(report.results) == 4


@pytest.mark.parametrize("threads, warmup, iterations",
                         [((1,), 0, 3), ((1,), 2, 1), ((1, 2), 1, 2)])
def test_engine_runs_as_often_as_asked(unet_case, monkeypatch, threads, warmup, iterations):
    """Each configuration runs warmup + iterations times; only with more
    than one configuration does each run once more, for the gate."""
    from specdrive import cli

    runs = []
    real = cli.infer_cube
    monkeypatch.setattr(cli, "infer_cube", lambda *a, **kw: runs.append(1) or real(*a, **kw))
    g, w, cube, grid = unet_case
    cfg = BenchConfig(iterations=iterations, warmup=warmup, threads=threads)
    bench_inference(cfg, g, cube, grid, weights=w)
    gate = len(threads) if len(threads) > 1 else 0
    assert len(runs) == gate + len(threads) * (warmup + iterations)

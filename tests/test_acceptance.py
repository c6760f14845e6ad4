"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured figure so a run log doubles as the report.

Dataset-scale accuracy tables and absolute device latencies from published
evaluations need the real recordings, trained weights and specific hardware;
they are out of reach at desk scale and are replaced here by synthetic-scene
oracles (criteria 5-7, 10) plus the benchmark determinism gate (criterion 11).
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from specdrive.bench import BenchConfig, bench_preprocess
from specdrive.complexity import count_flops, count_params
from specdrive.kernels import (
    conv2d,
    conv2d_naive,
    dense,
    dense_naive,
    maxpool2,
    maxpool2_naive,
    upconv2,
    upconv2_naive,
)
from specdrive.metrics import (
    ConfusionMatrix,
    accumulate,
    compute_metrics,
    inverse_frequency_weights,
)
from specdrive.model import (
    LayerSpec,
    ModelGraph,
    UNetConfig,
    build_mlp,
    build_unet,
    forward,
)
from specdrive.mosaic import preprocess_pipeline
from specdrive.quant import QuantScheme, qforward, quant_report, quantize_model
from specdrive.spectral import ClassStats, jm_distance
from specdrive.synth import (
    SceneSpec,
    interior_mask,
    separating_mlp_weights,
    synth_scene,
)
from specdrive.tiling import build_grid, extract_patches, overlap_index, reconstruct
from specdrive.weights import generate_weights

RNG = np.random.default_rng(20230711)


def report(num: int, text: str):
    print(f"ACCEPTANCE {num:02d} PASS  {text}")


def test_01_unet_parameter_reproduction():
    t0 = time.perf_counter()
    rep = count_params(build_unet(UNetConfig(patch_size=128, encoder_depth=2,
                                             initial_filters=8, in_channels=25,
                                             classes=3)))
    elapsed = time.perf_counter() - t0
    assert rep.np_total == 31_707
    assert rep.non_trainable == 320
    assert elapsed < 1.0
    report(1, f"segmentation net parameters {rep.np_total} "
              f"({rep.non_trainable} non-trainable), {elapsed * 1e3:.1f} ms")


def test_02_mlp_parameter_count():
    rep = count_params(build_mlp(25, 3))
    assert rep.np_total == 13_653
    report(2, f"spectral MLP parameters {rep.np_total}")


def test_03_flop_accounting():
    rep = count_flops(build_unet(UNetConfig()), patches_per_image=18)
    target = 259.9e6
    deviation = abs(rep.flops_per_patch - target) / target
    assert deviation <= 0.15
    assert rep.flops_per_image == 18 * rep.flops_per_patch
    report(3, f"FLOPs/patch {rep.flops_per_patch:,} "
              f"({100 * deviation:.1f}% from 259.9M), per image = 18x exactly")


def test_04_tiling_geometry():
    t0 = time.perf_counter()
    grid = build_grid((216, 409), 128, 44, 57)
    assert grid.n_patches == 18
    assert len(grid.row_starts) == 3 and len(grid.col_starts) == 6
    assert grid.row_starts == (0, 44, 88)
    mirrored = tuple(sorted((409 - 128) - s for s in grid.col_starts))
    assert mirrored == grid.col_starts
    oi = overlap_index(grid)
    assert oi.min() >= 1
    brute = np.zeros((216, 409), np.int64)
    for r, c in grid.origins():
        brute[r : r + 128, c : c + 128] += 1
    assert np.array_equal(oi, brute)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(4, f"grid 3x6=18 patches, rows {grid.row_starts}, "
              f"cols {grid.col_starts}, overlap 1..{oi.max()}, "
              f"brute-force equal, {elapsed * 1e3:.1f} ms")


def test_05_demosaicing_roundtrip_100_scenes():
    t0 = time.perf_counter()
    worst_interior = worst_border = 0.0
    n_scenes = 100
    for seed in range(n_scenes):
        scene = synth_scene(SceneSpec(kind="gradient", seed=seed))
        res = preprocess_pipeline(scene.raw, scene.dark, scene.white, scene.layout)
        err = np.abs(res.cube.astype(np.float64) - scene.gt_cube)
        interior = interior_mask(scene.gt_cube.shape[:2])
        worst_interior = max(worst_interior, float(err[interior].max()))
        worst_border = max(worst_border, float(err[~interior].max()))
        assert worst_interior <= 1e-5
        assert worst_border <= 5e-3
        if seed % 10 == 0:
            for threads in (2, 4, 8):
                again = preprocess_pipeline(scene.raw, scene.dark, scene.white,
                                            scene.layout, threads=threads)
                assert np.array_equal(res.cube, again.cube)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(5, f"{n_scenes} scenes: interior {worst_interior:.2e} (<=1e-5), "
              f"border {worst_border:.2e} (<=5e-3), threads 1/2/4/8 bitwise, "
              f"{elapsed:.1f} s")


def test_06_kernel_oracle_equivalence():
    worst = 0.0
    for trial in range(50):
        h, w = RNG.integers(3, 9, 2)
        cin, cout = RNG.integers(1, 6, 2)
        x = RNG.normal(0, 1, (h, w, cin)).astype(np.float32)
        wt = RNG.normal(0, 0.6, (3, 3, cin, cout)).astype(np.float32)
        b = RNG.normal(0, 0.2, cout).astype(np.float32)
        worst = max(worst, float(np.abs(conv2d(x, wt, b) - conv2d_naive(x, wt, b)).max()))

        wu = RNG.normal(0, 0.6, (2, 2, cin, cout)).astype(np.float32)
        worst = max(worst, float(np.abs(upconv2(x, wu, b) - upconv2_naive(x, wu, b)).max()))

        xe = RNG.normal(0, 1, (2 * h, 2 * w, cin)).astype(np.float32)
        worst = max(worst, float(np.abs(maxpool2(xe) - maxpool2_naive(xe)).max()))

        nin, nout = RNG.integers(1, 20, 2)
        xd = RNG.normal(0, 1, (int(RNG.integers(1, 30)), nin)).astype(np.float32)
        wd = RNG.normal(0, 0.6, (nin, nout)).astype(np.float32)
        bd = RNG.normal(0, 0.2, nout).astype(np.float32)
        worst = max(worst, float(np.abs(dense(xd, wd, bd) - dense_naive(xd, wd, bd)).max()))
    assert worst <= 1e-5
    report(6, f"conv3/upconv2/maxpool2/dense vs naive reference, 50 instances "
              f"each, max |diff| {worst:.2e} (<=1e-5)")


def test_07_quantization_bounds():
    # (a) weight round-trip for every tensor of the reference net
    g = build_unet(UNetConfig())
    w = generate_weights(g, 77)
    for name, tensor in w.items():
        if name.endswith((".weight", ".bias")):
            s = QuantScheme.symmetric_for(tensor)
            back = s.dequant(s.quant(tensor))
            assert np.abs(back - tensor).max() <= s.scale / 2 + 1e-12

    # (b) quantized vs float outputs across random single layers
    worst_lsb = 0.0
    n_layers = 100
    for trial in range(n_layers):
        kind = ("conv3", "conv1", "upconv2", "dense")[trial % 4]
        cin, cout = int(RNG.integers(1, 6)), int(RNG.integers(1, 6))
        kernel = {"conv3": 3, "conv1": 1, "upconv2": 2, "dense": 0}[kind]
        layer = LayerSpec("L", kind, ("input",), cin, cout, kernel=kernel)
        graph = ModelGraph([layer], meta={"kind": "custom", "config": {}})
        weights = generate_weights(graph, trial)
        shape = (5, cin) if kind == "dense" else (6, 6, cin)
        calib = [RNG.normal(0, 1, shape).astype(np.float32) for _ in range(3)]
        qg = quantize_model(graph, weights, calib)
        yq = qforward(qg, calib[0])
        yf = forward(graph, calib[0], weights)
        s_out = qg.schemes["L"].scale
        mean_err = float(np.abs(yq - yf).mean())
        assert mean_err <= 2 * s_out
        worst_lsb = max(worst_lsb, mean_err / s_out)

    # (c) payload accounting on the reference net
    calib = [RNG.uniform(0, 1, (128, 128, 25)).astype(np.float32)]
    qg = quantize_model(g, w, calib)
    rep = quant_report(g, w, qg, calib)
    assert rep.size.float_bytes == 4 * 31_707
    assert rep.size.ratio <= 0.30

    # (d) end-to-end argmax agreement through preprocessing on class scenes
    agree_total = pixels_total = 0
    for seed in (5, 6):
        scene = synth_scene(SceneSpec(kind="classes", num_classes=3, seed=seed))
        cube = preprocess_pipeline(scene.raw, scene.dark, scene.white,
                                   scene.layout).cube
        mg, mw = separating_mlp_weights(scene.signatures)
        flat = cube.reshape(-1, 25)
        calib_px = [flat[:: max(1, flat.shape[0] // 2048)].copy()]
        qmg = quantize_model(mg, mw, calib_px)
        f_lab = forward(mg, cube, mw).argmax(-1)
        q_lab = qforward(qmg, cube).argmax(-1)
        agree_total += int((f_lab == q_lab).sum())
        pixels_total += f_lab.size
    agreement = agree_total / pixels_total
    assert agreement >= 0.95
    report(7, f"weight round-trip <= scale/2; {n_layers} random layers mean "
              f"error <= 2 LSB (worst {worst_lsb:.2f}); payload ratio "
              f"{rep.size.ratio:.3f} (<=0.30); argmax agreement "
              f"{100 * agreement:.2f}% (>=95%)")


def test_08_metrics_correctness():
    diag = compute_metrics(ConfusionMatrix(np.diag([7, 3, 11]).astype(np.int64)))
    assert diag.overall == (1.0, 1.0, 1.0)
    assert np.allclose(diag.recall, 1) and np.allclose(diag.precision, 1)
    assert np.allclose(diag.iou, 1)

    cm = accumulate(np.array([0, 0, 1, 1]), np.array([0, 1, 1, 1]), 2)
    assert np.array_equal(cm.counts, [[1, 1], [0, 2]])
    rep = compute_metrics(cm)
    assert rep.recall[0] == 0.5 and rep.precision[0] == 1.0 and rep.iou[0] == 0.5
    assert rep.recall[1] == 1.0
    assert rep.precision[1] == pytest.approx(2 / 3, abs=1e-15)
    assert rep.iou[1] == pytest.approx(2 / 3, abs=1e-15)

    freqs = np.array([0.5956, 0.0338, 0.3706])
    inv = [Fraction(1) / Fraction("0.5956"), Fraction(1) / Fraction("0.0338"),
           Fraction(1) / Fraction("0.3706")]
    total = sum(inv)
    expected = np.array([float(v / total) for v in inv])
    got = inverse_frequency_weights(freqs)
    assert np.abs(got - expected).max() <= 1e-12
    counts = np.array([[500, 30, 20], [10, 100, 10], [40, 20, 400]], np.int64)
    wrep = compute_metrics(ConfusionMatrix(counts), frequencies=freqs)
    for agg, metric in zip(wrep.weighted, (wrep.recall, wrep.precision, wrep.iou)):
        assert abs(agg - float((expected * metric).sum())) <= 1e-12
    report(8, "toy confusion matrices exact; diagonal scores 1.0; "
              "inverse-frequency weights match exact-arithmetic formula to 1e-12")


def _gauss(mean, cov):
    """The statistics of two samples with this mean and covariance."""
    return ClassStats(2, np.asarray(mean, np.float64), np.asarray(cov, np.float64))


def test_09_jm_properties():
    same = _gauss([0.2, 0.4], [[1.0, 0.1], [0.1, 0.5]])
    assert jm_distance(same, same) == pytest.approx(0.0, abs=1e-12)

    a = _gauss([0.0], [[1.0]])
    b = _gauss([2.0], [[1.0]])
    expected = 2 * (1 - np.exp(-0.5))
    assert abs(jm_distance(a, b) - expected) <= 1e-9

    sweep = [
        jm_distance(a, _gauss([d], [[1.0]]))
        for d in np.linspace(0.0, 8.0, 20)
    ]
    assert all(later >= earlier - 1e-12 for earlier, later in zip(sweep, sweep[1:]))
    assert sweep[0] == pytest.approx(0.0, abs=1e-12)
    report(9, f"identical classes 0; unit-variance means 0 vs 2 -> "
              f"{expected:.9f} within 1e-9; 20-point sweep monotone")


def test_10_end_to_end_constructive_segmentation():
    t0 = time.perf_counter()
    scene = synth_scene(SceneSpec(kind="classes", num_classes=3, seed=11))
    cube = preprocess_pipeline(scene.raw, scene.dark, scene.white, scene.layout).cube
    graph, weights = separating_mlp_weights(scene.signatures)
    grid = build_grid(cube.shape[:2], 128, 44, 57)
    patches = extract_patches(cube, grid)
    probs = [forward(graph, p, weights) for p in patches]
    _, labels = reconstruct(probs, grid)
    cm = accumulate(scene.labels, labels, 3)
    rep = compute_metrics(cm)
    assert rep.overall[2] == 1.0
    assert np.allclose(rep.iou, 1.0)
    assert rep.mean == (1.0, 1.0, 1.0) and rep.weighted == (1.0, 1.0, 1.0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(10, f"hand-built classifier through preprocess/tile/infer/rebuild: "
               f"interior IoU 1.0 on all classes, {elapsed:.1f} s")


def test_11_desk_scale_statement_and_determinism_gate():
    scene = synth_scene(SceneSpec(kind="classes", num_classes=2, seed=12))
    cfg = BenchConfig(iterations=1, warmup=0, threads=(1, 2, 4), vectorized=(True,))
    gate = bench_preprocess(cfg, scene.raw, scene.dark, scene.white, scene.layout)
    assert gate.determinism == "bitwise"
    print(
        "ACCEPTANCE 11 NOTE  dataset accuracy tables and absolute device "
        "latency/power figures require the original recordings, trained "
        "weights and specific hardware; they are not reproducible at desk "
        "scale. Stand-ins: synthetic-scene oracles (criteria 5-7, 10) and "
        "the benchmark determinism gate, which just verified bitwise-equal "
        "cubes across worker configurations before timing."
    )
    report(11, "determinism gate bitwise across 3 worker configurations")

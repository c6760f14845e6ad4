"""Tests of the frame benchmark itself, on tiny 40x60-mosaic frames.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from specdrive import cli, formats  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _run_command(workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3", "--seconds", "0.5",
                             "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        wl = workloads.WORKLOADS[w["name"]]
        assert w["why"] == wl.why and f"tail=p{wl.tail_pct}" in w["why"]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(spans.PER_LAYER)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_appears_with_its_unit(workload, trace):
    proc = _run_command(workload, trace)
    assert proc.returncode == 0, proc.stderr
    res = _result(proc.stdout)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 2
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], float) for v in res["metrics"].values())
    for m in expected:  # every metric is also printed by name and unit
        assert any(line.startswith(f"{m['name']} ") and f" {m['unit']}" in line
                   for line in proc.stdout.splitlines())
    if trace:
        assert "(missing)" not in proc.stdout
    else:
        assert "fail_ratio 0 ratio" in proc.stdout


def test_mlp_trace_runs_integer_dense_and_covers_the_frame():
    res = _result(_run_command("segment-mlp-int8", 1).stdout)["metrics"]
    assert res["tiling.evals_per_pixel"]["value"] > 1.0
    assert res["kernels.dense_int_ms"]["value"] > 0
    assert res["kernels.conv2d_ms"]["value"] == 0
    assert 0.5 < res["trace.coverage"]["value"] <= 1.0


def _tiny_main(capsys, workload: str) -> dict:
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "0.3",
                     "--trace", "0", "--tiny"]) == 0
    return _result(capsys.readouterr().out)


def test_flipped_mask_label_counts_as_failed(monkeypatch, capsys):
    real = cli.main

    def flip_last_label(argv):
        rc = real(argv)
        if argv[0] == "segment":
            mask = Path(argv[argv.index("--out") + 1])
            data = bytearray(mask.read_bytes())
            data[-1] ^= 1
            mask.write_bytes(bytes(data))
        return rc

    monkeypatch.setattr(cli, "main", flip_last_label)
    res = _tiny_main(capsys, "segment-unet-float")
    assert res["correct"] is False and res["failed"] == res["attempted"] > 0


def test_perturbed_cube_value_counts_as_failed(monkeypatch, capsys):
    real = cli.main

    def perturb_interior(argv):
        rc = real(argv)
        if argv[0] == "preprocess":
            path = argv[argv.index("--out") + 1]
            cube = formats.load_cube(path)
            cube[5, 5, 0] += 1e-3
            formats.save_cube(path, cube)
        return rc

    monkeypatch.setattr(cli, "main", perturb_interior)
    res = _tiny_main(capsys, "preprocess")
    assert res["correct"] is False and res["failed"] == res["attempted"] > 0


def test_checks_reject_single_corruptions(tmp_path):
    mask = np.arange(12, dtype=np.uint8).reshape(3, 4) % 3
    workloads.write_pgm(tmp_path / "m.pgm", mask)
    assert workloads.check_mask(tmp_path / "m.pgm", mask, None) is None
    labels = mask.copy()
    labels[0, 0] = 2
    assert "IoU" in workloads.check_mask(tmp_path / "m.pgm", mask, labels)
    flipped = mask.copy()
    flipped[2, 3] ^= 1
    workloads.write_pgm(tmp_path / "f.pgm", flipped)
    assert "differs" in workloads.check_mask(tmp_path / "f.pgm", mask, None)

    gt = np.full((6, 7, 25), 0.5, np.float32)
    for where, delta, ok in (((3, 3, 1), 5e-6, True), ((3, 3, 1), 2e-5, False),
                             ((0, 2, 4), 4e-3, True), ((0, 2, 4), 6e-3, False)):
        cube = gt.copy()
        cube[where] += delta
        formats.save_cube(tmp_path / "c.hsc", cube)
        assert (workloads.check_cube(tmp_path / "c.hsc", gt) is None) == ok
    cube = gt.copy()
    cube[3, 3, 0] = np.nan
    formats.save_cube(tmp_path / "c.hsc", cube)
    assert workloads.check_cube(tmp_path / "c.hsc", gt) is not None


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    from types import SimpleNamespace

    from specdrive import model, mosaic, quant, synth, tiling, weights
    mods = SimpleNamespace(model=model, mosaic=mosaic, quant=quant, synth=synth,
                           tiling=tiling, weights=weights)
    wl = workloads.WORKLOADS["segment-unet-int8"]
    layout = workloads.frame_layout(mods, tiny=True)
    a = workloads.build(mods, wl, 7, layout, tmp_path / "a")
    b = workloads.build(mods, wl, 7, layout, tmp_path / "b")
    c = workloads.build(mods, wl, 8, layout, tmp_path / "c")
    for x, y in zip(a.scenes, b.scenes):
        assert Path(x.raw).read_bytes() == Path(y.raw).read_bytes()
    assert Path(a.model_path).read_bytes() == Path(b.model_path).read_bytes()
    assert Path(a.scenes[0].raw).read_bytes() != Path(c.scenes[0].raw).read_bytes()
    assert Path(a.model_path).read_bytes() != Path(c.model_path).read_bytes()


def test_directory_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for d in SPEC["paths"]:
        shutil.copytree(ROOT / d, tmp_path / d,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "preprocess", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

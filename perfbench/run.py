#!/usr/bin/env python3
"""Frame benchmark: 1088x2048 raw frames to label masks through the CLI.

Run from the repository root:

    python3 perfbench/run.py --workload segment-unet-int8 --seed 1 \
        --seconds 20 --trace 0

Each run builds its inputs from the seed (scenes written as raw frames,
seeded weights, calibration and quantization), then drives frames in a
closed loop with one client: `specdrive preprocess` and, on the segment-*
workloads, `specdrive segment`, both called in-process through
`specdrive.cli.main`. The next frame starts only after the previous frame's
last output file is written. Every output is checked against a library
reference; a frame that exits non-zero or fails its check counts as failed.

`--trace 0` prints the end-to-end metrics. `--trace 1` alternates traced
and untraced frames and prints the per-layer metrics, from spans recorded
around the calls into each layer (see spans.py); the spans are also written
as JSON lines under .perfbench_work/. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.

BLAS and OpenMP pools are pinned to one thread before numpy is imported,
so `--threads 2` on segment means at most two compute threads.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # imports count towards setup_s

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("preprocess", "segment-unet-float", "segment-unet-int8",
                  "segment-mlp-int8")
END_TO_END = (("frame_ms_p50", "ms"), ("frame_ms_tail", "ms"), ("frames_per_s", "1/s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"), ("int8_label_agreement", "ratio"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="40x60-mosaic frames instead of 1088x2048 (for tests)")
    return p.parse_args(argv)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(np, wl, args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__, "blas": blas, "commit": _git_commit(),
        "threads": {**{k: os.environ.get(k) for k in PINNED},
                    "preprocess --threads": 1,
                    "segment --threads": wl.threads if wl.model else None},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "specdrive" / "__init__.py").is_file():
        print(f"perfbench: no specdrive sources under {src}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from specdrive import (cli, complexity, formats, kernels, model, mosaic, quant,
                           synth, tiling, weights)

    import_s = time.perf_counter() - T_START
    mods = SimpleNamespace(cli=cli, complexity=complexity, formats=formats,
                           kernels=kernels, model=model, mosaic=mosaic, quant=quant,
                           synth=synth, tiling=tiling, weights=weights)
    run_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        return _run(args, mods, run_dir, import_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, mods, run_dir: Path, import_s: float) -> int:
    import numpy as np
    import spans as S
    import workloads as W

    wl = W.WORKLOADS[args.workload]
    layout = W.frame_layout(mods, args.tiny)
    tracer = S.Tracer() if args.trace else None

    def tracing(on: bool):
        return tracer.installed(mods) if on else nullcontext([])

    # set-up, repeated; the last one's inputs are used
    setup_s, quantize_ms, setup_groups = [], [], []
    for rep in range(SETUP_REPEATS):
        shutil.rmtree(run_dir, ignore_errors=True)
        t0 = time.perf_counter()
        with tracing(tracer is not None):
            setup = W.build(mods, wl, args.seed, layout, run_dir / "inputs")
            out = W.Outputs.under(run_dir / "out")
            warm_rc = W.run_frame(mods, W.frame_argv(wl, setup.scenes[0], out,
                                                     setup.model_path))
        setup_s.append(time.perf_counter() - t0)
        if tracer is not None:
            spans, _ = tracer.take()
            quantize_ms.append(1e3 * sum(sp.seconds for sp in spans
                                         if sp.name == "quant.quantize_model"))
            setup_groups.append((f"setup{rep}", spans))
    ref = W.build_reference(mods, wl, setup)
    hw = layout.cube_shape[:2]
    macs = W.macs_per_frame(mods, wl, setup, hw)

    # closed loop, one client
    walls, traced_ms, untraced_ms, rows, frame_groups, problems = [], [], [], [], [], []
    missing: list[str] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        i = len(walls)
        scene = setup.scenes[i % len(setup.scenes)]
        steps = W.frame_argv(wl, scene, out, setup.model_path)
        is_traced = tracer is not None and i % 2 == 1
        out.clear()
        with tracing(is_traced) as miss:
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                rc = W.run_frame(mods, steps)
            except Exception:  # the loop must go on and count the frame
                traceback.print_exc()
                rc = -1
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        walls.append(wall)
        problem = f"exit code {rc}" if rc else W.check_frame(
            wl, out, ref.expected[i % len(setup.scenes)], scene)
        if problem:
            problems.append(f"frame {i}: {problem}")
        if tracer is not None:
            (traced_ms if is_traced else untraced_ms).append(1e3 * wall)
        if is_traced:
            missing = miss
            spans, counts = tracer.take()
            row = S.summarize_frame(spans, counts, wall, cpu, wl.threads, macs,
                                    hw[0] * hw[1])
            row["formats.bytes_read"], row["formats.bytes_written"] = (
                W.frame_bytes(wl, scene, out, setup.model_path) if not problem else (0, 0))
            rows.append(row)
            frame_groups.append((f"frame{i}", spans))
        if time.perf_counter() >= deadline and (tracer is None or len(walls) >= 2):
            break

    attempted, failed = len(walls), len(problems)
    correct = failed == 0 and ref.naive_ok and warm_rc == 0
    frame = setup.scenes[0].data.raw.shape
    print(f"workload {wl.name}: {attempted} frames of {frame[0]}x{frame[1]} in a "
          f"closed loop, one client"
          + (f", segment --threads {wl.threads}" if wl.model else ""))
    print("provenance " + json.dumps(provenance(np, wl, args)))
    print(f"check: {ref.naive_detail or 'cubes against the round-trip oracle'}; "
          f"warm-up exit code {warm_rc}")
    for p in problems[:5]:
        print(f"FAILED {p}", file=sys.stderr)
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} failed)")

    if tracer is None:
        times = np.array(walls) * 1e3
        values = {
            "frame_ms_p50": float(np.median(times)),
            "frame_ms_tail": float(np.percentile(times, wl.tail_pct)),
            "frames_per_s": attempted / float(np.sum(walls)),
            "setup_s": import_s + statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "int8_label_agreement": ref.agreement,
        }
        units = dict(END_TO_END)
        notes = {"frame_ms_tail": f"(p{wl.tail_pct})",
                 "int8_label_agreement": "" if wl.int8 else "(no int8 model: 1 by definition)"}
    else:
        values = S.median_by_key(rows) if rows else {}
        values["quant.quantize_model_ms"] = statistics.median(quantize_ms)
        values["trace.overhead"] = statistics.median(traced_ms) / statistics.median(untraced_ms)
        units = dict(S.PER_LAYER)
        gone = {f"{name}_ms" for name in missing}
        notes = {k: "(computed)" for k in S.COMPUTED}
        notes.update({k: "(missing)" for k in units if k in gone})
        WORK.mkdir(exist_ok=True)
        path = WORK / f"spans-{wl.name}-seed{args.seed}.jsonl"
        S.write_jsonl(path, setup_groups + frame_groups)
        print(f"spans written to {path.relative_to(ROOT)} "
              f"({len(rows)} traced, {len(untraced_ms)} untraced frames)")
    metrics = {}
    for name, unit in units.items():
        value = float(values.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} {value:.6g} {unit} {notes.get(name, '')}".rstrip())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    os.environ.update(PINNED)  # before numpy is imported
    sys.exit(main())

"""Latency characterization for preprocessing and inference.

Every enabled configuration (vectorization x worker threads) first has its
output checked against the reference configuration; disagreement raises
NonDeterministicOutput and no timing is reported. Thread-count variations
must match bitwise. Swapping the vectorized kernels for the naive reference
kernels is float-reassociation territory for the inference path, so there
the gate requires elementwise agreement within 1e-5 plus identical argmax
(the preprocessing stages are written to a canonical operation order and
must stay bitwise across both toggles).

Timed regions exclude file I/O. The timing loop itself is single threaded;
parallelism lives inside the benchmarked stages.
"""

from __future__ import annotations

import io
import json
import time
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import cli
from .errors import (Field, InvalidOption, NonDeterministicOutput, construct, fields,
                     json_field, json_spec, value)
from .mosaic import STAGE_NAMES, STAGE_TOTAL, MosaicLayout, preprocess_pipeline
from .model import ModelGraph
from .quant import QuantizedGraph
from .tiling import THREADS, PatchGrid, reconstruct

STAGE_INFER = "Inference"
STAGE_REBUILD = "Reconstruction"


@dataclass(frozen=True)
class BenchConfig:
    iterations: int = json_field(1000, int, 1, 10**6)
    warmup: int = json_field(10, int, 0, 10**6)
    threads: tuple[int, ...] = json_field((1,), [int], THREADS.lo, THREADS.hi)
    vectorized: tuple[bool, ...] = json_field((True,), [bool])
    watts: float | None = json_field(None, float, 0)

    def __post_init__(self):
        fields(vars(self), json_spec(BenchConfig), "bench config")
        if not self.threads or not self.vectorized:
            raise InvalidOption("need at least one thread count and one kernel mode")


def read_config(d, name: str, inputs: dict[str, Field] | None = None):
    """(BenchConfig, the inputs' fields) read from the JSON object d, whose
    keys are BenchConfig's and inputs' (a target's input files and numbers);
    threads and vectorized may each be one value or a list of them."""
    if isinstance(d, dict):
        d = {k: [v] if k in ("threads", "vectorized") and not isinstance(v, list) else v
             for k, v in d.items()}
    config = json_spec(BenchConfig)
    got = fields(d, {**config, **(inputs or {})}, name)
    return construct(BenchConfig, {k: got.pop(k) for k in config}, name), got


@dataclass
class StageStats:
    mean_ms: float
    median_ms: float
    p95_ms: float
    std_ms: float
    samples: int

    @classmethod
    def from_samples(cls, samples_ms: list[float]) -> "StageStats":
        a = np.asarray(samples_ms, np.float64)
        return cls(
            mean_ms=float(a.mean()),
            median_ms=float(np.median(a)),
            p95_ms=float(np.percentile(a, 95)),
            std_ms=float(a.std(ddof=1)) if a.size > 1 else 0.0,
            samples=int(a.size),
        )


@dataclass
class ConfigResult:
    vectorized: bool
    threads: int
    stages: dict[str, StageStats]
    total_mean_ms: float
    fps: float
    joules: float | None = None


@dataclass
class BenchReport:
    results: list[ConfigResult]
    speedup: dict[str, float] = field(default_factory=dict)
    determinism: str = "bitwise"
    pipeline_fps: float | None = None
    config: BenchConfig | None = None

    def best(self) -> ConfigResult:
        return min(self.results, key=lambda r: r.total_mean_ms)


def _config_key(vectorized: bool, threads: int) -> str:
    return f"vector={'on' if vectorized else 'off'},threads={threads}"


def _measure(cfg: BenchConfig, run, agree) -> BenchReport:
    """Gate every configuration against the first one, then time each.

    run(vectorized, threads) returns (output, {stage: ms}). agree(ref, out,
    same_mode) says whether out may stand for the first configuration's
    output; same_mode is whether both ran the same kernel mode. A single
    configuration has nothing to be gated against, so it runs warmup +
    iterations times and no more.
    """
    combos = [(v, t) for v in cfg.vectorized for t in cfg.threads]
    if len(combos) > 1:
        ref = run(*combos[0])[0]
        for v, t in combos[1:]:
            if not agree(ref, run(v, t)[0], v == combos[0][0]):
                raise NonDeterministicOutput(
                    f"configuration {_config_key(v, t)} disagrees with "
                    f"{_config_key(*combos[0])}"
                )

    results = []
    for v, t in combos:
        for _ in range(cfg.warmup):
            run(v, t)
        samples = [run(v, t)[1] for _ in range(cfg.iterations)]
        stages = {
            name: StageStats.from_samples([s[name] for s in samples])
            for name in samples[0]
        }
        total = sum(s.mean_ms for s in stages.values())
        results.append(
            ConfigResult(
                vectorized=v, threads=t, stages=stages, total_mean_ms=total,
                fps=1000.0 / total if total > 0 else float("inf"),
                joules=cfg.watts * total / 1000.0 if cfg.watts else None,
            )
        )
    # prefer the unoptimized corner as speedup baseline
    corner = [r for r in results if not r.vectorized and r.threads == 1]
    baseline = corner[-1] if corner else max(results, key=lambda r: r.total_mean_ms)
    speedup = {
        _config_key(r.vectorized, r.threads): baseline.total_mean_ms / r.total_mean_ms
        for r in results
    }
    return BenchReport(results=results, speedup=speedup, config=cfg)


def bench_preprocess(
    cfg: BenchConfig,
    frame: np.ndarray,
    dark: np.ndarray,
    white: np.ndarray,
    layout: MosaicLayout | None = None,
) -> BenchReport:
    """Time the four-stage pipeline under every enabled configuration.

    All configurations must produce bitwise-identical cubes; that is checked
    before any timing is kept.
    """
    def run(v, t):
        res = preprocess_pipeline(frame, dark, white, layout, threads=t, vectorized=v)
        return res.planes, {name: res.timings_ms[name] for name in STAGE_NAMES}

    return _measure(cfg, run, lambda ref, planes, same_mode: np.array_equal(ref, planes))


def bench_inference(
    cfg: BenchConfig,
    model: ModelGraph | QuantizedGraph,
    cube: np.ndarray,
    grid: PatchGrid,
    weights: dict | None = None,
    preprocess_ms: float | None = None,
) -> BenchReport:
    """Per-image latency of segment's path: cli.infer_cube over the cube
    (the input prefix once, then the model body on every patch of the grid)
    as Inference, plus probability-map reconstruction. With preprocess_ms,
    also reports the two-stage pipeline throughput 1 / max(stage means)."""
    value(preprocess_ms, Field(float, 0, default=None), "preprocess_ms")

    def run(v, t):
        t0 = time.perf_counter()
        probs = cli.infer_cube(model, cube, grid, weights=weights, threads=t, naive=not v)
        t1 = time.perf_counter()
        out = reconstruct(probs, grid)
        t2 = time.perf_counter()
        return out, {STAGE_INFER: (t1 - t0) * 1e3, STAGE_REBUILD: (t2 - t1) * 1e3}

    def agree(ref, out, same_mode):
        close = np.array_equal if same_mode else partial(np.allclose, atol=1e-5)
        return close(ref[0], out[0]) and np.array_equal(ref[1], out[1])

    report = _measure(cfg, run, agree)
    if len(set(cfg.vectorized)) > 1:
        report.determinism = "bitwise across threads; <=1e-5 across kernel modes"
    if preprocess_ms is not None:
        slowest = max(preprocess_ms, report.best().total_mean_ms)
        report.pipeline_fps = 1000.0 / slowest if slowest > 0 else float("inf")
    return report


def report_csv(report: BenchReport) -> str:
    buf = io.StringIO()
    buf.write("vectorized,threads,stage,mean_ms,median_ms,p95_ms,std_ms,samples\n")
    for r in report.results:
        for name, s in r.stages.items():
            buf.write(
                f"{int(r.vectorized)},{r.threads},{name},{s.mean_ms:.4f},"
                f"{s.median_ms:.4f},{s.p95_ms:.4f},{s.std_ms:.4f},{s.samples}\n"
            )
        buf.write(
            f"{int(r.vectorized)},{r.threads},{STAGE_TOTAL},{r.total_mean_ms:.4f},"
            f",,,{next(iter(r.stages.values())).samples}\n"
        )
    return buf.getvalue()


def report_json(report: BenchReport) -> str:
    return json.dumps(asdict(report), indent=2)


def report_table(report: BenchReport) -> str:
    """Human-readable summary table."""
    lines = []
    for r in report.results:
        lines.append(f"[{_config_key(r.vectorized, r.threads)}]")
        for name, s in r.stages.items():
            lines.append(f"  {name:<24} {s.mean_ms:10.3f} ms  (p95 {s.p95_ms:.3f})")
        lines.append(f"  {STAGE_TOTAL:<24} {r.total_mean_ms:10.3f} ms  ({r.fps:.2f} FPS)")
        if r.joules is not None:
            lines.append(f"  {'Energy':<24} {r.joules:10.3f} J")
    lines.append(f"determinism gate: {report.determinism}")
    for key, s in report.speedup.items():
        lines.append(f"speedup {key}: {s:.2f}x")
    if report.pipeline_fps is not None:
        lines.append(f"two-stage pipeline: {report.pipeline_fps:.2f} FPS")
    return "\n".join(lines)

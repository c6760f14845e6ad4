"""Span recorder that wraps specdrive's public functions from outside.

The benchmark records spans around the calls into each layer without
changing the program: it swaps a module attribute (or a kernel-table entry)
for a timing wrapper while a traced frame runs and puts the original back
afterwards. This works because the program looks these names up at call
time: `cli` calls its imported layer functions through its own globals,
`model.forward` reads `kernels.FAST_KERNELS`, and `qforward`/`quant` reach
`kernels.*` and `round_half_away` as module attributes. A target that a
later refactor removes is reported as missing, not as an error.

Spans stay in memory and are written out as JSON lines when the run ends.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

# the paper's preprocessing stage names, as keys of PreprocessResult.timings_ms
MOSAIC_STAGES = {
    "mosaic.crop_ms": "Image cropping",
    "mosaic.reflectance_ms": "Reflectance correction",
    "mosaic.extract_ms": "Band extraction",
    "mosaic.translate_ms": "Translation to center",
}
MODEL_SPANS = ("model.forward", "quant.qforward")

_KERNELS = ("conv2d", "upconv2", "maxpool2", "batchnorm_infer", "relu", "softmax",
            "band_norm", "dense")
# every per-layer metric the traced run reports, with its unit
PER_LAYER = (
    [("mosaic.preprocess_ms", "ms")]
    + [(m, "ms") for m in MOSAIC_STAGES]
    + [("mosaic.degenerate_pixels", "count")]
    + [(f"formats.{n}_ms", "ms") for n in ("load_raw", "load_layout", "save_cube",
                                           "load_cube", "save_mask", "load_mask")]
    + [("formats.bytes_read", "bytes"), ("formats.bytes_written", "bytes"),
       ("weights.load_ms", "ms"), ("quant.load_ms", "ms"),
       ("tiling.extract_ms", "ms"), ("tiling.reconstruct_ms", "ms"),
       ("tiling.evals_per_pixel", "ratio"),
       ("model.forward_ms", "ms"), ("model.forward_self_ms", "ms")]
    + [(f"kernels.{k}_ms", "ms") for k in _KERNELS]
    + [("model.macs_per_frame", "count"), ("model.gmac_per_s", "GMAC/s"),
       ("quant.qforward_ms", "ms"), ("quant.qforward_self_ms", "ms"),
       ("quant.round_half_away_ms", "ms")]
    + [(f"kernels.{k}_ms", "ms") for k in ("conv2d_int", "upconv2_int", "dense_int")]
    + [("quant.quantize_model_ms", "ms"), ("metrics.score_ms", "ms"),
       ("cli.self_ms", "ms"), ("process.cpu_ms_per_frame", "ms"),
       ("process.worker_busy_ratio", "ratio"), ("trace.coverage", "ratio"),
       ("trace.overhead", "ratio")]
)
# counts the benchmark computes rather than measures; they repeat exactly
COMPUTED = ("formats.bytes_read", "formats.bytes_written", "model.macs_per_frame",
            "tiling.evals_per_pixel")


def _pixels(x) -> int:
    shape = getattr(x, "shape", ())
    return int(x.size // shape[-1]) if len(shape) >= 2 else 0


def _after_preprocess(tracer: "Tracer", args, result) -> None:
    timings = getattr(result, "timings_ms", {})
    for metric, stage in MOSAIC_STAGES.items():
        if stage in timings:
            tracer.add_count(metric, timings[stage])
    tracer.add_count("mosaic.degenerate_pixels",
                     getattr(result, "degenerate_pixels", 0))


def _after_model(tracer: "Tracer", args, result) -> None:
    # pixels handed to the model; divided by mask pixels gives evals/pixel
    tracer.add_count("model.pixels_evaluated", _pixels(args[1]))


def targets(mods) -> list[tuple[object, str, str, object]]:
    """(owner, attribute or key, span name, result hook) for every call
    site the benchmark times. Owners are modules or the kernel table."""
    cli, formats, kernels, quant = mods.cli, mods.formats, mods.kernels, mods.quant
    out = [
        (cli, "preprocess_pipeline", "mosaic.preprocess", _after_preprocess),
        (cli, "load_weights", "weights.load", None),
        (cli, "load_qgraph", "quant.load", None),
        (cli, "extract_patches", "tiling.extract", None),
        (cli, "reconstruct", "tiling.reconstruct", None),
        (cli, "forward", "model.forward", _after_model),
        (cli, "qforward", "quant.qforward", _after_model),
        (cli, "accumulate", "metrics.accumulate", None),
        (cli, "compute_metrics", "metrics.compute", None),
        (cli, "report_csv", "metrics.report_csv", None),
        (quant, "quantize_model", "quant.quantize_model", None),
        (quant, "round_half_away", "quant.round_half_away", None),
    ]
    for name in ("load_raw", "load_layout", "save_cube", "load_cube",
                 "save_mask", "load_mask", "load_grid"):
        out.append((formats, name, f"formats.{name}", None))
    table = getattr(kernels, "FAST_KERNELS", {})
    for name in ("conv2d", "upconv2", "maxpool2", "dense"):
        out.append((table, name, f"kernels.{name}", None))
    for name in ("maxpool2", "batchnorm_infer", "relu", "softmax", "band_norm",
                 "zscore", "conv2d_int", "upconv2_int", "dense_int", "relu_int"):
        out.append((kernels, name, f"kernels.{name}", None))
    return out


def _get(owner, key):
    if isinstance(owner, dict):
        return owner.get(key)
    return getattr(owner, key, None)


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


@dataclass
class Span:
    span_id: int
    parent_id: int  # 0 for a top-level span of its thread
    name: str
    thread: int
    start: float
    end: float
    child_s: float  # time covered by direct children

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Collects spans and counts for one group (a frame or a setup) at a
    time. Wrapped functions may run on the CLI's worker threads, so the
    open-span stack is per thread and counts are updated under a lock."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    _ids: itertools.count = field(default_factory=lambda: itertools.count(1))
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def add_count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else None
            me = [next(tracer._ids), 0.0]
            stack.append(me)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += t1 - t0
                tracer.spans.append(Span(me[0], parent[0] if parent else 0, name,
                                         threading.get_ident(), t0, t1, me[1]))
            if hook is not None:
                hook(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, mods):
        """Wrap every target present; yield the span names whose target is
        missing. Originals are restored on exit."""
        saved, missing = [], []
        for owner, key, name, hook in targets(mods):
            fn = _get(owner, key)
            if fn is None:
                missing.append(name)
                continue
            saved.append((owner, key, fn))
            _set(owner, key, self.wrap(name, fn, hook))
        try:
            yield missing
        finally:
            for owner, key, fn in reversed(saved):
                _set(owner, key, fn)

    def take(self) -> tuple[list[Span], dict[str, float]]:
        """Hand over everything recorded since the last take."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], {}
        return spans, counts


def _union_seconds(intervals) -> float:
    total, end = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def summarize_frame(spans: list[Span], counts: dict[str, float], wall_s: float,
                    cpu_s: float, threads: int, macs: int,
                    mask_pixels: int) -> dict[str, float]:
    """Per-frame layer figures (ms unless the name says otherwise)."""
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for sp in spans:
        total[sp.name] = total.get(sp.name, 0.0) + sp.seconds
        self_s[sp.name] = self_s.get(sp.name, 0.0) + sp.seconds - sp.child_s
    top = [(sp.start, sp.end) for sp in spans if sp.parent_id == 0]
    covered = _union_seconds(top)
    model = [sp for sp in spans if sp.name in MODEL_SPANS and sp.parent_id == 0]
    model_busy = sum(sp.seconds for sp in model)
    extent = (max(sp.end for sp in model) - min(sp.start for sp in model)) if model else 0.0

    def ms(name):
        return 1e3 * total.get(name, 0.0)

    # by default an "<x>_ms" metric is the summed time of the spans named <x>
    out = {m: ms(m[:-3]) for m, _ in PER_LAYER if m.endswith("_ms")}
    out.update({m: counts.get(m, 0.0) for m in MOSAIC_STAGES})
    out["mosaic.degenerate_pixels"] = counts.get("mosaic.degenerate_pixels", 0)
    evaluated = counts.get("model.pixels_evaluated", 0)
    out["tiling.evals_per_pixel"] = evaluated / mask_pixels if mask_pixels else 0.0
    out["model.forward_self_ms"] = 1e3 * self_s.get("model.forward", 0.0)
    out["quant.qforward_self_ms"] = 1e3 * self_s.get("quant.qforward", 0.0)
    out["model.macs_per_frame"] = macs
    out["model.gmac_per_s"] = macs / model_busy / 1e9 if model_busy else 0.0
    out["metrics.score_ms"] = (ms("metrics.accumulate") + ms("metrics.compute")
                               + ms("metrics.report_csv"))
    out["cli.self_ms"] = 1e3 * (wall_s - covered)
    out["process.cpu_ms_per_frame"] = 1e3 * cpu_s
    out["process.worker_busy_ratio"] = (
        model_busy / (extent * threads) if extent else 0.0)
    out["trace.coverage"] = covered / wall_s
    return out


def median_by_key(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def write_jsonl(path, groups: list[tuple[str, list[Span]]]) -> None:
    """One line per span; spans of one frame share the `group` identifier."""
    with open(path, "w") as f:
        for group, spans in groups:
            for sp in spans:
                f.write(json.dumps({
                    "group": group, "id": sp.span_id, "parent": sp.parent_id,
                    "name": sp.name, "thread": sp.thread,
                    "start_s": sp.start, "end_s": sp.end,
                    "self_ms": 1e3 * (sp.seconds - sp.child_s),
                }) + "\n")

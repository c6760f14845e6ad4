"""Command-line surface.

Subcommands mirror the pipeline: synth, preprocess, segment, quantize,
bench, metrics, spectral, model-info. Each consumes and produces the
documented file formats and nothing hidden, so commands can be chained.
Exit codes: 0 ok, 1 usage, 2 bad data/input, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import formats, quant
from .complexity import count_flops
from .errors import InvalidOption, InvalidSpec, ShapeMismatch, SpecdriveError, int_option
from .metrics import IGNORE_LABEL, accumulate, compute_metrics, report_csv
from .model import forward, run_input_prefix
from .mosaic import default_layout, preprocess_pipeline
from .quant import (
    load_qgraph,
    payload_bytes,
    qforward,
    quant_report,
    quantize_model,
    save_qgraph,
)
from .spectral import (
    band_correlation,
    class_stats,
    matrix_csv,
    select_bands,
    separability,
)
from .synth import SceneSpec, synth_scene
from .tiling import build_grid, extract_patches, map_patches, reconstruct
from .weights import load_weights

THREADS_ENV = "SPECDRIVE_THREADS"


def default_threads() -> int:
    try:
        return max(1, int(os.environ.get(THREADS_ENV, "1")))
    except ValueError:
        return 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_model(path: str, want_quantized: bool | None = None):
    """Return ('float', graph, weights) or ('quantized', qgraph, None)."""
    with open(path, "rb") as f:
        magic = f.read(4)
    if magic == quant.MAGIC:
        if want_quantized is False:
            raise InvalidSpec(f"{path} is a quantized container")
        return "quantized", load_qgraph(path), None
    if want_quantized:
        raise InvalidSpec(
            f"{path} is a float container; quantize it first (specdrive quantize)"
        )
    graph, w = load_weights(path)
    return "float", graph, w


def _grid_for(meta: dict, cube: np.ndarray, grid_path: str | None):
    """The grid file if one is given, else the default 44/57-stride grid
    of the model's patch size (per-pixel models: patches of up to 128).
    On a cube thinner than the patch, the patch shrinks to the cube and the
    strides to the patch, so the patches still cover every pixel."""
    if grid_path:
        return formats.load_grid(grid_path)
    h, w = cube.shape[:2]
    patch = meta["config"]["patch_size"] if meta["kind"] == "unet" else 128
    patch = min(patch, h, w)
    return build_grid((h, w), patch, min(44, patch), min(57, patch))


def run_segment(manifest: dict) -> dict:
    """Full image path: cube -> input prefix -> tiles -> model body ->
    reconstruction -> outputs (see model.split_input).

    Manifest keys: cube, model, out (required); quantized, grid, render,
    gt, metrics, threads (optional; an integer >= 1, default 1). Flags from
    the CLI override manifest entries. Returns the per-output paths plus the
    label mask.
    """
    for key in ("cube", "model", "out"):
        if not manifest.get(key):
            raise InvalidSpec(f"manifest is missing {key!r}")
    cube = formats.load_cube(manifest["cube"])
    kind, model, weights = _load_model(
        manifest["model"], manifest.get("quantized") or None
    )
    meta = model.meta if kind == "float" else model.graph.meta
    bands = int(meta["config"]["in_channels"])
    if cube.shape[-1] != bands:
        raise ShapeMismatch(f"cube has {cube.shape[-1]} bands, model expects {bands}")
    grid = _grid_for(meta, cube, manifest.get("grid"))

    threads = int_option("threads", manifest.get("threads", 1))
    # the per-pixel input prefix (normalization, and on a quantized model the
    # quantization) runs once over the cube; patches feed the body
    if kind == "quantized":
        body, cube = quant.run_input_prefix(model, cube)

        def infer(p):
            return qforward(body, p)
    else:
        body, cube = run_input_prefix(model, cube, weights)

        def infer(p):
            return forward(body, p, weights)
    probs = map_patches(infer, extract_patches(cube, grid), threads)
    prob_map, labels = reconstruct(probs, grid)

    out = {"mask": manifest["out"], "labels": labels}
    formats.save_mask(manifest["out"], labels)
    if manifest.get("render"):
        formats.save_render(manifest["render"], labels)
        out["render"] = manifest["render"]
    if manifest.get("gt"):
        gt = formats.load_mask(manifest["gt"])
        classes = prob_map.shape[-1]
        cm = accumulate(gt, labels, classes, IGNORE_LABEL)
        report = compute_metrics(cm)
        out["report"] = report
        if manifest.get("metrics"):
            Path(manifest["metrics"]).write_text(report_csv(report))
            out["metrics"] = manifest["metrics"]
    return out


# --------------------------------------------------------------------------
# subcommand handlers


def _cmd_synth(args) -> int:
    spec_dict = json.loads(Path(args.spec).read_text())
    if args.seed is not None:
        spec_dict["seed"] = args.seed
    spec = SceneSpec.from_dict(spec_dict)
    scene = synth_scene(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    formats.save_raw(out / "raw.u16", scene.raw, scene.layout.layout_id)
    formats.save_raw(out / "dark.u16", scene.dark, scene.layout.layout_id)
    formats.save_raw(out / "white.u16", scene.white, scene.layout.layout_id)
    formats.save_layout(out / "layout.json", scene.layout)
    formats.save_cube(out / "gt_cube.hsc", scene.gt_cube)
    formats.save_mask(out / "labels.pgm", scene.labels)
    meta = {"spec": spec_dict}
    if scene.signatures is not None:
        meta["signatures"] = scene.signatures.tolist()
    (out / "scene_meta.json").write_text(json.dumps(meta))
    print(f"scene written to {out}/ (raw, dark, white, layout, gt_cube, labels)")
    return 0


def _cmd_preprocess(args) -> int:
    frame, _ = formats.load_raw(args.raw)
    dark, _ = formats.load_raw(args.dark)
    white, _ = formats.load_raw(args.white)
    layout = formats.load_layout(args.layout) if args.layout else default_layout()
    res = preprocess_pipeline(
        frame, dark, white, layout,
        threads=args.threads, vectorized=not args.no_vector,
    )
    # the file stores band-major planes: write the result's as they are
    formats.save_cube(args.out, res.planes.transpose(1, 2, 0))
    for name, ms in res.timings_ms.items():
        print(f"{name:<24} {ms:10.3f} ms")
    if res.degenerate_pixels:
        print(f"degenerate reference pixels: {res.degenerate_pixels}")
    print(f"cube written to {args.out}")
    return 0


def _cmd_segment(args) -> int:
    manifest = {}
    if args.manifest:
        manifest.update(json.loads(Path(args.manifest).read_text()))
    for key in ("cube", "model", "grid", "out", "render", "gt", "metrics"):
        value = getattr(args, key.replace("-", "_"), None)
        if value:
            manifest[key] = value
    if args.quantized:
        manifest["quantized"] = True
    if args.threads is not None:
        manifest["threads"] = args.threads
    manifest.setdefault("threads", default_threads())
    result = run_segment(manifest)
    print(f"mask written to {result['mask']}")
    if "report" in result:
        rep = result["report"]
        print(f"overall IoU: {100 * rep.overall[2]:.2f}%")
        if "metrics" in result:
            print(f"metrics written to {result['metrics']}")
    return 0


def _cmd_quantize(args) -> int:
    graph, weights = load_weights(args.model)
    calib_dir = Path(args.calib)
    cubes = sorted(calib_dir.glob("*.hsc"))
    if not cubes:
        raise InvalidSpec(f"no .hsc cubes in {calib_dir}")
    samples = []
    for c in cubes:
        cube = formats.load_cube(c)
        if graph.meta["kind"] == "unet":
            samples.extend(extract_patches(cube, _grid_for(graph.meta, cube, args.grid)))
        else:
            samples.append(cube)
    qg = quantize_model(graph, weights, samples)
    save_qgraph(args.out, qg)
    print(f"quantized model written to {args.out} ({payload_bytes(qg)} payload bytes)")
    if args.report:
        probe = samples[: min(4, len(samples))]
        rep = quant_report(graph, weights, qg, probe)
        lines = ["layer,mean_abs_err,max_abs_err"]
        for name, (mean_e, max_e) in sorted(rep.per_layer.items()):
            lines.append(f"{name},{mean_e:.6g},{max_e:.6g}")
        lines.append(f"float_bytes,{rep.size.float_bytes},")
        lines.append(f"quantized_bytes,{rep.size.quantized_bytes},")
        lines.append(f"ratio,{rep.size.ratio:.4f},")
        lines.append(f"argmax_agreement,{rep.argmax_agreement:.4f},")
        Path(args.report).write_text("\n".join(lines) + "\n")
        print(f"report written to {args.report} "
              f"(ratio {rep.size.ratio:.3f}, agreement {rep.argmax_agreement:.3f})")
    return 0


def _scene_or_files(cfg: dict):
    if "scene" in cfg:
        scene = synth_scene(SceneSpec.from_dict(cfg["scene"]))
        return scene.raw, scene.dark, scene.white, scene.layout
    missing = [k for k in ("raw", "dark", "white") if k not in cfg]
    if missing:
        raise InvalidSpec("bench preprocess config has no 'scene' and lacks "
                          + ", ".join(missing))
    frame, _ = formats.load_raw(cfg["raw"])
    dark, _ = formats.load_raw(cfg["dark"])
    white, _ = formats.load_raw(cfg["white"])
    layout = formats.load_layout(cfg["layout"]) if cfg.get("layout") else default_layout()
    return frame, dark, white, layout


def _cmd_bench(args) -> int:
    cfg_dict = json.loads(Path(args.config).read_text())
    bcfg = bench_mod.BenchConfig.from_dict(cfg_dict)
    if args.target == "preprocess":
        frame, dark, white, layout = _scene_or_files(cfg_dict)
        report = bench_mod.bench_preprocess(bcfg, frame, dark, white, layout)
    else:
        if "model" not in cfg_dict:
            raise InvalidSpec("bench infer config needs a 'model' path")
        kind, model, weights = _load_model(cfg_dict["model"])
        if "cube" in cfg_dict:
            cube = formats.load_cube(cfg_dict["cube"])
        else:
            scene = synth_scene(SceneSpec.from_dict(cfg_dict.get("scene", {})))
            cube = preprocess_pipeline(scene.raw, scene.dark, scene.white,
                                       scene.layout).cube
        meta = model.meta if kind == "float" else model.graph.meta
        grid = _grid_for(meta, cube, cfg_dict.get("grid"))
        patches = extract_patches(cube, grid)
        report = bench_mod.bench_inference(
            bcfg, model, patches, grid, weights=weights,
            preprocess_ms=cfg_dict.get("preprocess_ms"),
        )
        if cfg_dict.get("quantized_model"):
            _, qmodel, _ = _load_model(cfg_dict["quantized_model"], True)
            qreport = bench_mod.bench_inference(
                bcfg, qmodel, patches, grid,
                preprocess_ms=cfg_dict.get("preprocess_ms"),
            )
            f_ms = report.best().total_mean_ms
            q_ms = qreport.best().total_mean_ms
            print(bench_mod.report_table(qreport))
            print(f"float {f_ms:.3f} ms vs int8 {q_ms:.3f} ms "
                  f"(float/int8 ratio {f_ms / q_ms:.2f}x)")
    print(bench_mod.report_table(report))
    if args.out:
        Path(args.out).write_text(bench_mod.report_csv(report))
        print(f"csv written to {args.out}")
    if args.json:
        Path(args.json).write_text(bench_mod.report_json(report))
        print(f"json written to {args.json}")
    return 0


# label masks are 8-bit graymaps, so at most 256 classes
MAX_CLASSES = 256


def _class_count(n) -> int:
    n = int_option("classes", n)
    if n > MAX_CLASSES:
        raise InvalidOption(f"classes must be <= {MAX_CLASSES}, got {n}")
    return n


def _frequencies(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise InvalidOption(
            f"frequencies must be comma-separated numbers, got {text!r}") from None


def _labels_for(cube: np.ndarray, path) -> np.ndarray:
    """The label mask at path; it must cover the cube pixel for pixel."""
    labels = formats.load_mask(path)
    if labels.shape != cube.shape[:2]:
        raise ShapeMismatch(f"labels {labels.shape} vs cube pixels {cube.shape[:2]}")
    return labels


def _cmd_metrics(args) -> int:
    classes = _class_count(args.classes)
    gt = formats.load_mask(args.gt)
    pred = formats.load_mask(args.pred)
    cm = accumulate(gt, pred, classes, args.ignore)
    freqs = _frequencies(args.frequencies) if args.frequencies else None
    report = compute_metrics(cm, frequencies=freqs)
    csv = report_csv(report)
    if args.out:
        Path(args.out).write_text(csv)
        print(f"metrics written to {args.out}")
    else:
        print(csv, end="")
    return 0


def _cmd_spectral(args) -> int:
    cube = formats.load_cube(args.cube)
    if args.what == "corr":
        text = matrix_csv(band_correlation(cube))
    elif args.what == "jm":
        if not args.gt:
            raise InvalidSpec("jm needs --gt labels")
        classes = _class_count(args.classes)
        stats = class_stats(cube, _labels_for(cube, args.gt), classes, args.ignore)
        rep = separability(stats)
        names = [f"class{i}" for i in range(classes)]
        text = matrix_csv(rep.jm, names)
        text += "mean," + ",".join(
            "" if np.isnan(v) else f"{v:.4f}" for v in rep.class_means
        ) + "\n"
    else:  # select-bands
        data = cube.reshape(-1, cube.shape[-1])
        if args.gt:
            data = data[_labels_for(cube, args.gt).ravel() != args.ignore]
        bands = select_bands(data, args.k)
        text = "slot,band\n" + "".join(
            f"{i},{b}\n" for i, b in enumerate(bands)
        )
    if args.out:
        Path(args.out).write_text(text)
        print(f"written to {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_model_info(args) -> int:
    kind, model, _weights = _load_model(args.model)
    graph = model if kind == "float" else model.graph
    meta = graph.meta
    patches = 18 if meta["kind"] == "unet" else 216 * 409
    rep = count_flops(graph, patches_per_image=patches)
    print(f"kind: {meta['kind']} ({json.dumps(meta['config'])})")
    print(f"params {rep.np_total} ({rep.non_trainable} non-trainable)")
    unit = "patch" if meta["kind"] == "unet" else "pixel"
    print(f"MACs per {unit}: {rep.macs_per_patch:,}")
    print(f"FLOPs per {unit} (2xMAC): {rep.flops_per_patch:,}")
    print(f"FLOPs per image ({rep.patches_per_image} {unit}s): {rep.flops_per_image:,}")
    print(f"float payload bytes: {4 * rep.np_total:,}")
    if kind == "quantized":
        q = payload_bytes(model)
        print(f"quantized payload bytes: {q:,} "
              f"(ratio {q / (4 * rep.np_total):.3f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="specdrive",
                description="snapshot-mosaic hyperspectral segmentation pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a synthetic scene with ground truth")
    s.add_argument("--spec", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--seed", type=int)
    s.set_defaults(fn=_cmd_synth)

    s = sub.add_parser("preprocess", help="raw mosaic frame to reflectance cube")
    s.add_argument("--raw", required=True)
    s.add_argument("--dark", required=True)
    s.add_argument("--white", required=True)
    s.add_argument("--layout")
    s.add_argument("--out", required=True)
    s.add_argument("--threads", type=int, default=default_threads())
    s.add_argument("--no-vector", action="store_true")
    s.set_defaults(fn=_cmd_preprocess)

    s = sub.add_parser("segment", help="tile, infer and rebuild a label mask")
    s.add_argument("--cube")
    s.add_argument("--model")
    s.add_argument("--quantized", action="store_true")
    s.add_argument("--grid")
    s.add_argument("--out")
    s.add_argument("--render")
    s.add_argument("--gt")
    s.add_argument("--metrics")
    s.add_argument("--manifest")
    s.add_argument("--threads", type=int)
    s.set_defaults(fn=_cmd_segment)

    s = sub.add_parser("quantize", help="full-integer post-training quantization")
    s.add_argument("--model", required=True)
    s.add_argument("--calib", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--report")
    s.add_argument("--grid")
    s.set_defaults(fn=_cmd_quantize)

    s = sub.add_parser("bench", help="latency benchmarks")
    s.add_argument("target", choices=("preprocess", "infer"))
    s.add_argument("--config", required=True)
    s.add_argument("--out")
    s.add_argument("--json")
    s.set_defaults(fn=_cmd_bench)

    s = sub.add_parser("metrics", help="score a mask against ground truth")
    s.add_argument("--gt", required=True)
    s.add_argument("--pred", required=True)
    s.add_argument("--classes", type=int, required=True)
    s.add_argument("--ignore", type=int, default=IGNORE_LABEL)
    s.add_argument("--frequencies")
    s.add_argument("--out")
    s.set_defaults(fn=_cmd_metrics)

    s = sub.add_parser("spectral", help="band correlation, separability, selection")
    s.add_argument("what", choices=("corr", "jm", "select-bands"))
    s.add_argument("--cube", required=True)
    s.add_argument("--gt")
    s.add_argument("--classes", type=int, default=3)
    s.add_argument("--ignore", type=int, default=IGNORE_LABEL)
    s.add_argument("-k", type=int, default=3)
    s.add_argument("--out")
    s.set_defaults(fn=_cmd_spectral)

    s = sub.add_parser("model-info", help="parameters, FLOPs and payload size")
    s.add_argument("model")
    s.set_defaults(fn=_cmd_model_info)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as e:  # argparse usage errors routed to exit 1
        return int(e.code or 0)
    except (SpecdriveError, FileNotFoundError, IsADirectoryError,
            json.JSONDecodeError) as e:
        print(f"specdrive: error: {e}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        raise
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface.

Subcommands mirror the pipeline: synth, preprocess, segment, quantize,
bench, metrics, spectral, model-info. Each consumes and produces the
documented file formats and nothing hidden, so commands can be chained.
Exit codes: 0 ok, 1 usage, 2 bad data/input, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import replace
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import formats, quant
from .complexity import count_flops
from .errors import (Field, InvalidGeometry, InvalidOption, InvalidSpec, MissingWeights,
                     ShapeMismatch, SpecdriveError, construct, decode, fields, json_spec,
                     naming, value)
from .metrics import IGNORE_LABEL, accumulate, compute_metrics, report_csv
from .model import (UNetConfig, build_from_meta, fold_batchnorm, forward, map_pixel_blocks,
                    run_input_prefix)
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
from .tiling import THREADS, build_grid, extract_patches, map_patches, reconstruct
from .weights import load_weights


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_model(path: str, want_quantized: bool = False):
    """Return (graph, weights) or (qgraph, None); a float file where a
    quantized one is wanted raises InvalidSpec."""
    with open(path, "rb") as f:
        magic = f.read(4)
    if magic == quant.MAGIC:
        return load_qgraph(path), None
    if want_quantized:
        raise InvalidSpec(
            f"{path} is a float container; quantize it first (specdrive quantize)"
        )
    return load_weights(path)


def _grid_for(meta: dict, hw: tuple[int, int], grid_path: str | None):
    """The patch grid a U-Net segments an image of hw = (rows, cols) pixels
    on: the grid file if one is given, else the paper's 44/57-stride grid of
    its patch size, whose overlap gives each convolution context at the
    patch borders. A per-pixel model (the MLP, whose graph is
    ModelGraph.per_pixel) reads no neighbours and runs untiled (see
    infer_cube), so it gets None, and a grid file given with it, which
    could change nothing, raises InvalidOption. On a cube thinner than the
    patch, the patch shrinks to the cube, and further down to a multiple of
    2^encoder_depth, the side the U-Net's pooling halves that often; a cube
    thinner than that raises InvalidGeometry, and so does a grid file whose
    patch is not such a multiple. The strides are capped at half the patch:
    the middle gap of a mirrored grid is below twice the stride, so the
    patches cover every pixel."""
    if meta["kind"] != "unet":
        if grid_path:
            raise InvalidOption(f"grid {grid_path} would change nothing: a per-pixel "
                                "model runs untiled")
        return None
    h, w = hw
    cfg = UNetConfig(**meta["config"])
    step = 2**cfg.encoder_depth
    if grid_path:
        grid = formats.load_grid(grid_path)
        if grid.patch_size % step:
            raise InvalidGeometry(
                f"grid {grid_path} has patch {grid.patch_size}, which this U-Net cannot "
                f"pool: it must be a multiple of {step} (2^encoder_depth)")
        return grid
    patch = min(cfg.patch_size, h, w) // step * step
    if not patch:
        raise InvalidGeometry(f"cube of {h}x{w} pixels is thinner than this U-Net's "
                              f"minimum patch, {step}x{step} (2^encoder_depth)")
    cap = max(1, patch // 2)
    return build_grid(hw, patch, min(44, cap), min(57, cap))


def _check_bands(meta: dict, cube: np.ndarray) -> None:
    bands = int(meta["config"]["in_channels"])
    if cube.shape[-1] != bands:
        raise ShapeMismatch(f"cube has {cube.shape[-1]} bands, model expects {bands}")


def infer_cube(model, cube, grid, *, weights=None, threads=1, naive=False):
    """The Inference stage that segment runs and bench infer times: the
    cube's (prob_map, labels), on `threads` workers; naive selects reference
    kernels. A float model has its batch norm folded once here, in both
    kernel modes, and a quantized one builds its requantization tables here,
    before the workers share them. A per-pixel graph (the MLP) runs untiled:
    the whole graph is mapped over the cube's pixel blocks on the workers
    (model.map_pixel_blocks), and grid must be None. Any other graph needs
    a grid: its per-pixel input prefix (normalization, and on a quantized
    model the quantization) runs once over the cube, then its body on every
    patch of the grid (see model.split_input), and the patches are averaged
    back (tiling.reconstruct). The patches are read-only views of the
    prefix's output (see tiling.extract_patches): no patch is copied, and
    cube is left as it was. Argmax ties break toward the lowest class."""
    _check_bands(model.meta, cube)
    quantized = isinstance(model, quant.QuantizedGraph)
    graph = model.graph if quantized else model
    if graph.per_pixel and grid is not None:
        raise InvalidOption("a grid would change nothing: a per-pixel model runs untiled")
    if not graph.per_pixel and grid is None:
        raise InvalidOption("a model with spatial layers (the U-Net) needs a patch grid")
    if quantized:
        body, x = (model, cube) if graph.per_pixel else quant.run_input_prefix(model, cube)
        if not naive:
            body.steps  # resolved once, here, for every worker to read
        infer = partial(qforward, body, naive=naive)
    elif weights is None:
        raise MissingWeights("float graph needs a weight dict")
    else:
        graph, weights = fold_batchnorm(model, weights)
        body, x = (graph, cube) if graph.per_pixel else run_input_prefix(graph, cube, weights)
        infer = partial(forward, body, weights=weights, naive=naive)
    if graph.per_pixel:
        prob_map = map_pixel_blocks(infer, x, threads)
        return prob_map, np.argmax(prob_map, axis=-1).astype(np.uint8)
    return reconstruct(map_patches(infer, extract_patches(x, grid), threads), grid)


_PATH = Field(str, default=None)
# a segment manifest: the paths of its inputs and outputs, and its options
MANIFEST = {"cube": Field(str), "model": Field(str), "out": Field(str),
            "quantized": Field(bool, default=False), "grid": _PATH, "render": _PATH,
            "gt": _PATH, "metrics": _PATH, "threads": THREADS._replace(default=1)}


def run_segment(manifest: dict, name: str = "manifest") -> dict:
    """Full image path: cube -> infer_cube -> outputs.

    The manifest holds MANIFEST's keys; name says where it came from. Flags
    from the CLI override manifest entries. Returns the per-output paths
    plus the label mask. A refusal from a check across two inputs names
    both of their files.
    """
    manifest = fields(manifest, MANIFEST, name)
    cube = formats.load_cube(manifest["cube"])
    model, weights = _load_model(manifest["model"], manifest["quantized"])
    grid = _grid_for(model.meta, cube.shape[:2], manifest["grid"])
    with naming(manifest["cube"], manifest["model"]):
        prob_map, labels = infer_cube(model, cube, grid, weights=weights,
                                      threads=manifest["threads"])

    out = {"mask": manifest["out"], "labels": labels}
    formats.save_mask(manifest["out"], labels)
    if manifest["render"]:
        formats.save_render(manifest["render"], labels)
        out["render"] = manifest["render"]
    if manifest["gt"]:
        gt = formats.load_mask(manifest["gt"])
        with naming(manifest["gt"], manifest["cube"]):
            cm = accumulate(gt, labels, prob_map.shape[-1], IGNORE_LABEL)
        report = compute_metrics(cm)
        out["report"] = report
        if manifest["metrics"]:
            Path(manifest["metrics"]).write_text(report_csv(report))
            out["metrics"] = manifest["metrics"]
    return out


# --------------------------------------------------------------------------
# subcommand handlers


def _cmd_synth(args) -> int:
    spec_dict = decode(Path(args.spec).read_bytes(), args.spec, InvalidSpec)
    spec = SceneSpec.from_dict(spec_dict, args.spec)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
        spec_dict["seed"] = args.seed
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


def _read_frames(raw, dark, white, layout):
    """The raw, dark and white frames at those paths, and the layout file's
    layout (the default one if layout is None)."""
    frames = [formats.load_raw(path)[0] for path in (raw, dark, white)]
    return *frames, formats.load_layout(layout) if layout else default_layout()


def _cmd_preprocess(args) -> int:
    frame, dark, white, layout = _read_frames(args.raw, args.dark, args.white, args.layout)
    with naming(args.raw, args.dark, args.white, args.layout):
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
    manifest = (decode(Path(args.manifest).read_bytes(), args.manifest)
                if args.manifest else {})
    if isinstance(manifest, dict):  # run_segment refuses anything else
        flags = {k: v for k, v in vars(args).items()
                 if k in MANIFEST and v is not None and v is not False}
        manifest = {**manifest, **flags}
    result = run_segment(manifest, args.manifest or "segment")
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
        with naming(c, args.model):
            _check_bands(graph.meta, cube)
        grid = _grid_for(graph.meta, cube.shape[:2], args.grid)
        samples.extend(extract_patches(cube, grid) if grid else [cube])
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


_SCENE = Field(json_spec(SceneSpec), default=None)
# a bench config's input keys, by target, besides BenchConfig's
BENCH_INPUTS = {
    "preprocess": {"scene": _SCENE, "raw": _PATH, "dark": _PATH, "white": _PATH,
                   "layout": _PATH},
    "infer": {"model": Field(str), "quantized_model": _PATH, "cube": _PATH,
              "scene": _SCENE, "grid": _PATH,
              "preprocess_ms": Field(float, 0, default=None)},
}


def _scene_or_files(cfg: dict, name: str):
    if cfg["scene"] is not None:
        scene = synth_scene(construct(SceneSpec, cfg["scene"], f"{name}: 'scene'"))
        return scene.raw, scene.dark, scene.white, scene.layout
    missing = [k for k in ("raw", "dark", "white") if cfg[k] is None]
    if missing:
        raise InvalidSpec("bench preprocess config has no 'scene' and lacks "
                          + ", ".join(missing))
    return _read_frames(cfg["raw"], cfg["dark"], cfg["white"], cfg["layout"])


def _cmd_bench(args) -> int:
    bcfg, cfg = bench_mod.read_config(decode(Path(args.config).read_bytes(), args.config),
                                      args.config, BENCH_INPUTS[args.target])
    if args.target == "preprocess":
        frame, dark, white, layout = _scene_or_files(cfg, args.config)
        report = bench_mod.bench_preprocess(bcfg, frame, dark, white, layout)
    else:
        model, weights = _load_model(cfg["model"])
        if cfg["cube"]:
            cube = formats.load_cube(cfg["cube"])
        else:
            scene = synth_scene(construct(SceneSpec, cfg["scene"] or {},
                                          f"{args.config}: 'scene'"))
            cube = preprocess_pipeline(scene.raw, scene.dark, scene.white,
                                       scene.layout).cube
        grid = _grid_for(model.meta, cube.shape[:2], cfg["grid"])
        source = cfg["cube"] or f"{args.config}: 'scene'"
        with naming(source, cfg["model"]):
            report = bench_mod.bench_inference(
                bcfg, model, cube, grid, weights=weights, preprocess_ms=cfg["preprocess_ms"])
        if cfg["quantized_model"]:
            qmodel, _ = _load_model(cfg["quantized_model"], True)
            with naming(source, cfg["quantized_model"]):
                qreport = bench_mod.bench_inference(
                    bcfg, qmodel, cube, grid, preprocess_ms=cfg["preprocess_ms"])
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
CLASSES = Field(int, 1, 256)


def _frequencies(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise InvalidOption(
            f"frequencies must be comma-separated numbers, got {text!r}") from None


def _labels_for(cube: np.ndarray, path, cube_path) -> np.ndarray:
    """The label mask at path; it must cover the cube (at cube_path) pixel
    for pixel."""
    labels = formats.load_mask(path)
    if labels.shape != cube.shape[:2]:
        raise ShapeMismatch(f"{path}, {cube_path}: labels {labels.shape} vs cube "
                            f"pixels {cube.shape[:2]}")
    return labels


def _cmd_metrics(args) -> int:
    classes = value(args.classes, CLASSES, "--classes")
    gt = formats.load_mask(args.gt)
    pred = formats.load_mask(args.pred)
    with naming(args.gt, args.pred):
        cm = accumulate(gt, pred, classes, args.ignore)
    freqs = _frequencies(args.frequencies) if args.frequencies else None
    report = compute_metrics(cm, frequencies=freqs)
    for text in report.warnings:
        print(f"specdrive: warning: {text}", file=sys.stderr)
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
        classes = value(args.classes, CLASSES, "--classes")
        stats = class_stats(cube, _labels_for(cube, args.gt, args.cube), classes, args.ignore)
        rep = separability(stats)
        names = [f"class{i}" for i in range(classes)]
        text = matrix_csv(rep.jm, names)
        text += "mean," + ",".join(
            "" if np.isnan(v) else f"{v:.4f}" for v in rep.class_means
        ) + "\n"
    else:  # select-bands
        data = cube.reshape(-1, cube.shape[-1])
        if args.gt:
            data = data[_labels_for(cube, args.gt, args.cube).ravel() != args.ignore]
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
    """Counts the network as defined, batch norm unfolded, for a float and
    a quantized file alike."""
    model, _ = _load_model(args.model)
    meta = model.meta
    # per image: segment's default grid on the default layout's frame, each
    # patch counted at the grid's side, for a U-Net; each of the frame's
    # pixels once, for a per-pixel model, which runs untiled
    hw = default_layout().cube_shape[:2]
    grid = _grid_for(meta, hw, None)
    config = {**meta["config"], "patch_size": grid.patch_size} if grid else meta["config"]
    per_image = grid.n_patches if grid else hw[0] * hw[1]
    rep = count_flops(build_from_meta({**meta, "config": config}), patches_per_image=per_image)
    print(f"kind: {meta['kind']} ({json.dumps(meta['config'])})")
    print(f"params {rep.np_total} ({rep.non_trainable} non-trainable)")
    unit, units = ("patch", "patches") if grid else ("pixel", "pixels")
    print(f"MACs per {unit}: {rep.macs_per_patch:,}")
    print(f"FLOPs per {unit} (2xMAC): {rep.flops_per_patch:,}")
    print(f"FLOPs per image ({rep.patches_per_image} {units}): {rep.flops_per_image:,}")
    if grid:
        p = grid.patch_size
        print(f"default grid on the {hw[0]}x{hw[1]} frame: {grid.n_patches} patches of "
              f"{p}x{p}, {grid.n_patches * p * p / (hw[0] * hw[1]):.2f} evaluations per pixel")
    print(f"float payload bytes: {4 * rep.np_total:,}")
    if isinstance(model, quant.QuantizedGraph):
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
    s.add_argument("--threads", type=int, default=1)
    s.add_argument("--no-vector", action="store_true")
    s.set_defaults(fn=_cmd_preprocess)

    s = sub.add_parser("segment", help="infer a label mask (a U-Net on tiled patches)")
    for key, f in MANIFEST.items():
        s.add_argument(f"--{key}", **({"action": "store_true"} if f.type is bool
                                       else {"type": f.type}))
    s.add_argument("--manifest")
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


@cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's tree, built once per process: parsing reads it and
    changes nothing in it, and every default it holds is immutable."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as e:  # argparse usage errors routed to exit 1
        return int(e.code or 0)
    except (SpecdriveError, OSError) as e:
        print(f"specdrive: error: {e}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        raise
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())

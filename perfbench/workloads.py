"""Workloads: seeded scenes and models, the per-frame CLI calls, library
references and output checks.

Everything a run feeds the program is derived from the workload seed and
written to disk in the documented file formats by this module's own
writers; the program sees only those files. References are built with the
library at one thread and compared with what the CLI writes.
"""

from __future__ import annotations

import io
import json
import os
import re
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

N_SCENES = 3          # distinct scenes cycled, so no output can be memoized
IGNORE = 255
# acceptance 05's round-trip oracle for gradient scenes
INTERIOR_TOL = 1e-5
BORDER_TOL = 5e-3
NAIVE_SIDE = 16       # side of the patch crop checked against the naive kernels
NAIVE_FLOAT_TOL = 1e-5


@dataclass(frozen=True)
class Workload:
    name: str
    scene_kind: str          # "gradient" or "classes"
    model: str | None        # None, "unet" or "mlp"
    int8: bool
    threads: int             # `specdrive segment --threads`
    tail_pct: int            # frame_ms_tail percentile, >= 10 frames beyond it
    classes: int = 3
    why: str = ""


WORKLOADS = {w.name: w for w in (
    Workload("preprocess", "gradient", None, False, 1, 90,
             why="gradient scenes through preprocess only: mosaic and formats "
                 "writes, no model; round-trip oracle; tail=p90"),
    Workload("segment-unet-float", "classes", "unet", False, 2, 75,
             why="class scenes through preprocess and segment with the float "
                 "U-Net at 2 threads: float kernels dominate; tail=p75"),
    Workload("segment-unet-int8", "classes", "unet", True, 2, 60,
             why="same frames with the int8 U-Net: quant and integer kernels "
                 "dominate, float conv idle; int8 vs float agreement; tail=p60"),
    Workload("segment-mlp-int8", "classes", "mlp", True, 2, 50, classes=4,
             why="per-pixel int8 MLP: dense_int, tanh tables, 3.34x tiling "
                 "redundancy; exact IoU 1.0 oracle; tail=p50 (~20 frames a run)"),
)}


# ---------------------------------------------------------------------------
# writers and readers for the documented formats, independent of the program


def write_raw(path: Path, frame: np.ndarray, layout_id: str) -> None:
    frame = np.ascontiguousarray(frame, dtype="<u2")
    path.write_bytes(frame.tobytes())
    Path(f"{path}.json").write_text(json.dumps({
        "width": frame.shape[1], "height": frame.shape[0],
        "bit_depth": 16, "layout_id": layout_id}))


def write_layout(path: Path, layout) -> None:
    path.write_text(json.dumps({
        "tile": np.asarray(layout.tile).tolist(),
        "active_origin": list(layout.active_origin),
        "active_size": list(layout.active_size),
        "center_offset": list(layout.center_offset),
        "id": layout.layout_id}))


def write_pgm(path: Path, mask: np.ndarray) -> None:
    h, w = mask.shape
    path.write_bytes(f"P5\n{w} {h}\n255\n".encode()
                     + np.ascontiguousarray(mask, np.uint8).tobytes())


def read_cube(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    nl = raw.index(b"\n")
    head = json.loads(raw[:nl])
    h, w, b = head["height"], head["width"], head["bands"]
    if head.get("dtype") != "f32le" or len(raw) - nl - 1 != h * w * b * 4:
        raise ValueError(f"{path}: not a {h}x{w}x{b} f32le cube")
    return np.frombuffer(raw, "<f4", offset=nl + 1).reshape(b, h, w).transpose(1, 2, 0)


def read_pgm(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    m = re.match(rb"P5\s+(\d+)\s+(\d+)\s+255\s", raw)
    if m is None:
        raise ValueError(f"{path}: not an 8-bit P5 graymap")
    w, h = int(m[1]), int(m[2])
    if len(raw) != m.end() + w * h:
        raise ValueError(f"{path}: graymap payload is not {w}x{h} bytes")
    return np.frombuffer(raw, np.uint8, offset=m.end()).reshape(h, w)


# ---------------------------------------------------------------------------
# scenes and models from the seed


def frame_layout(mods, tiny: bool):
    """1088x2048 frames (the default layout), or a tiny 208x303 frame whose
    cube is 40x60 for the benchmark's own tests."""
    if not tiny:
        return mods.mosaic.default_layout()
    return mods.mosaic.MosaicLayout(tile=np.arange(25).reshape(5, 5),
                                    active_size=(200, 300), layout_id="tiny-5x5")


def _random_rects(rng, hm: int, wm: int, classes: int, n: int = 6) -> tuple:
    rects = []
    for _ in range(n):
        h = int(rng.integers(hm // 6, hm // 2))
        w = int(rng.integers(wm // 6, wm // 2))
        r0 = int(rng.integers(0, hm - h + 1))
        c0 = int(rng.integers(0, wm - w + 1))
        rects.append((r0, c0, r0 + h, c0 + w, int(rng.integers(0, classes))))
    return tuple(rects)


def _quadrants(hm: int, wm: int, classes: int) -> tuple:
    h2, w2 = hm // 2, wm // 2
    boxes = ((0, 0, h2, w2), (0, w2, h2, wm), (h2, 0, hm, w2), (h2, w2, hm, wm))
    return tuple((*box, k % classes) for k, box in enumerate(boxes))


def scene_specs(mods, wl: Workload, seed: int, layout):
    """(run specs, calibration spec or None, weight seed), all from `seed`.

    Class scenes of one run share a signature seed and vary the region
    layout; the calibration frame uses a layout no run frame has. Both
    U-Net workloads derive the same frames and weights from a seed."""
    SceneSpec = mods.synth.SceneSpec
    rng = np.random.default_rng(seed)
    if wl.scene_kind == "gradient":
        seeds = rng.integers(0, 2**31, N_SCENES)
        return [SceneSpec(kind="gradient", seed=int(s)) for s in seeds], None, 0
    hm, wm, _ = layout.cube_shape
    sig_seed, weight_seed = (int(v) for v in rng.integers(0, 2**31, 2))
    base = dict(kind="classes", num_classes=wl.classes, seed=sig_seed)
    run = [SceneSpec(layout_kind="vstripes", **base),
           SceneSpec(layout_kind="hstripes", **base),
           SceneSpec(layout_kind="rects",
                     rects=_random_rects(rng, hm, wm, wl.classes), **base)]
    calib = SceneSpec(layout_kind="rects", rects=_quadrants(hm, wm, wl.classes), **base)
    return run, calib, weight_seed


@dataclass
class SceneFiles:
    raw: str
    dark: str
    white: str
    layout: str
    labels: str
    data: object = field(repr=False)  # synth.SceneData

    def input_paths(self) -> list[str]:
        return [self.raw, f"{self.raw}.json", self.dark, f"{self.dark}.json",
                self.white, f"{self.white}.json", self.layout]


@dataclass
class Setup:
    scenes: list[SceneFiles]
    model_path: str | None = None
    graph: object = None          # float graph, for references and MAC counts
    weights: dict | None = None
    qgraph: object = None         # quantized graph on the int8 workloads


def _write_scene(mods, spec, layout, d: Path) -> SceneFiles:
    scene = mods.synth.synth_scene(spec, layout)
    d.mkdir(parents=True, exist_ok=True)
    for name in ("raw", "dark", "white"):
        write_raw(d / f"{name}.u16", getattr(scene, name), layout.layout_id)
    write_layout(d / "layout.json", layout)
    write_pgm(d / "labels.pgm", scene.labels)
    return SceneFiles(str(d / "raw.u16"), str(d / "dark.u16"), str(d / "white.u16"),
                      str(d / "layout.json"), str(d / "labels.pgm"), scene)


def grid_for(mods, hw: tuple[int, int]):
    """The paper's centrosymmetric grid: 128x128 patches, strides 44/57."""
    patch = min(128, *hw)
    return mods.tiling.build_grid(hw, patch, 44, 57)


def build(mods, wl: Workload, seed: int, layout, workdir: Path) -> Setup:
    """Generate scenes and input files, seeded weights and, on the int8
    workloads, calibration and quantization. Quantization goes through
    `mods.quant.quantize_model` at call time, so a traced run times it."""
    run, calib, weight_seed = scene_specs(mods, wl, seed, layout)
    scenes = [_write_scene(mods, spec, layout, workdir / f"scene{i}")
              for i, spec in enumerate(run)]
    setup = Setup(scenes)
    if wl.model is None:
        return setup
    if wl.model == "unet":
        graph = mods.model.build_unet(mods.model.UNetConfig(classes=wl.classes))
        weights = mods.weights.generate_weights(graph, weight_seed)
    else:
        graph, weights = mods.synth.separating_mlp_weights(scenes[0].data.signatures)
    setup.graph, setup.weights = graph, weights
    if not wl.int8:
        setup.model_path = str(workdir / "model.sdw")
        mods.weights.save_weights(setup.model_path, graph, weights)
        return setup
    cal = mods.synth.synth_scene(calib, layout)
    cube = mods.mosaic.preprocess_pipeline(cal.raw, cal.dark, cal.white, layout).cube
    samples = (mods.tiling.extract_patches(cube, grid_for(mods, cube.shape[:2]))
               if wl.model == "unet" else [cube])
    setup.qgraph = mods.quant.quantize_model(graph, weights, samples)
    setup.model_path = str(workdir / "model.sdq")
    mods.quant.save_qgraph(setup.model_path, setup.qgraph)
    return setup


def macs_per_frame(mods, wl: Workload, setup: Setup, hw: tuple[int, int]) -> int:
    """Computed MACs of one frame: `complexity.count_flops` per patch (per
    pixel for the MLP), scaled to the grid's patch pixels, times patches."""
    if wl.model is None:
        return 0
    grid = grid_for(mods, hw)
    rep = mods.complexity.count_flops(setup.graph)
    side = setup.graph.meta["config"]["patch_size"] if wl.model == "unet" else 1
    return rep.macs_per_patch * grid.n_patches * grid.patch_size ** 2 // side ** 2


# ---------------------------------------------------------------------------
# the frame path the user runs


@dataclass
class Outputs:
    cube: Path
    mask: Path
    metrics: Path

    @classmethod
    def under(cls, d: Path) -> "Outputs":
        d.mkdir(parents=True, exist_ok=True)
        return cls(d / "cube.hsc", d / "mask.pgm", d / "metrics.csv")

    def written(self, wl: Workload) -> list[Path]:
        return [self.cube] + ([self.mask, self.metrics] if wl.model else [])

    def clear(self) -> None:
        for p in (self.cube, self.mask, self.metrics):
            p.unlink(missing_ok=True)


def frame_argv(wl: Workload, scene: SceneFiles, out: Outputs,
               model_path: str | None) -> list[list[str]]:
    steps = [["preprocess", "--raw", scene.raw, "--dark", scene.dark,
              "--white", scene.white, "--layout", scene.layout,
              "--out", str(out.cube), "--threads", "1"]]
    if wl.model:
        seg = ["segment", "--cube", str(out.cube), "--model", model_path,
               "--out", str(out.mask), "--gt", scene.labels,
               "--metrics", str(out.metrics), "--threads", str(wl.threads)]
        steps.append(seg + (["--quantized"] if wl.int8 else []))
    return steps


def run_frame(mods, steps: list[list[str]]) -> int:
    """Call `specdrive.cli.main` in-process for each step; the first
    non-zero exit code ends the frame. The CLI's own prints are dropped."""
    with redirect_stdout(io.StringIO()):
        for argv in steps:
            rc = mods.cli.main(argv)
            if rc != 0:
                return rc
    return 0


def frame_bytes(wl: Workload, scene: SceneFiles, out: Outputs,
                model_path: str | None) -> tuple[int, int]:
    """(bytes read, bytes written) by one frame, computed from file sizes."""
    reads = scene.input_paths()
    if wl.model:
        reads += [str(out.cube), model_path, scene.labels]
    return (sum(map(os.path.getsize, reads)),
            sum(map(os.path.getsize, out.written(wl))))


# ---------------------------------------------------------------------------
# references and checks


@dataclass
class Reference:
    expected: list[np.ndarray]      # gt cube (preprocess) or mask per scene
    agreement: float = 1.0          # int8 vs float label agreement
    naive_ok: bool = True
    naive_detail: str = ""


def _segment_library(mods, cube, graph, weights=None, qgraph=None) -> np.ndarray:
    grid = grid_for(mods, cube.shape[:2])
    patches = mods.tiling.extract_patches(cube, grid)
    if qgraph is not None:
        probs = [mods.quant.qforward(qgraph, p) for p in patches]
    else:
        probs = [mods.model.forward(graph, p, weights) for p in patches]
    return mods.tiling.reconstruct(probs, grid)[1]


def build_reference(mods, wl: Workload, setup: Setup) -> Reference:
    """Expected outputs from the library at one thread, the int8 label
    agreement and the one-patch check against the naive kernels."""
    if wl.model is None:
        return Reference([s.data.gt_cube for s in setup.scenes])
    cubes = [mods.mosaic.preprocess_pipeline(s.data.raw, s.data.dark, s.data.white,
                                             s.data.layout, threads=1).cube
             for s in setup.scenes]
    masks = [_segment_library(mods, c, setup.graph, setup.weights, setup.qgraph)
             for c in cubes]
    ref = Reference(masks)
    patch = cubes[0][:NAIVE_SIDE, :NAIVE_SIDE]
    if wl.int8:
        floats = [_segment_library(mods, c, setup.graph, setup.weights) for c in cubes]
        ref.agreement = float(np.mean([np.mean(m == f) for m, f in zip(masks, floats)]))
        fast = mods.quant.qforward(setup.qgraph, patch)
        slow = mods.quant.qforward(setup.qgraph, patch, naive=True)
        ref.naive_ok = bool(np.array_equal(fast, slow))
        ref.naive_detail = f"int8 {NAIVE_SIDE}x{NAIVE_SIDE} patch bit-identical: {ref.naive_ok}"
    else:
        fast = mods.model.forward(setup.graph, patch, setup.weights)
        slow = mods.model.forward(setup.graph, patch, setup.weights, naive=True)
        diff = float(np.max(np.abs(fast - slow)))
        same = bool(np.array_equal(fast.argmax(-1), slow.argmax(-1)))
        ref.naive_ok = diff <= NAIVE_FLOAT_TOL and same
        ref.naive_detail = (f"float {NAIVE_SIDE}x{NAIVE_SIDE} patch max|diff| "
                            f"{diff:.2e}, argmax equal: {same}")
    return ref


def check_cube(path: Path, gt: np.ndarray) -> str | None:
    """Acceptance 05's oracle: interior <= 1e-5, border ring <= 5e-3."""
    cube = read_cube(path)
    if cube.shape != gt.shape:
        return f"cube shape {cube.shape} != {gt.shape}"
    err = np.abs(cube.astype(np.float64) - gt)
    ring = np.ones(err.shape[:2], bool)
    ring[1:-1, 1:-1] = False
    worst_in = float(err[~ring].max(initial=0.0))
    worst_ring = float(err[ring].max(initial=0.0))
    if not (worst_in <= INTERIOR_TOL and worst_ring <= BORDER_TOL):  # NaN fails
        return f"cube error interior {worst_in:.2e}, border {worst_ring:.2e}"
    return None


def check_mask(path: Path, expected: np.ndarray, labels: np.ndarray | None) -> str | None:
    """Mask equals the library reference; with `labels`, it also scores
    overall IoU 1.0 on the labelled pixels."""
    mask = read_pgm(path)
    if mask.shape != expected.shape:
        return f"mask shape {mask.shape} != {expected.shape}"
    wrong = int(np.count_nonzero(mask != expected))
    if wrong:
        return f"mask differs from the reference at {wrong} pixels"
    if labels is not None:
        keep = labels != IGNORE
        miss = int(np.count_nonzero(mask[keep] != labels[keep]))
        if miss:
            return f"IoU below 1.0: {miss} labelled pixels wrong"
    return None


def check_frame(wl: Workload, out: Outputs, expected: np.ndarray,
                scene: SceneFiles) -> str | None:
    try:
        if wl.model is None:
            return check_cube(out.cube, expected)
        if not out.metrics.is_file() or out.metrics.stat().st_size == 0:
            return "metrics report missing"
        labels = scene.data.labels if wl.model == "mlp" else None
        return check_mask(out.mask, expected, labels)
    except (OSError, ValueError, KeyError) as e:
        return f"unreadable output: {e}"

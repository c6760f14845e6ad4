"""Model graphs: a small encoder-decoder segmentation net and a spectral MLP.

A graph is an ordered list of layers; each layer names its input tensors, so
skip connections are explicit and the forward pass is a single walk. Weights
live outside the graph in a flat dict keyed "<layer>.<tensor>", which keeps
the same graph usable for float inference, complexity counting, batch-norm
folding and quantization.

run is the one layer loop: it hands each layer its input tensors through
an op, yields every output and drops a tensor after its last reader. walk
runs it with the float ops, and quant's int8 walk with an op of its own.

The fast float walk runs a graph with its batch norm folded into the layer
before it (fold_batchnorm), so forward, walk and quant.calibrate all see the
folded graph and no caller has to fold first. The naive walk runs
the graph as written, batchnorm layers included, and is the fold's oracle.

LAYER_KINDS is the one place a layer kind is defined: the tensors a layer of
that kind reads, its float op, its integer op, whether its integer output
keeps its input's quantization scheme, its input count, how it resizes the
spatial grid and whether it is per-pixel. Weight specs, parameter and MAC
counts, both forward walks and the quantizer are derived from it. Adding a
kind means adding one entry there (and a kernel, if it needs a new one); a
graph with a kind that is not in the table is rejected when it is built.

forward and quant.qforward run any input whole, as walk does. The one
pixel blocker is map_pixel_blocks: it maps a function over pixel_blocks,
PIXEL_BLOCK-row slices of the input's flattened pixels, on
tiling.map_patches. A slice is cut one block at a time from a strided
view, so a patch view is never copied whole, and the temporaries of one
block (2048 x 100 values) stay in cache and come from reused
allocations, where a whole frame's would be page-faulted in afresh on
every layer. A short last block is padded with copies of its last pixel,
whose outputs are dropped, so every block of an input over one block runs
at one row count and a pixel gets the same bits whatever the worker count
or its place in the input. An input of one block or less is handed over
whole, in its own shape. The block size is a constant, never derived
from the thread count. The blocker has three users: cli.infer_cube maps a
per-pixel graph (the MLP) over a cube's blocks on its workers, both
run_input_prefix functions run the input prefix over them, and
quant.calibrate walks a per-pixel graph's samples over pixel_blocks.

split_input cuts a graph into its input prefix, the leading per-pixel
layers without an int op (band_norm, zscore), and the body that follows.
run_input_prefix runs the prefix once over a whole cube, in pixel blocks
(map_pixel_blocks), so patches cut from its output only pay for the body.

Naming is stable: encoder blocks are enc0, enc1, ..., the bottom block is
bridge, decoder blocks dec1, dec0, ... and the classifier is head.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import kernels
from .errors import (REQUIRED, Field, InvalidConfig, MissingWeights, ShapeMismatch,
                     StructureError, construct, fields, json_field, json_spec)
from .tiling import map_patches


@dataclass(frozen=True)
class LayerSpec:
    name: str
    kind: str
    inputs: tuple[str, ...]
    in_ch: int = 0
    out_ch: int = 0
    kernel: int = 0
    rate: float = 0.0


@dataclass
class ModelGraph:
    layers: list[LayerSpec]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        seen = {"input"}
        for layer in self.layers:
            kind = LAYER_KINDS.get(layer.kind)
            if kind is None:
                raise StructureError(f"layer {layer.name} has unknown kind {layer.kind!r}")
            if len(layer.inputs) != kind.arity:
                raise StructureError(
                    f"{layer.kind} {layer.name} must have exactly {kind.arity} input(s)"
                )
            for src in layer.inputs:
                if src not in seen:
                    raise StructureError(
                        f"layer {layer.name} consumes {src!r} before it is produced"
                    )
            if layer.name in seen:
                raise StructureError(f"layer name {layer.name!r} is used twice")
            seen.add(layer.name)

    @property
    def output_name(self) -> str:
        return self.layers[-1].name if self.layers else "input"

    @property
    def per_pixel(self) -> bool:
        """Whether every layer is per-pixel, so the graph may run on any
        grouping of its input's pixels."""
        return all(LAYER_KINDS[l.kind].per_pixel for l in self.layers)


class Tensor(NamedTuple):
    """A tensor a layer reads, stored under "<layer>.<suffix>"; its role is
    trainable, non_trainable, or statistic (not a parameter)."""
    suffix: str
    shape: Callable[[LayerSpec], tuple[int, ...]]
    role: str = "trainable"


@dataclass(frozen=True)
class LayerKind:
    """What a layer kind is. float_op(layer, inputs, tensors, kernel table)
    gives the float output. int_op(layer, int8 inputs, input schemes, own
    scheme, stored tensors, naive) gives the int8 output, or the int32
    accumulator for kinds with a weight; the stored tensors are the ones
    quant.stored_tensors names. A weighted kind's int op without naive runs
    the fast kernel on the fast walk's operands instead: a centered float
    input and the weight and bias quant resolves for it, giving the exact
    float accumulator. None means the kind runs in float on either side of
    the quantization boundary."""

    float_op: Callable
    int_op: Callable | None = None
    tensors: tuple[Tensor, ...] = ()
    inherits_scheme: bool = False  # relu/pool/dropout add no requantization
    arity: int = 1
    resize: float = 1.0  # factor on the spatial side of the output
    # the output at a pixel reads only that pixel, and the ops take any
    # (..., C) array of pixels (conv1 is pointwise but needs an (H, W, C) grid)
    per_pixel: bool = False


def _vec(layer: LayerSpec) -> tuple[int, ...]:
    return (layer.out_ch,)


def _identity(layer, xs, *_):
    return xs[0]


def _concat(layer, xs, *_):
    a, b = xs
    if a.shape[:-1] != b.shape[:-1]:
        raise ShapeMismatch(
            f"concat {layer.name}: spatial shapes {a.shape[:-1]} vs {b.shape[:-1]}"
        )
    return np.concatenate([a, b], axis=-1)


def _weighted(kernel: str, shape, **kw) -> LayerKind:
    """A kind with a weight and a bias. Its float op is the kernel table's
    <kernel>; its int op is kernels.<kernel>_int_naive on the int8 input,
    its zero point and the stored weight and bias, or kernels.<kernel>_int
    on the centered input and the resolved ones (see LayerKind). Both are
    looked up at call time."""

    def int_op(layer, xs, ins, out, ts, naive):
        if naive:
            return getattr(kernels, f"{kernel}_int_naive")(xs[0], ins[0].zero_point, *ts)
        return getattr(kernels, f"{kernel}_int")(xs[0], *ts)

    return LayerKind(lambda l, xs, ts, k: k[kernel](xs[0], *ts), int_op,
                     (Tensor("weight", shape), Tensor("bias", _vec)), **kw)


def table_lookup(layer, xs, ins, out, ts, naive):
    """Int op of an elementwise kind: its float op tabulated over all 256
    int8 inputs, from -128 up (see quant.quantize_graph), looked up through
    kernels.lookup_int at call time."""
    return kernels.lookup_int(xs[0], *ts)


_CONV = _weighted("conv2d", lambda l: (l.kernel, l.kernel, l.in_ch, l.out_ch))

LAYER_KINDS: dict[str, LayerKind] = {
    "band_norm": LayerKind(lambda l, xs, *_: kernels.band_norm(xs[0]), per_pixel=True),
    "zscore": LayerKind(
        lambda l, xs, ts, k: kernels.zscore(xs[0], *ts),
        tensors=(Tensor("mean", _vec, "statistic"), Tensor("std", _vec, "statistic")),
        per_pixel=True,
    ),
    "conv3": _CONV,
    "conv1": _CONV,
    "upconv2": _weighted("upconv2", lambda l: (2, 2, l.in_ch, l.out_ch), resize=2.0),
    "dense": _weighted("dense", lambda l: (l.in_ch, l.out_ch), per_pixel=True),
    "batchnorm": LayerKind(
        lambda l, xs, ts, k: kernels.batchnorm_infer(xs[0], *ts),
        tensors=(Tensor("scale", _vec), Tensor("offset", _vec),
                 Tensor("mean", _vec, "non_trainable"),
                 Tensor("variance", _vec, "non_trainable")),
        per_pixel=True,
    ),
    "relu": LayerKind(
        lambda l, xs, *_: kernels.relu(xs[0]),
        lambda l, xs, ins, *_: kernels.relu_int(xs[0], ins[0].zero_point),
        inherits_scheme=True,
        per_pixel=True,
    ),
    "tanh": LayerKind(lambda l, xs, *_: np.tanh(xs[0]), table_lookup, per_pixel=True),
    "maxpool2": LayerKind(
        lambda l, xs, ts, k: k["maxpool2"](xs[0]),
        lambda l, xs, *_: kernels.maxpool2(xs[0]),
        inherits_scheme=True,
        resize=0.5,
    ),
    "dropout": LayerKind(_identity, _identity, inherits_scheme=True, per_pixel=True),
    # the int op first re-expresses both halves in the concat's own scheme
    "concat": LayerKind(
        _concat,
        lambda l, xs, ins, out, *_: _concat(l, [out.requant(q, s) for q, s in zip(xs, ins)]),
        arity=2,
    ),
    "softmax": LayerKind(lambda l, xs, *_: kernels.softmax(xs[0]), per_pixel=True),
}


def layer_tensors(layer: LayerSpec) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, role) of every tensor the layer reads, in table order."""
    return [(f"{layer.name}.{t.suffix}", t.shape(layer), t.role)
            for t in LAYER_KINDS[layer.kind].tensors]


# a model description, and an MLP's config; label masks are uint8 with 255
# the ignore label, so a model has at most 255 classes
MODEL = {"kind": Field(frozenset({"unet", "mlp"})), "config": Field(dict),
         "batchnorm_folded": Field(bool, default=False)}
MLP_CONFIG = {"in_channels": Field(int, 1), "classes": Field(int, 2, 255)}


@dataclass(frozen=True)
class UNetConfig:
    patch_size: int = json_field(128, int, 1)
    encoder_depth: int = json_field(2, int, 1, 16)
    initial_filters: int = json_field(8, int, 1)
    conv_kernel: int = json_field(3, int, 1)
    upconv_kernel: int = json_field(2, int, 2, 2)  # stride-2 doubling
    in_channels: int = json_field(25, int, 1)
    classes: int = json_field(3, int, 2, 255)
    dropout_rate: float = json_field(0.5, float, 0, 1)
    input_norm: str = json_field(
        "band_sum", frozenset({"band_sum", "zscore", "band_sum+zscore", "none"}))

    def __post_init__(self):
        fields(vars(self), json_spec(UNetConfig), "U-Net config", InvalidConfig)
        if self.patch_size % (2**self.encoder_depth):
            raise InvalidConfig(
                f"patch size {self.patch_size} not divisible by 2^{self.encoder_depth}"
            )
        if self.conv_kernel % 2 != 1:
            raise InvalidConfig("conv kernel must be odd for same padding")


def _conv_kind(kernel: int) -> str:
    return "conv1" if kernel == 1 else "conv3"


def build_unet(cfg: UNetConfig) -> ModelGraph:
    """Encoder-decoder graph: per level two conv+BN+ReLU blocks around
    stride-2 pooling/up-convolution, skip concatenations, dropout before the
    decoder, and a 1x1 classifier with softmax. Input normalization is part
    of the graph so raw reflectance cubes can be fed directly."""
    layers: list[LayerSpec] = []
    prev = "input"

    def add(name, kind, inputs, **kw):
        nonlocal prev
        layers.append(LayerSpec(name, kind, inputs, **kw))
        prev = name

    ch = cfg.in_channels
    if cfg.input_norm in ("band_sum", "band_sum+zscore"):
        add("norm.bands", "band_norm", (prev,), in_ch=ch, out_ch=ch)
    if cfg.input_norm in ("zscore", "band_sum+zscore"):
        add("norm.zscore", "zscore", (prev,), in_ch=ch, out_ch=ch)

    def conv_block(stage: str, idx: int, cin: int, cout: int):
        add(f"{stage}.conv{idx}", _conv_kind(cfg.conv_kernel), (prev,),
            in_ch=cin, out_ch=cout, kernel=cfg.conv_kernel)
        add(f"{stage}.bn{idx}", "batchnorm", (prev,), in_ch=cout, out_ch=cout)
        add(f"{stage}.relu{idx}", "relu", (prev,), in_ch=cout, out_ch=cout)

    skips: list[tuple[str, int]] = []
    for k in range(cfg.encoder_depth):
        f = cfg.initial_filters * 2**k
        conv_block(f"enc{k}", 0, ch, f)
        conv_block(f"enc{k}", 1, f, f)
        skips.append((prev, f))
        add(f"enc{k}.pool", "maxpool2", (prev,), in_ch=f, out_ch=f)
        ch = f

    f = cfg.initial_filters * 2**cfg.encoder_depth
    conv_block("bridge", 0, ch, f)
    conv_block("bridge", 1, f, f)
    ch = f
    add("bridge.dropout", "dropout", (prev,), in_ch=ch, out_ch=ch, rate=cfg.dropout_rate)

    for k in reversed(range(cfg.encoder_depth)):
        f = cfg.initial_filters * 2**k
        skip_name, skip_ch = skips[k]
        add(f"dec{k}.upconv", "upconv2", (prev,), in_ch=ch, out_ch=f,
            kernel=cfg.upconv_kernel)
        add(f"dec{k}.concat", "concat", (prev, skip_name),
            in_ch=f + skip_ch, out_ch=f + skip_ch)
        conv_block(f"dec{k}", 0, f + skip_ch, f)
        conv_block(f"dec{k}", 1, f, f)
        ch = f

    add("head.conv", "conv1", (prev,), in_ch=ch, out_ch=cfg.classes, kernel=1)
    add("head.softmax", "softmax", (prev,), in_ch=cfg.classes, out_ch=cfg.classes)

    # the description's config is the UNetConfig, key for field
    return ModelGraph(layers, meta={"kind": "unet", "config": asdict(cfg)})


def build_mlp(in_channels: int = 25, classes: int = 3) -> ModelGraph:
    """Per-pixel spectral classifier: band-sum and z-score normalization,
    then dense 25/100/100 hidden stack with tanh and a softmax head."""
    fields({"in_channels": in_channels, "classes": classes}, MLP_CONFIG, "MLP config",
           InvalidConfig)
    widths = [25, 100, 100, classes]
    layers = [
        LayerSpec("norm.bands", "band_norm", ("input",), in_channels, in_channels),
        LayerSpec("norm.zscore", "zscore", ("norm.bands",), in_channels, in_channels),
    ]
    prev, ch = "norm.zscore", in_channels
    for i, width in enumerate(widths):
        layers.append(LayerSpec(f"fc{i}", "dense", (prev,), ch, width))
        prev, ch = f"fc{i}", width
        if i < len(widths) - 1:
            layers.append(LayerSpec(f"act{i}", "tanh", (prev,), ch, ch))
            prev = f"act{i}"
    layers.append(LayerSpec("head.softmax", "softmax", (prev,), ch, ch))
    return ModelGraph(
        layers,
        meta={"kind": "mlp", "config": {"in_channels": in_channels, "classes": classes}},
    )


def build_from_meta(meta: dict, name: str = "model description") -> ModelGraph:
    """The graph of a model description (MODEL, with the config its kind
    reads); name says where it came from. Anything else raises InvalidConfig."""
    meta = fields(meta, MODEL, name, InvalidConfig)
    name = f"{name}: 'config'"
    if meta["kind"] == "mlp":
        return build_mlp(**fields(meta["config"], MLP_CONFIG, name, InvalidConfig))
    # every key: a .sdq's graph keeps the description as its meta
    spec = {k: f._replace(default=REQUIRED) for k, f in json_spec(UNetConfig).items()}
    cfg = fields(meta["config"], spec, name, InvalidConfig)
    return build_unet(construct(UNetConfig, cfg, name))


# pixels per block of map_pixel_blocks, chosen by measurement (numpy 2.4,
# OpenBLAS 0.3.31): 4096 moved the float softmax by 1 ulp, and 256 lost the
# gain to per-block Python overhead. OpenBLAS picks its sgemm path by row
# count, so a short block may sum a pixel's products in another order than
# a full one; pixel_blocks pads a short last block to the full PIXEL_BLOCK
# rows, and a pixel of an input over one block gets the same float bits
# whatever block it falls in
PIXEL_BLOCK = 2048


def _weight(weights: dict, key: str) -> np.ndarray:
    try:
        return weights[key]
    except KeyError:
        raise MissingWeights(f"missing tensor {key!r}") from None


def run(graph: ModelGraph, x, op):
    """The one layer loop: yields ("input", x), then (layer name,
    op(layer, its input tensors)) for every layer in order. A tensor is
    dropped once its last reader has run, so a caller that keeps only what
    it needs holds one layer's working set at a time."""
    last_use = {src: i for i, layer in enumerate(graph.layers) for src in layer.inputs}
    tensors = {"input": x}
    yield "input", x
    for i, layer in enumerate(graph.layers):
        tensors[layer.name] = out = op(layer, [tensors[src] for src in layer.inputs])
        for src in layer.inputs:
            if last_use[src] == i:
                tensors.pop(src, None)
        yield layer.name, out


def walk(graph: ModelGraph, x: np.ndarray, weights: dict, *, naive: bool = False):
    """Float32 inference one layer at a time: run with each kind's float op.
    The fast walk runs the graph with its batch norm folded (see
    fold_batchnorm), so no batchnorm layer runs or is yielded; the naive
    walk runs the graph as given."""
    if not naive:
        graph, weights = fold_batchnorm(graph, weights)
    kset = kernels.NAIVE_KERNELS if naive else kernels.FAST_KERNELS

    def op(layer, xs):
        ts = [_weight(weights, name) for name, _, _ in layer_tensors(layer)]
        return LAYER_KINDS[layer.kind].float_op(layer, xs, ts, kset).astype(
            np.float32, copy=False)

    yield from run(graph, np.asarray(x, dtype=np.float32), op)


def pixel_blocks(x: np.ndarray):
    """Yields x's pixels flattened to (PIXEL_BLOCK, C) rows, the short last
    block padded with copies of its last pixel; an x of one block or less
    unchanged, in its own shape. Each block is cut from the rows of x it
    spans, so a strided x (a patch view) is copied a block at a time, never
    whole."""
    c = x.shape[-1]
    if x.size <= PIXEL_BLOCK * c:  # one pixel, or one block or less
        yield x
        return
    rows = x.reshape(-1, x.shape[-2], c)  # a patch view stays a view
    w = rows.shape[1]
    n = len(rows) * w
    for a in range(0, n, PIXEL_BLOCK):
        b = min(a + PIXEL_BLOCK, n)
        block = rows[a // w : -(-b // w)].reshape(-1, c)[a % w : a % w + b - a]
        yield block if b - a == PIXEL_BLOCK else np.pad(
            block, ((0, a + PIXEL_BLOCK - b), (0, 0)), "edge")


def map_pixel_blocks(fn, x: np.ndarray, threads: int = 1) -> np.ndarray:
    """fn(x) for a function that maps (..., C) pixels to (..., K) outputs,
    run on pixel_blocks(x) on `threads` workers (tiling.map_patches). The
    padded rows' outputs are dropped before the blocks are joined, so the
    result holds exactly x's pixels."""
    outs = map_patches(fn, pixel_blocks(x), threads)
    k, last = outs[-1].shape[-1], math.prod(x.shape[:-1]) - PIXEL_BLOCK * (len(outs) - 1)
    outs[-1] = outs[-1].reshape(-1, k)[:last]
    return np.concatenate(outs).reshape(*x.shape[:-1], k)


def forward(graph: ModelGraph, x: np.ndarray, weights: dict, *, naive: bool = False):
    """Float32 inference on the whole input, keeping one layer's working
    set at a time. Dropout is identity; batch norm uses its stored
    statistics, folded into the layer before it unless naive (see walk).
    walk gives every intermediate tensor."""
    for _, out in walk(graph, x, weights, naive=naive):
        pass
    return out


def split_input(graph: ModelGraph) -> tuple[ModelGraph, ModelGraph]:
    """(prefix, body): the graph's leading chain of per-pixel layers without
    an int op (its input normalization, band_norm and zscore) and the rest
    of the graph, which reads the prefix's output under the name "input".
    The prefix runs on any grouping of pixels, so it can run once over a
    whole cube and the body per patch. The body keeps at least the last
    layer and reads no prefix tensor but the prefix's output."""
    n, prev = 0, "input"
    for layer in graph.layers[:-1]:
        kind = LAYER_KINDS[layer.kind]
        if not (kind.per_pixel and kind.int_op is None and layer.inputs == (prev,)):
            break
        n, prev = n + 1, layer.name
    names = ["input"] + [l.name for l in graph.layers[:n]]
    while n and any(src in names[:n] for l in graph.layers[n:] for src in l.inputs):
        n -= 1
    body = [replace(l, inputs=tuple("input" if s == names[n] else s for s in l.inputs))
            for l in graph.layers[n:]]
    return ModelGraph(graph.layers[:n], graph.meta), ModelGraph(body, graph.meta)


def run_input_prefix(graph: ModelGraph, x: np.ndarray, weights: dict):
    """(body, prefix output): graph split by split_input, its prefix run
    once over x in blocks of PIXEL_BLOCK pixels (map_pixel_blocks).
    forward(body, patch of the output) is the same bits as forward(graph,
    patch of x)."""
    prefix, body = split_input(graph)
    return body, map_pixel_blocks(partial(forward, prefix, weights=weights),
                                  np.asarray(x, np.float32))


def fold_layers(graph: ModelGraph) -> list[LayerSpec]:
    """The weight-free half of fold_batchnorm: graph's layers without its
    batchnorm layers, each reader of one reading the layer it folds into.
    A batchnorm must directly follow a layer with a weight."""
    kinds = {l.name: LAYER_KINDS[l.kind] for l in graph.layers}
    renames: dict[str, str] = {}
    for layer in graph.layers:
        if layer.kind == "batchnorm":
            if all(t.suffix != "weight" for t in kinds[layer.inputs[0]].tensors):
                raise StructureError(
                    f"batchnorm {layer.name} does not directly follow a weighted layer")
            renames[layer.name] = layer.inputs[0]
    return [replace(l, inputs=tuple(renames.get(i, i) for i in l.inputs))
            for l in graph.layers if l.kind != "batchnorm"]


def fold_batchnorm(graph: ModelGraph, weights: dict) -> tuple[ModelGraph, dict]:
    """Fold every batch-norm into the convolution (or dense layer) that feeds it.

    Returns fold_layers' graph and a matching weight dict, whose tensors are
    the given ones except each folded weight and bias; outputs agree with
    the unfolded network up to float rounding. A graph without batchnorm
    layers comes back as the same (graph, weights) objects, so folding a
    folded graph costs a scan of its layers.
    """
    bns = [l for l in graph.layers if l.kind == "batchnorm"]
    if not bns:
        return graph, weights
    layers = fold_layers(graph)
    bn_tensors = {name for l in bns for name, _, _ in layer_tensors(l)}
    folded_weights = {k: v for k, v in weights.items() if k not in bn_tensors}
    for layer in bns:
        scale, offset, mean, var = (_weight(weights, name).astype(np.float64)
                                    for name, _, _ in layer_tensors(layer))
        inv = scale / np.sqrt(var + kernels.BN_EPS)
        wkey, bkey = f"{layer.inputs[0]}.weight", f"{layer.inputs[0]}.bias"
        w = _weight(folded_weights, wkey).astype(np.float64)
        b = _weight(folded_weights, bkey).astype(np.float64)
        folded_weights[wkey] = (w * inv).astype(np.float32)
        folded_weights[bkey] = ((b - mean) * inv + offset).astype(np.float32)
    return ModelGraph(layers, meta={**graph.meta, "batchnorm_folded": True}), folded_weights

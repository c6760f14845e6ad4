"""Full-integer post-training quantization and integer inference.

Weights are quantized per-tensor symmetric (int8, zero point 0), activations
per-tensor asymmetric affine (int8), biases int32 at scale
s_input * s_weight. Kernel layers accumulate in 32 bits and requantize
through a real-valued multiplier with round-half-away-from-zero; tanh runs
as a 256-entry int8 lookup table. Input normalization stays in float in
front of the quantization boundary and the final softmax runs in float after
dequantization.

The reference tail of a kernel layer (requantize) multiplies its int32
accumulator into float64 in units of the output scale, rounds half away
from zero, adds the zero point and clips to int8. The naive walk holds
every int8 tensor as int8, runs the naive kernels' int32 accumulators
through that tail and every relu and tanh on its own: it is the oracle.

The fast walk holds every int8 tensor q centered, as the float32 array
q - zero point (QuantScheme.center): exact small integers, the operand a
fast integer kernel reads as it is (see kernels). The reference tail is
monotone in the accumulator, so the fast walk requantizes through a table
instead: one entry per accumulator from the last one the tail saturates at
-128 to the first one it saturates at 127 (see requant_table), each entry
the output centered in the scheme it is read in, so one take yields the
next kernel's input. A table is filled from the reference tail, so fast
and naive keep the same bits. A kernel layer's lookup is one index pass,
the exact float accumulator plus bias - lo added straight into intp, and
one take that clamps to the table's ends (_fold, _lookup). When a kernel
layer's only reader is a relu or a tanh (COMPOSABLE), the reader's int op
is applied to the table and the reader passes its input through. A layer
whose table would pass MAX_TABLE entries runs the reference tail and
centers its output. A tanh that no table absorbs, and a concat's input in
another scheme than the concat's, look their centered input up in a
256-entry centered table. Every layer's operands (its table or reference
tail, composed reader, weight in the dtype it accumulates exactly in,
bias, zero points) are resolved once per QuantizedGraph, on first use,
and kept with it (QuantizedGraph.steps; cli.infer_cube resolves them
before its workers start). qwalk walks without tables, so every tensor is
its own layer's output.

Every int8 value the package makes (a quantized weight, input or tanh
table, a kernel layer's or a concat's reference requantization) ends in one
tail, QuantScheme._to_int8: round half away, clip to the int8 range less
the zero point, add the zero point; the fast walk's quantized input stops
before the add (quant_centered). A NaN or infinity has no int8 value:
_clipped, which both tails share, refuses one (NonFinite), so the two
walks cannot map it differently. Both int8 walks run on model.run, the
float walk's layer loop (see _qwalk).

A U-Net's input prefix, its leading per-pixel float layers (input
normalization), needs no neighbours. run_input_prefix, its one runner for
a float U-Net and an int8 one alike, runs it once over a whole cube, in
pixel blocks (model.map_pixel_blocks), and for an int8 model quantizes its
output there too; qforward takes an int8 input as already quantized in
the scheme of "input".
qforward, like model.forward, runs any input whole: a caller that runs a
per-pixel graph over a cube (cli.infer_cube) blocks it with the same map.

Batch norm is folded into the convolutions before quantization, as the
float walk that calibrates the ranges folds it (see model.walk).

A quantized graph is (graph, schemes, tensors), as a float model is
(graph, weights). stored_tensors names each layer's tensors, keyed
"<layer>.<suffix>", and their dtypes. schemes holds each activation's
scheme by layer name and each int8 weight's and int32 bias's by tensor
name; a bias's is (s_in * s_w, 0). A .sdq file holds the tensors in layer
order; load_qgraph reads them by name, requires exactly the stored set, and
checks the layers against the model description's folded graph.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from . import kernels
from .complexity import count_params
from .errors import (
    CorruptContainer,
    EmptyCalibration,
    Field,
    NonFinite,
    RangeMissing,
    ShapeMismatch,
    StructureError,
    fields,
)
from .formats import read_container, write_container
from .model import (
    LAYER_KINDS,
    LayerSpec,
    ModelGraph,
    _weight,
    build_from_meta,
    check_divisors,
    fold_batchnorm,
    fold_layers,
    forward,
    layer_tensors,
    map_pixel_blocks,
    pixel_blocks,
    run,
    split_input,
    table_lookup,
    walk,
)

MAGIC = b"SDQ1"
# degenerate calibration ranges are widened to at least this half-span
MIN_HALF_SPAN = 1e-3
# the longest requantization table built, in float32 entries: it bounds a
# table's memory at 16 MiB, where the widest layer of a benchmark U-Net
# (seed 4242) spans 0.64M accumulators. A layer whose unsaturated accumulator
# range is wider runs the reference tail. It keeps |lo| below 2^23 and every
# table shorter than 2^24, which the fast lookup's exactness needs (_lookup).
MAX_TABLE = 2**22
# kinds whose int op maps each int8 value on its own, so a requantization
# table can absorb one that is its kernel layer's only reader
COMPOSABLE = ("relu", "tanh")
# every int8 value, from -128 up: the index range of a 256-entry table
_INT8 = np.arange(-128, 128, dtype=np.int8)


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to the nearest integer, ties away from zero, in one buffer:
    trunc(x + copysign(0.5, x)). Float addition rounds symmetrically, so this
    equals sign(x) * floor(|x| + 0.5) for every x (-0.0 stays -0.0)."""
    out = np.copysign(0.5, x)
    out += x
    return np.trunc(out, out=out)


@dataclass(frozen=True)
class QuantScheme:
    scale: float
    zero_point: int

    def _clipped(self, v: np.ndarray) -> np.ndarray:
        """round(v) saturated to the int8 range less the zero point,
        [-128 - zp, 127 - zp], for an owned float64 buffer v in units of
        this scale: round half away, clip. Every float value enters int8
        here, so a NaN or infinity, which has no int8 value, raises
        NonFinite here, for both walks alike."""
        if not np.isfinite(v).all():
            raise NonFinite(f"a non-finite value cannot be quantized (scale {self.scale:g})")
        v = round_half_away(v)
        return np.clip(v, -128 - self.zero_point, 127 - self.zero_point, out=v)

    def _to_int8(self, v: np.ndarray) -> np.ndarray:
        """int8 of round(v) + zero point, saturating, for an owned float64
        buffer v in units of this scale: _clipped, then the zero point added
        straight into the int8 output. Clipping before the add is exact:
        the add only moves integers, and a value it would round clips to
        the same end."""
        return np.add(self._clipped(v), self.zero_point, out=np.empty(v.shape, np.int8),
                      casting="unsafe")

    def quant(self, x: np.ndarray) -> np.ndarray:
        return self._to_int8(np.divide(x, self.scale, dtype=np.float64))

    def center(self, q: np.ndarray) -> np.ndarray:
        """int8 values q as the fast walk carries them: q - zero point, the
        exact small integers a fast integer kernel reads, in float32."""
        return np.subtract(q, self.zero_point, dtype=np.float32)

    def quant_centered(self, x: np.ndarray) -> np.ndarray:
        """center(quant(x)), without the int8 step."""
        return self._clipped(np.divide(x, self.scale, dtype=np.float64)).astype(np.float32)

    def dequant(self, q: np.ndarray) -> np.ndarray:
        """The float32 values of int8 q, or of centered values (see center)."""
        if q.dtype == np.int8:
            q = np.subtract(q, self.zero_point, dtype=np.float64)
        return np.multiply(q, self.scale, dtype=np.float64).astype(np.float32)

    def requant(self, q: np.ndarray, src: "QuantScheme") -> np.ndarray:
        """Re-express int8 values held in scheme src in this scheme:
        requantize of q - zp_src at the ratio of the scales."""
        if src == self:
            return q
        return requantize(np.subtract(q, src.zero_point, dtype=np.int32),
                          src.scale / self.scale, self)

    @classmethod
    def symmetric_for(cls, tensor: np.ndarray) -> "QuantScheme":
        peak = float(np.max(np.abs(tensor))) if tensor.size else 0.0
        peak = max(peak, MIN_HALF_SPAN)
        return cls(scale=peak / 127.0, zero_point=0)

    @classmethod
    def affine_for(cls, lo: float, hi: float) -> "QuantScheme":
        lo = min(0.0, float(lo))
        hi = max(0.0, float(hi))
        if hi - lo < 2 * MIN_HALF_SPAN:
            lo = min(lo, -MIN_HALF_SPAN)
            hi = max(hi, MIN_HALF_SPAN)
        scale = (hi - lo) / 255.0
        zp = int(round(-128 - lo / scale))
        return cls(scale=scale, zero_point=int(np.clip(zp, -128, 127)))


@dataclass
class QuantizedGraph:
    graph: ModelGraph  # folded, batchnorm-free
    schemes: dict[str, QuantScheme]  # activations by layer, weights and biases by tensor
    tensors: dict[str, np.ndarray]  # stored_tensors of every layer

    @property
    def meta(self) -> dict:
        """The model description, as a float graph's meta."""
        return self.graph.meta

    @cached_property
    def tables(self) -> dict[str, "RequantTable"]:
        """The fast walk's requantization tables (see requant_tables),
        built on first use and kept with this graph, whose schemes and
        tensors are not changed after."""
        return requant_tables(self)

    @cached_property
    def steps(self) -> dict:
        """The fast walk's layer ops on these tables (see _steps), resolved
        on first use and kept, as the tables are."""
        return _steps(self, self.tables)


@dataclass(frozen=True)
class SizeReport:
    float_bytes: int
    quantized_bytes: int

    @property
    def ratio(self) -> float:
        return self.quantized_bytes / self.float_bytes


def calibrate(graph: ModelGraph, weights: dict, calib: list[np.ndarray]) -> dict:
    """Record the running min/max of every tensor (input and all layer
    outputs) over the calibration samples. Min/max folding is commutative,
    so sample order does not matter, and a per-pixel graph walks every
    sample, whatever its size, in full pixel blocks (model.pixel_blocks),
    whose padded rows repeat a pixel of the sample, without changing a
    range."""
    if len(calib) == 0:
        raise EmptyCalibration("need at least one calibration sample")
    ranges: dict[str, tuple[float, float]] = {}
    for sample in calib:
        sample = np.asarray(sample, np.float32)
        for block in pixel_blocks(sample) if graph.per_pixel else [sample]:
            for name, arr in walk(graph, block, weights):
                lo, hi = float(arr.min()), float(arr.max())
                if name in ranges:
                    plo, phi = ranges[name]
                    ranges[name] = (min(plo, lo), max(phi, hi))
                else:
                    ranges[name] = (lo, hi)
    return ranges


def _accumulates(kind) -> bool:
    """Whether a kind's int op is a kernel with a weight and a bias, giving
    an int32 accumulator."""
    return kind.int_op is not None and bool(kind.tensors)


def stored_tensors(layer: LayerSpec) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, dtype) of every tensor a quantized layer stores: a
    float-domain layer's own tensors as float32, one int8 256-entry table
    for a table-lookup kind, and an int8 weight and an int32 bias for a
    weighted kind."""
    kind = LAYER_KINDS[layer.kind]
    if kind.int_op is table_lookup:
        return [(f"{layer.name}.lut", (256,), "<i1")]
    dtypes = ("<i1", "<i4") if _accumulates(kind) else ("<f4",) * len(kind.tensors)
    return [(name, shape, d) for (name, shape, _), d in zip(layer_tensors(layer), dtypes)]


def _assign_schemes(graph: ModelGraph, ranges: dict) -> dict[str, QuantScheme]:
    """Effective scheme per tensor. Kernel layers, concat and tanh get their
    own recorded range; relu/maxpool/dropout inherit their input's scheme so
    those ops add no requantization error."""
    def from_range(name: str) -> QuantScheme:
        if name not in ranges:
            raise RangeMissing(f"no calibration range for tensor {name!r}")
        return QuantScheme.affine_for(*ranges[name])

    schemes: dict[str, QuantScheme] = {}
    for layer in graph.layers:
        kind = LAYER_KINDS[layer.kind]
        if kind.int_op is None:
            continue
        for src in layer.inputs:
            if src not in schemes:  # quantization boundary: float producer
                schemes[src] = from_range(src)
        if kind.inherits_scheme:
            schemes[layer.name] = schemes[layer.inputs[0]]
        else:
            schemes[layer.name] = from_range(layer.name)
    return schemes


def _acc_dtype(layer: LayerSpec, wq: np.ndarray, bias_q: np.ndarray) -> type:
    """The dtype a kernel layer's fast kernel accumulates exactly in, once
    its worst-case int32 accumulator is proven safe (kernels._check_acc_bound):
    every product one output sums at its largest magnitude, plus the largest
    bias. An output sums the weight's axes but the last, less the taps a
    resizing kind spends on other outputs (3 of upconv2's 4)."""
    terms = int(np.prod(wq.shape[:-1])) // round(LAYER_KINDS[layer.kind].resize**2)
    return kernels._check_acc_bound(terms, bias_q)


def quantize_graph(graph: ModelGraph, weights: dict, ranges: dict) -> QuantizedGraph:
    """Quantize a float graph, its batch norm folded, given activation
    ranges from calibrate, which sees the same folded graph."""
    graph, weights = fold_batchnorm(graph, weights)
    schemes = _assign_schemes(graph, ranges)
    tensors: dict[str, np.ndarray] = {}
    for layer in graph.layers:
        kind = LAYER_KINDS[layer.kind]
        stored = stored_tensors(layer)
        if kind.int_op is None:  # float-domain kinds keep their tensors
            for name, _, dtype in stored:
                tensors[name] = np.asarray(_weight(weights, name), dtype)
        elif kind.int_op is table_lookup:
            s_in = schemes[layer.inputs[0]]
            s_out = schemes[layer.name]
            q = np.arange(-128, 128, dtype=np.float64)
            y = kind.float_op(layer, [(q - s_in.zero_point) * s_in.scale], (),
                              kernels.FAST_KERNELS)
            tensors[stored[0][0]] = s_out.quant(y)
        elif stored:  # int8 weight, int32 bias
            (wname, _, _), (bname, _, _) = stored
            w, b = _weight(weights, wname), _weight(weights, bname)
            wscheme = QuantScheme.symmetric_for(w)
            wq = wscheme.quant(w)  # |w / scale| <= 127: symmetric_for's peak
            bscheme = QuantScheme(schemes[layer.inputs[0]].scale * wscheme.scale, 0)
            bias_q = round_half_away(b.astype(np.float64) / bscheme.scale)
            if np.abs(bias_q).max(initial=0) >= 2**31:
                raise ShapeMismatch(f"bias of {layer.name} overflows int32")
            _acc_dtype(layer, wq, bias_q.astype(np.int64))
            schemes[wname], schemes[bname] = wscheme, bscheme
            tensors[wname], tensors[bname] = wq, bias_q.astype(np.int32)
    return QuantizedGraph(graph, schemes, tensors)


def quantize_model(
    graph: ModelGraph, weights: dict, calib: list[np.ndarray]
) -> QuantizedGraph:
    """Fold, calibrate and quantize in one step; the graph is folded once,
    so neither calibrate's walks nor quantize_graph fold it again."""
    graph, weights = fold_batchnorm(graph, weights)
    return quantize_graph(graph, weights, calibrate(graph, weights, calib))


class RequantTable(NamedTuple):
    """A kernel layer's requantization as a lookup: table[a - lo] is the
    output of accumulator a for a in [lo, lo + len(table)), and
    accumulators beyond either end give the end's entry. An entry is the
    output as the fast walk carries it, centered (QuantScheme.center) in
    the scheme it is read in: the composed reader's, else the layer's."""
    lo: int
    table: np.ndarray  # float32
    composes: bool  # the layer's one reader (a COMPOSABLE kind) is in the table


def _ratio(qg: QuantizedGraph, layer: LayerSpec) -> float:
    """A kernel layer's accumulator scale (its bias's) over its output scale."""
    bias = stored_tensors(layer)[1][0]
    return qg.schemes[bias].scale / qg.schemes[layer.name].scale


def requantize(acc: np.ndarray, ratio: float, scheme: QuantScheme) -> np.ndarray:
    """The reference tail: an accumulator at ratio times scheme's scale,
    multiplied into float64 in units of scheme's scale, rounded, offset by
    the zero point and clipped to int8."""
    return scheme._to_int8(np.multiply(acc, ratio, dtype=np.float64))


def requant_table(ratio: float, scheme: QuantScheme, after=None):
    """(lo, table) of requantize(acc, ratio, scheme), then the int8 op
    after if given, as RequantTable describes; None past MAX_TABLE entries.

    The tail is monotone in the accumulator and takes at most 256 values,
    so the table is a run of each. Run k starts at the first accumulator the
    reference tail takes to k or above, found among the five integers around
    its estimate (k - zp - 0.5) / ratio. lo is the last accumulator that
    saturates at -128 and the table ends at the first one that saturates at
    127, so clamping any accumulator into the table is exact."""
    k = np.arange(-127, 128)
    est = np.ceil((k - scheme.zero_point - 0.5) / ratio)
    if not est[-1] - est[0] + 2 <= MAX_TABLE:  # NaN when both ends overflow
        return None
    near = est.astype(np.int64)[:, None] + np.arange(-2, 3)
    reached = requantize(near, ratio, scheme) >= k[:, None]
    assert not reached[:, 0].any() and reached[:, -1].all(), "boundary estimate off"
    starts = near[np.arange(len(k)), reached.argmax(axis=1)]
    lo, hi = int(starts[0]) - 1, int(starts[-1])
    runs = np.diff(np.concatenate(([lo], starts, [hi + 1])))
    return lo, np.repeat(_INT8 if after is None else after(_INT8), runs)


def requant_tables(qg: QuantizedGraph) -> dict[str, RequantTable]:
    """A RequantTable for every kernel layer of qg within MAX_TABLE. When
    the layer's only reader is a relu or a tanh, the table holds that
    reader's int op applied to the requantized value, and the fast walk
    passes the reader its input."""
    readers: dict[str, list[LayerSpec]] = {}
    for layer in qg.graph.layers:
        for src in layer.inputs:
            readers.setdefault(src, []).append(layer)
    tables = {}
    for layer in qg.graph.layers:
        if not _accumulates(LAYER_KINDS[layer.kind]):
            continue
        reader = readers.get(layer.name, [])
        composes = len(reader) == 1 and reader[0].kind in COMPOSABLE
        built = requant_table(_ratio(qg, layer), qg.schemes[layer.name],
                              _unary_int_op(qg, reader[0]) if composes else None)
        if built is not None:
            lo, table = built
            read = qg.schemes[reader[0].name if composes else layer.name]
            tables[layer.name] = RequantTable(lo, read.center(table), composes)
    return tables


def _unary_int_op(qg: QuantizedGraph, layer: LayerSpec):
    """A one-input layer's int op, as a function of its int8 input."""
    kind = LAYER_KINDS[layer.kind]
    ins, out = [qg.schemes[layer.inputs[0]]], qg.schemes[layer.name]
    return lambda q: kind.int_op(layer, [q], ins, out, _stored(qg, layer), False)


def _stored(qg: QuantizedGraph, layer: LayerSpec) -> list[np.ndarray]:
    """The tensors qg stores for layer, in stored_tensors order."""
    return [_weight(qg.tensors, t) for t, _, _ in stored_tensors(layer)]


def _lookup(a: np.ndarray, addend, table: np.ndarray, out=None) -> np.ndarray:
    """table's entry at a + addend for every value of a, clamped into the
    table, into out if given: one index pass, added in a's dtype straight
    into intp, and one take. a and addend hold integers exact in their
    dtype, so the add rounds only where the sum's magnitude is 2^24 or more
    (in float32), and a rounded sum stays that large, so it clamps to the
    same end entry as the exact one: a table has at most MAX_TABLE < 2^24
    entries."""
    index = np.add(a, addend, out=np.empty(a.shape, np.intp), casting="unsafe")
    return table.take(index, mode="clip", out=out)


def _fold(bias: np.ndarray, lo: int, dtype) -> tuple:
    """(the bias a kernel adds, the addend of its lookup's index pass) for
    a kernel layer accumulating in dtype with a table from lo: the bias
    folds into the index pass, (None, bias - lo), wherever bias - lo is
    exact in dtype; elsewhere (bias, -lo), and -lo is exact in float32,
    since MAX_TABLE bounds |lo| below 2^23 (see requant_table)."""
    shift = bias.astype(np.int64) - lo
    if np.array_equal(shift.astype(dtype), shift):
        return None, shift.astype(dtype)
    return bias.astype(dtype), dtype(-lo)


# the scheme an int op reads the fast walk's centered values in: q - zp
# behaves as an int8 value of zero point 0 for an op that commutes with the
# shift, as relu, maxpool2, dropout and a concat of inputs in its own scheme do
_CENTERED = QuantScheme(1.0, 0)


def _steps(qg: QuantizedGraph, tables: dict[str, RequantTable] | None) -> dict:
    """Every layer's op in one int8 walk of qg, by name, resolved once: a
    function of the layer's inputs, already in its domain (see _qwalk). A
    float layer runs its float op on its stored tensors. With tables None,
    the naive walk's ops: each int op on int8 inputs and stored tensors,
    and a kernel layer's int32 accumulator through the reference tail.
    Otherwise the fast walk's, on centered inputs (QuantScheme.center),
    giving centered outputs:
    - a reader composed into its producer's table passes its input through;
    - a kernel layer runs its fast kernel on its weight, resolved once in the
      dtype its accumulation is exact in, then one lookup in its table
      (_fold, _lookup) or, without one in tables, the reference tail;
    - a table-lookup kind (tanh) looks its input up in its int op tabulated
      over the 256 int8 values, centered;
    - any other int kind re-expresses each input held in another scheme in
      its own through such a table of requant, then runs its int op at
      _CENTERED."""
    return {layer.name: _step(qg, layer, tables) for layer in qg.graph.layers}


def _step(qg: QuantizedGraph, layer: LayerSpec, tables: dict[str, RequantTable] | None):
    """One layer's op of _steps."""
    kind = LAYER_KINDS[layer.kind]
    ts = _stored(qg, layer)
    if kind.int_op is None:
        kset = kernels.NAIVE_KERNELS if tables is None else kernels.FAST_KERNELS
        return lambda xs: kind.float_op(layer, xs, ts, kset)
    ins, out = [qg.schemes[src] for src in layer.inputs], qg.schemes[layer.name]
    if tables is None:
        if not _accumulates(kind):
            return lambda xs: kind.int_op(layer, xs, ins, out, ts, True)
        ratio = _ratio(qg, layer)
        return lambda xs: requantize(kind.int_op(layer, xs, ins, out, ts, True), ratio, out)
    producer = tables.get(layer.inputs[0])
    if producer is not None and producer.composes:  # ran in that table
        return lambda xs: xs[0]
    if _accumulates(kind):
        wq, bq = ts
        dtype = _acc_dtype(layer, wq, bq)
        w, table = wq.astype(dtype), tables.get(layer.name)
        if table is None:
            ts, ratio = (w, bq.astype(dtype)), _ratio(qg, layer)
            return lambda xs: out.center(requantize(
                kind.int_op(layer, xs, ins, out, ts, False), ratio, out))
        b, addend = _fold(bq, table.lo, dtype)

        def step(xs):
            acc = kind.int_op(layer, xs, ins, out, (w, b), False)
            # a float32 accumulator's own buffer takes the entries
            return _lookup(acc, addend, table.table, acc if dtype is np.float32 else None)

        return step
    # 256-entry tables from q = -128, indexed by the centered value + zp + 128
    if kind.int_op is table_lookup:
        lut = out.center(_unary_int_op(qg, layer)(_INT8))
        shift = np.float32(ins[0].zero_point + 128)
        return lambda xs: _lookup(xs[0], shift, lut)
    rex = [None if s == out else (np.float32(s.zero_point + 128),
                                  out.center(out.requant(_INT8, s))) for s in ins]
    centered = [_CENTERED] * len(ins)
    return lambda xs: kind.int_op(
        layer, [v if r is None else _lookup(v, *r) for v, r in zip(xs, rex)],
        centered, _CENTERED, ts, False)


def _qwalk(qg: QuantizedGraph, x, naive: bool, steps: dict):
    """One walk of the quantized graph over x, on model.run with steps (see
    _steps): yields (name, value, whether it is quantized). x is float, read
    as float32, or int8 already quantized in the scheme of "input" (see
    run_input_prefix), which qg must then hold. A layer with an int op
    gives a quantized tensor, and so does x when it is int8; the naive walk
    holds one as int8, the fast walk centered (an int8 x is centered once,
    here). A layer of the other domain reads a tensor quantized or
    dequantized through the tensor's scheme."""
    x, schemes = np.asarray(x), qg.schemes
    to_int = QuantScheme.quant if naive else QuantScheme.quant_centered
    quantized = {l.name for l in qg.graph.layers if LAYER_KINDS[l.kind].int_op}
    if x.dtype != np.int8:
        x = x.astype(np.float32, copy=False)
    elif "input" not in schemes:
        raise RangeMissing('an int8 input needs a scheme for "input"')
    else:
        quantized.add("input")
        x = x if naive else schemes["input"].center(x)

    def op(layer, xs):
        if layer.name in quantized:
            xs = [v if src in quantized else to_int(schemes[src], v)
                  for src, v in zip(layer.inputs, xs)]
        else:
            xs = [schemes[src].dequant(v) if src in quantized else v
                  for src, v in zip(layer.inputs, xs)]
        return steps[layer.name](xs)

    for name, v in run(qg.graph, x, op):
        yield name, v, name in quantized


def qwalk(qg: QuantizedGraph, x: np.ndarray):
    """Integer inference one layer at a time, for error analysis against
    the float walk (model.walk): yields ("input", x), then (layer name,
    output) for every layer, from one whole-tensor walk on the fast kernels
    without requantization tables, so every tensor is its own layer's
    output. Each quantized tensor is dequantized through its scheme."""
    for name, v, quantized in _qwalk(qg, x, False, _steps(qg, {})):
        yield name, qg.schemes[name].dequant(v) if quantized else v


def qforward(qg: QuantizedGraph, x: np.ndarray, *, naive: bool = False):
    """Integer inference on the whole input, as model.forward. Input
    normalization runs in float, the body in int8 with int32 accumulators
    (held centered in the fast walk, see _qwalk), and the head dequantizes
    before softmax. An int8 x is taken as already quantized in the scheme of
    "input" (see run_input_prefix). The result is the same bits as qwalk's
    output; without naive, relus and tanhs fold into the requantization
    before them."""
    for name, out, quantized in _qwalk(qg, x, naive, _steps(qg, None) if naive else qg.steps):
        pass
    return qg.schemes[name].dequant(out) if quantized else out


def run_input_prefix(model, x: np.ndarray, weights: dict | None = None):
    """(body, prefix output) for a U-Net, its float graph with weights or a
    QuantizedGraph: model.split_input's prefix, the input normalization,
    run once over x in blocks of model.PIXEL_BLOCK pixels
    (model.map_pixel_blocks). A quantized model's body reads the prefix
    output in int8, so each block's output is quantized in the scheme of
    the layers that read it; a float layer of the body reading it raises
    StructureError. forward(body, patch of the output, weights), or
    qforward(body, ...), is the same bits as the whole model on the patch
    of x."""
    quantized = isinstance(model, QuantizedGraph)
    prefix, body = split_input(model.graph if quantized else model)
    norm = partial(forward, prefix, weights=model.tensors if quantized else weights)
    if not quantized:
        return body, map_pixel_blocks(norm, x)
    if any(LAYER_KINDS[l.kind].int_op is None for l in body.layers if "input" in l.inputs):
        raise StructureError(f"a float layer of the body reads {prefix.output_name!r}, the "
                             "prefix output, which a quantized body reads in int8")
    scheme = model.schemes[prefix.output_name]
    body = QuantizedGraph(body, {**model.schemes, "input": scheme}, model.tensors)
    return body, map_pixel_blocks(lambda b: scheme.quant(norm(b)), x)


@dataclass
class QuantReport:
    size: SizeReport
    per_layer: dict[str, tuple[float, float]]  # name -> (mean abs err, max abs err)
    argmax_agreement: float


def payload_bytes(qg: QuantizedGraph) -> int:
    return sum(arr.nbytes for arr in qg.tensors.values())


def quant_report(
    graph: ModelGraph,
    weights: dict,
    qg: QuantizedGraph,
    probe: list[np.ndarray],
) -> QuantReport:
    """Byte accounting plus float-vs-integer error statistics on a probe set."""
    float_bytes = 4 * count_params(graph).np_total
    size = SizeReport(float_bytes=float_bytes, quantized_bytes=payload_bytes(qg))

    sums: dict[str, list[float]] = {}
    agree = 0
    total = 0
    for sample in probe:
        ftens = dict(walk(graph, sample, weights))
        qtens = dict(qwalk(qg, sample))
        for name in ftens:
            if name == "input" or name not in qtens:
                continue
            err = np.abs(ftens[name].astype(np.float64) - qtens[name])
            entry = sums.setdefault(name, [0.0, 0.0, 0.0])
            entry[0] += float(err.sum())
            entry[1] = max(entry[1], float(err.max()))
            entry[2] += err.size
        f_lab = np.argmax(ftens[graph.output_name], axis=-1)
        q_lab = np.argmax(qtens[graph.output_name], axis=-1)
        agree += int((f_lab == q_lab).sum())
        total += f_lab.size
    per_layer = {n: (s / cnt, peak) for n, (s, peak, cnt) in sums.items()}
    return QuantReport(
        size=size,
        per_layer=per_layer,
        argmax_agreement=agree / total if total else 1.0,
    )


def save_qgraph(path, qg: QuantizedGraph) -> None:
    tensors = []
    for layer in qg.graph.layers:
        for name, _, dtype in stored_tensors(layer):
            arr = np.ascontiguousarray(qg.tensors[name], dtype=dtype)
            entry = {"name": name, "shape": list(arr.shape), "dtype": dtype}
            if name in qg.schemes:
                entry.update(asdict(qg.schemes[name]))
            tensors.append((entry, arr))
    header = {
        "format": "sdq",
        "version": 1,
        "model": qg.graph.meta,
        "layers": [asdict(l) for l in qg.graph.layers],
        "activations": {n: asdict(s) for n, s in qg.schemes.items() if n not in qg.tensors},
    }
    write_container(path, MAGIC, header, tensors)


# a scheme's keys: an activation's object holds them, and so does the
# manifest entry of an int8 weight or int32 bias (ENTRY: null elsewhere).
# Scales in [2^-100, 2^100] keep a requantization ratio and an int32
# accumulator times it finite in float64, where the tails compute, and a
# dequantized value (below 2^108) in float32; a wider scale gave NaN or
# undefined int8 values. Calibrated scales lie far inside (a bias's >= ~6e-11).
SCHEME = {"scale": Field(float, 2.0**-100, 2.0**100), "zero_point": Field(int, -128, 127)}
ENTRY = {k: f._replace(default=None) for k, f in SCHEME.items()}
LAYER = {"name": Field(str), "kind": Field(str), "inputs": Field([str]),
         "in_ch": Field(int), "out_ch": Field(int), "kernel": Field(int),
         "rate": Field(float)}
HEADER = {"format": Field(frozenset({"sdq"})), "version": Field(int, 1, 1),
          "model": Field(dict), "layers": Field([LAYER]), "activations": Field(dict)}


def load_qgraph(path) -> QuantizedGraph:
    """Read a quantized container back. The model description and the
    schemes must be valid, the layers must be the description's graph with
    its batch norm folded, and the file must hold exactly the tensors
    stored_tensors names, in any order, with int8 weights in [-127, 127]
    and every zscore std > 0."""
    header, arrays = read_container(path, MAGIC, {t: t for t in ("<i1", "<i4", "<f4")},
                                    HEADER, ENTRY)
    model = build_from_meta(header["model"], f"{path}: 'model'")
    graph = ModelGraph([LayerSpec(**d) for d in header["layers"]], meta=header["model"])
    if graph.layers != fold_layers(model):
        raise CorruptContainer(f"{path}: layers are not the model's folded graph")
    schemes = {n: QuantScheme(**fields(v, SCHEME, f"{path}: activation {n!r}",
                                       CorruptContainer))
               for n, v in header["activations"].items()}
    tensors: dict[str, np.ndarray] = {}
    for layer in graph.layers:
        kind = LAYER_KINDS[layer.kind]
        if kind.int_op and any(n not in schemes for n in (*layer.inputs, layer.name)):
            raise CorruptContainer(f"{path}: no scheme for layer {layer.name!r}")
        for name, shape, dtype in stored_tensors(layer):
            arr, entry = arrays.get(name, (None, {}))
            if arr is None or arr.shape != shape or entry["dtype"] != dtype:
                raise CorruptContainer(f"{path}: needs a {dtype} {name!r} {shape}")
            tensors[name] = arr
            if _accumulates(kind):
                if None in (entry["scale"], entry["zero_point"]):
                    raise CorruptContainer(f"{path}: no scheme for {name!r}")
                schemes[name] = QuantScheme(entry["scale"], entry["zero_point"])
        if _accumulates(kind):
            w, b = (tensors[name] for name, _, _ in stored_tensors(layer))
            if w.min(initial=0) < -127:  # the kernels' exactness bound needs it
                raise CorruptContainer(f"{path}: {layer.name} weight below -127")
            try:
                _acc_dtype(layer, w, b)
            except ShapeMismatch as e:
                raise CorruptContainer(f"{path}: {layer.name}: {e}") from None
    if len(header["tensors"]) != len(tensors):
        raise CorruptContainer(f"{path}: tensors other than the model's stored set")
    check_divisors(graph, tensors, path)
    return QuantizedGraph(graph, schemes, tensors)

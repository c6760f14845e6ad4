from functools import partial

import numpy as np
import pytest

from specdrive import cli, kernels, quant
from specdrive.errors import (CorruptContainer, EmptyCalibration, MissingWeights,
                              NonFinite, RangeMissing, StructureError)
from specdrive.formats import read_container, write_container
from specdrive import model
from specdrive.model import (
    PIXEL_BLOCK,
    LayerSpec,
    ModelGraph,
    UNetConfig,
    build_mlp,
    build_unet,
    forward,
    table_lookup,
    walk,
)
from specdrive.quant import (
    QuantizedGraph,
    QuantScheme,
    calibrate,
    load_qgraph,
    payload_bytes,
    qforward,
    quant_report,
    quantize_graph,
    quantize_model,
    qwalk,
    round_half_away,
    run_input_prefix,
    save_qgraph,
)
from specdrive.tiling import build_grid
from specdrive.weights import generate_weights


def test_symmetric_weight_mapping():
    scheme = QuantScheme.symmetric_for(np.array([-1.0, 0.0, 1.0]))
    assert scheme.zero_point == 0
    assert scheme.scale == pytest.approx(1 / 127)
    q = scheme.quant(np.array([-1.0, 0.0, 1.0]))
    assert list(q) == [-127, 0, 127]


def test_roundtrip_error_bound(rng):
    for _ in range(20):
        w = rng.normal(0, rng.uniform(0.01, 3), 50).astype(np.float32)
        s = QuantScheme.symmetric_for(w)
        back = s.dequant(s.quant(w))
        assert np.abs(back - w).max() <= s.scale / 2 + 1e-12


def test_zero_maps_to_zero_point(rng):
    for _ in range(20):
        lo, hi = sorted(rng.uniform(-5, 5, 2))
        s = QuantScheme.affine_for(lo, hi)
        assert s.quant(np.array([0.0]))[0] == s.zero_point


def test_degenerate_range_widened():
    s = QuantScheme.affine_for(0.0, 0.0)
    assert s.scale > 0
    assert -128 <= s.zero_point <= 127


def test_round_half_away():
    x = np.array([-2.5, -1.5, -0.5, 0.0, 0.5, 1.5, 2.5])
    assert list(round_half_away(x)) == [-3, -2, -1, 0, 1, 2, 3]


def test_requantization_monotone(rng):
    s_out = QuantScheme.affine_for(-1.0, 1.0)
    acc = np.sort(rng.integers(-(2**20), 2**20, 100))
    mult = 1e-6
    q = np.clip(round_half_away(acc * mult) + s_out.zero_point, -128, 127)
    assert (np.diff(q) >= 0).all()


def test_calibrate_records_union(rng):
    g = build_mlp(25, 3)
    w = generate_weights(g, 20)
    a = np.full((4, 25), 0.2, np.float32)
    b = np.full((4, 25), 0.9, np.float32)
    ranges = calibrate(g, w, [a, b])
    lo, hi = ranges["input"]
    assert lo == pytest.approx(0.2) and hi == pytest.approx(0.9)
    # single-sample ranges are a subset of the union
    ra = calibrate(g, w, [a])
    assert ra["input"][0] >= lo and ra["input"][1] <= hi


def test_calibrate_order_invariant(rng):
    g = build_mlp(25, 3)
    w = generate_weights(g, 21)
    samples = [rng.uniform(0, 1, (6, 25)).astype(np.float32) for _ in range(5)]
    r1 = calibrate(g, w, samples)
    r2 = calibrate(g, w, samples[::-1])
    for k in r1:
        assert r1[k] == pytest.approx(r2[k])


def test_calibrate_empty_rejected():
    g = build_mlp(25, 3)
    with pytest.raises(EmptyCalibration):
        calibrate(g, generate_weights(g, 0), [])


def test_quantize_missing_range_rejected(rng):
    g = build_mlp(25, 3)
    w = generate_weights(g, 22)
    ranges = calibrate(g, w, [rng.uniform(0, 1, (4, 25)).astype(np.float32)])
    del ranges["fc1"]
    with pytest.raises(RangeMissing):
        quantize_graph(g, w, ranges)


def small_unet():
    return build_unet(
        UNetConfig(patch_size=16, encoder_depth=2, initial_filters=4,
                   in_channels=5, classes=3)
    )


def test_qforward_tracks_float(rng):
    g = small_unet()
    w = generate_weights(g, 23)
    calib = [rng.uniform(0, 1, (16, 16, 5)).astype(np.float32) for _ in range(4)]
    qg = quantize_model(g, w, calib)
    x = calib[0]
    yq = qforward(qg, x)
    yf = forward(g, x, w)
    assert np.abs(yq.sum(-1) - 1).max() <= 1e-5
    assert (yq.argmax(-1) == yf.argmax(-1)).mean() >= 0.9


def test_qforward_naive_bitwise(rng):
    g = small_unet()
    w = generate_weights(g, 24)
    calib = [rng.uniform(0, 1, (16, 16, 5)).astype(np.float32) for _ in range(2)]
    qg = quantize_model(g, w, calib)
    x = calib[1]
    assert np.array_equal(qforward(qg, x), qforward(qg, x, naive=True))


def test_single_conv_error_bound(rng):
    """Quantized conv output stays within a couple of output LSBs of float."""
    for trial in range(20):
        cin, cout = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        layers = [LayerSpec("c", "conv3", ("input",), cin, cout, kernel=3)]
        g = ModelGraph(layers, meta={"kind": "custom", "config": {}})
        w = generate_weights(g, trial)
        calib = [rng.normal(0, 1, (6, 6, cin)).astype(np.float32) for _ in range(3)]
        qg = quantize_model(g, w, calib)
        x = calib[0]
        yq = qforward(qg, x)
        yf = forward(g, x, w)
        s_out = qg.schemes["c"].scale
        assert np.abs(yq - yf).mean() <= 2 * s_out


def test_zero_input_yields_requantized_bias(rng):
    layers = [LayerSpec("c", "conv3", ("input",), 2, 3, kernel=3)]
    g = ModelGraph(layers, meta={"kind": "custom", "config": {}})
    w = generate_weights(g, 31)
    calib = [rng.normal(0, 1, (4, 4, 2)).astype(np.float32) for _ in range(3)]
    calib.append(np.zeros((4, 4, 2), np.float32))
    qg = quantize_model(g, w, calib)
    y = qforward(qg, np.zeros((4, 4, 2), np.float32))
    # all accumulators see (q - zp) = 0, so output = dequant(requant(bias))
    bias, bias_s = qg.tensors["c.bias"], qg.schemes["c.bias"]
    out_s = qg.schemes["c"]
    assert bias.dtype == np.int32 and bias_s.zero_point == 0
    assert bias_s.scale == qg.schemes["input"].scale * qg.schemes["c.weight"].scale
    expect_q = np.clip(
        round_half_away(bias * (bias_s.scale / out_s.scale)) + out_s.zero_point,
        -128, 127,
    )
    expect = (expect_q - out_s.zero_point) * out_s.scale
    assert np.allclose(y, np.broadcast_to(expect, y.shape), atol=1e-7)


def test_identity_impulse_conv_requantizes_input(rng):
    layers = [LayerSpec("c", "conv3", ("input",), 1, 1, kernel=3)]
    g = ModelGraph(layers, meta={"kind": "custom", "config": {}})
    w = {
        "c.weight": np.zeros((3, 3, 1, 1), np.float32),
        "c.bias": np.zeros(1, np.float32),
    }
    w["c.weight"][1, 1, 0, 0] = 1.0
    calib = [rng.uniform(-1, 1, (5, 5, 1)).astype(np.float32) for _ in range(4)]
    qg = quantize_model(g, w, calib)
    x = calib[0]
    y = qforward(qg, x)
    s_in = qg.schemes["input"].scale
    s_out = qg.schemes["c"].scale
    assert np.abs(y - x).max() <= s_in / 2 + s_out / 2 + 1e-6


def test_quantize_graph_of_calibrate_on_unfolded_unet(tmp_path, rng):
    """calibrate and quantize_graph fold an unfolded U-Net themselves, so
    the two-call flow writes quantize_model's bytes: conv scales come from
    post-batch-norm ranges."""
    g = small_unet()
    w = generate_weights(g, 24)
    calib = [rng.uniform(0, 1, (16, 16, 5)).astype(np.float32) for _ in range(2)]
    save_qgraph(tmp_path / "one.sdq", quantize_model(g, w, calib))
    save_qgraph(tmp_path / "two.sdq", quantize_graph(g, w, calibrate(g, w, calib)))
    assert (tmp_path / "one.sdq").read_bytes() == (tmp_path / "two.sdq").read_bytes()


def test_payload_ratio_reference_unet(rng):
    g = build_unet(UNetConfig())
    w = generate_weights(g, 25)
    calib = [rng.uniform(0, 1, (128, 128, 25)).astype(np.float32) for _ in range(1)]
    qg = quantize_model(g, w, calib)
    rep = quant_report(g, w, qg, calib)
    assert rep.size.float_bytes == 4 * 31_707
    assert rep.size.ratio <= 0.30
    assert rep.size.quantized_bytes == payload_bytes(qg)


def test_container_roundtrip(tmp_path, rng):
    g = small_unet()
    w = generate_weights(g, 26)
    calib = [rng.uniform(0, 1, (16, 16, 5)).astype(np.float32) for _ in range(2)]
    qg = quantize_model(g, w, calib)
    path = tmp_path / "m.sdq"
    save_qgraph(path, qg)
    qg2 = load_qgraph(path)
    x = calib[0]
    assert np.array_equal(qforward(qg, x), qforward(qg2, x))


def test_quantize_graph_missing_tensor_raises_missing_weights(rng):
    """A weight dict without a kernel layer's tensor is MissingWeights, not
    a raw KeyError, also where no batch norm folds into the layer."""
    g = small_unet()
    w = generate_weights(g, 26)
    ranges = calibrate(g, w, [rng.uniform(0, 1, (16, 16, 5)).astype(np.float32)])
    del w["head.conv.bias"]
    with pytest.raises(MissingWeights, match="head.conv.bias"):
        quantize_graph(g, w, ranges)


SDQ_DTYPES = {t: t for t in ("<i1", "<i4", "<f4")}


def _reorder_sdq(src, dst, edit):
    """Rewrite a .sdq with edit applied to its (manifest entry, array)
    list, through the container codec. The codec reads an entry without a
    scheme as holding null ones; they are left out again."""
    header, arrays = read_container(src, quant.MAGIC, SDQ_DTYPES, quant.HEADER, quant.ENTRY)
    del header["tensors"]
    tensors = [({k: v for k, v in e.items() if v is not None}, a) for a, e in arrays.values()]
    write_container(dst, quant.MAGIC, header, edit(tensors))


@pytest.fixture(scope="module")
def sdq_models(tmp_path_factory):
    """.sdq files of a U-Net with float input tensors and of the MLP, and an
    input for each."""
    root = tmp_path_factory.mktemp("sdq")
    rng = np.random.default_rng(30)
    out = []
    unet = build_unet(UNetConfig(patch_size=16, initial_filters=4, in_channels=5,
                                 input_norm="band_sum+zscore"))
    for name, g in (("unet", unet), ("mlp", build_mlp(5, 3))):
        x = rng.uniform(0.05, 0.95, (16, 16, 5)).astype(np.float32)
        save_qgraph(root / f"{name}.sdq", quantize_model(g, generate_weights(g, 30), [x]))
        out.append((root / f"{name}.sdq", x))
    return out


def test_save_of_load_rewrites_the_file(tmp_path, sdq_models):
    for path, _ in sdq_models:
        save_qgraph(tmp_path / "again.sdq", load_qgraph(path))
        assert (tmp_path / "again.sdq").read_bytes() == path.read_bytes()


def test_sdq_tensors_load_by_name_in_any_order(tmp_path, sdq_models):
    """Tensors are written in layer order; a file with the older order
    (kernel layers, then tables, then float tensors) loads to the same
    bits."""
    def older(tensors):
        return sorted(tensors, key=lambda t: 0 if "scale" in t[0] else
                      1 if t[0]["name"].endswith(".lut") else 2)

    for path, x in sdq_models:
        _reorder_sdq(path, tmp_path / "old.sdq", older)
        assert (tmp_path / "old.sdq").read_bytes() != path.read_bytes()
        qg, old = load_qgraph(path), load_qgraph(tmp_path / "old.sdq")
        assert list(old.tensors) == list(qg.tensors)
        for naive in (False, True):
            assert np.array_equal(qforward(old, x, naive=naive),
                                  qforward(qg, x, naive=naive))


@pytest.mark.parametrize("edit", ["extra", "missing", "duplicate"])
def test_sdq_must_hold_exactly_the_stored_tensors(tmp_path, sdq_models, edit):
    def change(tensors):
        if edit == "extra":
            return tensors + [({"name": "spare", "shape": [2], "dtype": "<f4"},
                               np.zeros(2, np.float32))]
        return tensors[1:] if edit == "missing" else tensors + tensors[-1:]

    for path, _ in sdq_models:
        _reorder_sdq(path, tmp_path / "bad.sdq", change)
        with pytest.raises(CorruptContainer):
            load_qgraph(tmp_path / "bad.sdq")


def test_truncated_qcontainer_rejected(tmp_path, rng):
    g = build_mlp(25, 3)
    w = generate_weights(g, 27)
    qg = quantize_model(g, w, [rng.uniform(0, 1, (4, 25)).astype(np.float32)])
    path = tmp_path / "m.sdq"
    save_qgraph(path, qg)
    data = path.read_bytes()
    (tmp_path / "cut.sdq").write_bytes(data[:-40])
    with pytest.raises(CorruptContainer):
        load_qgraph(tmp_path / "cut.sdq")


def test_mlp_lut_path(rng):
    g = build_mlp(25, 3)
    w = generate_weights(g, 28)
    calib = [rng.uniform(0.05, 0.95, (30, 25)).astype(np.float32) for _ in range(4)]
    qg = quantize_model(g, w, calib)
    tables = {n for n in qg.tensors if n.endswith(".lut")}
    assert tables == {"act0.lut", "act1.lut", "act2.lut"}
    x = calib[0]
    yq = qforward(qg, x)
    yf = forward(g, x, w)
    assert (yq.argmax(-1) == yf.argmax(-1)).mean() >= 0.9


def test_round_half_away_matches_sign_floor_formula(rng):
    """round_half_away equals the formula sign(x) * floor(|x| + 0.5) it
    replaced, as values (-0.0 now rounds to -0.0, not +0.0)."""
    near = [np.nextafter(v, t) for v in (-2.5, -0.5, 0.5, 2.5) for t in (-np.inf, np.inf)]
    big = [s * (2.0**52 + d) for s in (-1, 1) for d in (-1.5, -1, -0.5, 0, 1, 2)]
    scale = 10.0 ** rng.uniform(-3, 6, 100_000)
    x = np.concatenate([np.arange(-10, 10) + 0.5, near, [0.0, -0.0], big,
                        rng.standard_normal(100_000) * scale])
    old = np.sign(x) * np.floor(np.abs(x) + 0.5)
    new = round_half_away(x)
    assert new.dtype == old.dtype and np.array_equal(new, old)


def test_table_lookup_matches_int16_index(rng):
    lut = rng.integers(-128, 128, 256).astype(np.int8)
    x = np.arange(-128, 128, dtype=np.int8)
    for xs in (x, x.reshape(16, 16).T):  # contiguous and strided
        got = table_lookup(None, [xs], None, None, [lut], False)
        assert np.array_equal(got, lut[xs.astype(np.int16) + 128])


def _grid_of(n: int) -> tuple[int, int]:
    """(H, W) with H the largest divisor of n up to sqrt(n)."""
    h = max(d for d in range(1, int(n**0.5) + 1) if n % d == 0)
    return h, n // h


BLOCK_SHAPES = [lead for n in (1, PIXEL_BLOCK - 1, PIXEL_BLOCK, PIXEL_BLOCK + 1,
                               5 * PIXEL_BLOCK // 2)
                for lead in (_grid_of(n), (n,))]


@pytest.fixture(scope="module")
def mlp_models():
    rng = np.random.default_rng(77)
    g = build_mlp(25, 3)
    w = generate_weights(g, 31)
    calib = [rng.uniform(0.05, 0.95, (40, 128, 25)).astype(np.float32)]
    return g, w, quantize_model(g, w, calib)


def _spy_rows(monkeypatch, owner, key):
    """Record the pixel count of every call to owner[key] / owner.key."""
    rows = []
    fn = owner[key] if isinstance(owner, dict) else getattr(owner, key)

    def spy(x, *args):
        rows.append(x.size // x.shape[-1])
        return fn(x, *args)

    if isinstance(owner, dict):
        monkeypatch.setitem(owner, key, spy)
    else:
        monkeypatch.setattr(owner, key, spy)
    return rows


def _shapes_of(fn, shapes):
    """fn, recording the shape of every input it is handed in shapes."""
    return lambda x: shapes.append(x.shape) or fn(x)


@pytest.mark.parametrize("lead", BLOCK_SHAPES, ids=str)
def test_mlp_runs_in_pixel_blocks(monkeypatch, mlp_models, lead):
    """forward and qforward run their input whole. map_pixel_blocks hands
    them blocks of PIXEL_BLOCK pixels, a short last one padded to full
    length, whatever the input's size (one pixel too): the blocked qforward
    gives the bits of its whole-tensor qwalk, the blocked forward the bits
    or agreement within 1e-5 with the same labels (BLAS may sum a 2048-row
    block in another order than the whole input)."""
    g, w, qg = mlp_models
    n = int(np.prod(lead))
    x = np.random.default_rng(n).uniform(0.05, 0.95, (*lead, 25)).astype(np.float32)
    blocks = [PIXEL_BLOCK] * -(-n // PIXEL_BLOCK)
    shapes_in = [(PIXEL_BLOCK, 25)] * len(blocks)

    def dense_rows(counts):
        return [rows for rows in counts for _ in range(4)]  # four dense layers

    rows = _spy_rows(monkeypatch, kernels.FAST_KERNELS, "dense")
    shapes = []
    y = model.map_pixel_blocks(_shapes_of(partial(forward, g, weights=w), shapes), x)
    assert rows == dense_rows(blocks) and shapes == shapes_in
    del rows[:]
    ref = dict(walk(g, x, w))[g.output_name]
    assert np.array_equal(forward(g, x, w), ref) and rows == dense_rows([n]) * 2
    assert y.shape == ref.shape == (*lead, 3) and y.dtype == np.float32
    if not np.array_equal(y, ref):
        assert np.abs(y - ref).max() <= 1e-5
        assert np.array_equal(y.argmax(-1), ref.argmax(-1))

    rows = _spy_rows(monkeypatch, kernels, "dense_int")
    shapes = []
    yq = model.map_pixel_blocks(_shapes_of(partial(qforward, qg), shapes), x)
    assert rows == dense_rows(blocks) and shapes == shapes_in
    del rows[:]
    whole = qforward(qg, x)
    assert rows == dense_rows([n])
    qref = dict(qwalk(qg, x))[qg.graph.output_name]
    assert yq.shape == (*lead, 3) and yq.dtype == np.float32
    assert np.array_equal(yq, qref) and np.array_equal(whole, qref)


def test_mlp_pixel_bits_do_not_depend_on_their_block(mlp_models):
    """map_pixel_blocks runs every block of an input over one block at
    PIXEL_BLOCK rows, so a pixel gets the same bits from the blocked
    forward and qforward whatever block it lands in: dropping the first k
    pixels moves every other pixel to another block, or to another row of
    its block. Without the padding, BLAS summed a short last block in
    another order: 192 of the offsets from 1 to 3951 changed float bits."""
    g, w, qg = mlp_models
    run = partial(model.map_pixel_blocks, partial(forward, g, weights=w))
    qrun = partial(model.map_pixel_blocks, partial(qforward, qg))
    x = np.random.default_rng(9).uniform(0.05, 0.95, (6000, 25)).astype(np.float32)
    y, yq = run(x), qrun(x)
    for k in range(1, len(x) - PIXEL_BLOCK, 97):
        assert np.array_equal(run(x[k:]), y[k:]), k
        assert np.array_equal(qrun(x[k:]), yq[k:]), k


@pytest.mark.parametrize("n", [1, 100])
def test_a_small_input_gives_a_pixel_its_bits_in_a_larger_input(n):
    """An input of one block or less is padded to a full block like any
    other, so the float MLP gives each of its pixels the bits that pixel
    gets at the head of a 6,144-pixel input; a one-pixel (C,) input too.
    Run whole, in its own shape, a 1- or 100-pixel input got other bits."""
    g = build_mlp(25, 4)
    w = generate_weights(g, seed=31)
    run = partial(model.map_pixel_blocks, partial(forward, g, weights=w))
    x = np.random.default_rng(21).uniform(0.05, 0.95, (6144, 25)).astype(np.float32)
    y = run(x)
    assert np.array_equal(run(x[:n]), y[:n])
    assert np.array_equal(run(x[n - 1]), y[n - 1])


@pytest.mark.parametrize("shape", [(0, 25), (0, 5, 25), (5, 0, 25)])
def test_an_input_without_pixels_maps_to_an_empty_result(mlp_models, shape):
    """An input with no pixels has no block: map_pixel_blocks returns the
    empty float32 result of its shape, for forward and qforward alike, and
    calibration records no range from it (it raised a raw ValueError)."""
    g, w, qg = mlp_models
    x = np.zeros(shape, np.float32)
    assert list(model.pixel_blocks(x)) == [] and calibrate(g, w, [x]) == {}
    for fn in (partial(forward, g, weights=w), partial(qforward, qg)):
        y = model.map_pixel_blocks(fn, x)
        assert y.shape == (*shape[:-1], 3) and y.dtype == np.float32


def test_mlp_blocks_keep_the_naive_gate(mlp_models):
    g, w, qg = mlp_models
    x = np.random.default_rng(3).uniform(0.05, 0.95, (PIXEL_BLOCK + 1, 25)).astype(np.float32)
    fast, slow = forward(g, x, w), forward(g, x, w, naive=True)
    assert np.abs(fast - slow).max() <= 1e-5
    assert np.array_equal(fast.argmax(-1), slow.argmax(-1))
    assert np.array_equal(qforward(qg, x), qforward(qg, x, naive=True))


def test_pixel_blocks_of_a_patch_view_copy_only_their_rows(rng):
    """A strided patch view is flattened a block at a time: each block holds
    its pixels of the flattened patch and copies only the patch rows it
    spans (77-pixel rows, so blocks start mid-row); the short last block is
    padded to PIXEL_BLOCK rows with copies of the patch's last pixel."""
    cube = rng.uniform(0, 1, (100, 120, 5)).astype(np.float32)
    patch = cube[3:80, 10:87]
    flat = patch.reshape(-1, 5)
    blocks = list(model.pixel_blocks(patch))
    assert len(blocks) == 3 and all(b.shape == (PIXEL_BLOCK, 5) for b in blocks)
    for i, block in enumerate(blocks[:2]):
        assert np.array_equal(block, flat[i * PIXEL_BLOCK : (i + 1) * PIXEL_BLOCK])
        assert block.base.size <= (PIXEL_BLOCK + 2 * 77) * 5
    tail = len(flat) - 2 * PIXEL_BLOCK
    assert np.array_equal(blocks[2][:tail], flat[2 * PIXEL_BLOCK :])
    assert (blocks[2][tail:] == flat[-1]).all()


def test_calibrate_walks_pixel_blocks(monkeypatch, rng):
    """Ranges from a block-by-block walk, the short last block padded,
    match the whole-sample walk's; a sample of one block or less is walked
    as one padded block too, and gives that block's ranges bit for bit."""
    g = build_mlp(25, 3)
    w = generate_weights(g, 32)
    sample = rng.uniform(0.05, 0.95, (40, 128, 25)).astype(np.float32)
    small = rng.uniform(0.05, 0.95, (45, 45, 25)).astype(np.float32)

    def ranges_of(x):
        return {n: (float(a.min()), float(a.max())) for n, a in walk(g, x, w)}

    whole, whole_small = ranges_of(sample), ranges_of(small)
    shapes = []

    def spy(graph, x, weights):
        shapes.append(x.shape)
        return walk(graph, x, weights)

    monkeypatch.setattr(quant, "walk", spy)
    ranges = calibrate(g, w, [sample])
    assert shapes == [(PIXEL_BLOCK, 25)] * 3
    assert ranges.keys() == whole.keys()
    assert ranges["input"] == whole["input"]
    for name in whole:
        np.testing.assert_allclose(ranges[name], whole[name], rtol=1e-6)
    padded = next(model.pixel_blocks(small))
    small_ranges = calibrate(g, w, [small])
    assert shapes[3:] == [(PIXEL_BLOCK, 25)]
    assert small_ranges == ranges_of(padded) and small_ranges["input"] == whole_small["input"]
    for name in whole_small:
        np.testing.assert_allclose(small_ranges[name], whole_small[name], rtol=1e-6)


def _epilogue_values() -> np.ndarray:
    """Integers across every clip bound, the ties k +- 0.5 and their
    nextafter neighbours, the largest double below 0.5, signed zeros and
    values far outside int8."""
    ks = np.arange(-300.0, 301.0)
    ties = np.concatenate([ks - 0.5, ks + 0.5])
    near = np.concatenate([np.nextafter(ties, -np.inf), np.nextafter(ties, np.inf)])
    below_half = 0.5 - 2.0**-54
    return np.concatenate([ks, ties, near,
                           [below_half, -below_half, 0.0, -0.0, 3e9, -3e9]])


def _reference_int8(v, zp):
    """Round half away, add the zero point, clip, cast."""
    return np.clip(round_half_away(v) + zp, -128, 127).astype(np.int8)


def test_requantization_epilogue_matches_reference():
    """The one int8 tail gives the bits of round half away, add the zero
    point, clip, cast, for every zero point."""
    v = _epilogue_values()
    for zp in range(-128, 128):
        got = QuantScheme(1.0, zp)._to_int8(v.copy())
        assert got.dtype == np.int8 and np.array_equal(got, _reference_int8(v, zp)), zp


def test_centered_quantization_is_the_int8_tail_less_its_zero_point():
    """The fast walk's quantization, quant_centered, gives quant's int8
    value less the zero point, as float32, for every zero point."""
    v = _epilogue_values()
    for zp in range(-128, 128):
        scheme = QuantScheme(1.0, zp)
        got = scheme.quant_centered(v)
        want = _reference_int8(v, zp).astype(np.int64) - zp
        assert got.dtype == np.float32 and np.array_equal(got, want), zp
        assert np.array_equal(scheme.center(scheme.quant(v)), got)
        assert np.array_equal(scheme.dequant(got), scheme.dequant(scheme.quant(v)))


def test_tanh_table_is_the_reference_tail(mlp_models):
    """A quantized MLP's tanh tables hold tanh of every int8 input, read in
    the input's scheme, through the reference tail in the output's scheme."""
    _, _, qg = mlp_models
    tanhs = [l for l in qg.graph.layers if l.kind == "tanh"]
    assert len(tanhs) == 3
    for layer in tanhs:
        s_in, s_out = qg.schemes[layer.inputs[0]], qg.schemes[layer.name]
        y = np.tanh((np.arange(-128.0, 128.0) - s_in.zero_point) * s_in.scale)
        want = _reference_int8(y / s_out.scale, s_out.zero_point)
        got = qg.tensors[f"{layer.name}.lut"]
        assert got.dtype == np.int8 and got.tobytes() == want.tobytes(), layer.name


def test_concat_reference_requant_is_requantize():
    """The naive walk re-expresses a concat's input through requantize of
    q - zp_src at the ratio of the two scales, for zero points at both ends
    and between."""
    q = np.arange(-128, 128, dtype=np.int8)
    for zp_src, zp in [(-128, 127), (127, -128), (3, -5), (0, 0)]:
        src, dst = QuantScheme(0.02, zp_src), QuantScheme(0.013, zp)
        want = quant.requantize(q.astype(np.int64) - zp_src, 0.02 / 0.013, dst)
        assert np.array_equal(dst.requant(q, src), want)


@pytest.mark.parametrize("scales, step", [((0.02, 0.013), 1), ((0.013, 0.02), 5),
                                          ((0.02, 0.02), 5)], ids=["down", "up", "same-scale"])
def test_concat_centered_tables_match_requant(scales, step):
    """The fast walk's concat re-expresses each centered input through a
    256-entry table and gives requant's bits, centered in the concat's
    scheme: for every pair of source and target zero points at one ratio
    of scales, every fifth at two others. An input already in the concat's
    scheme passes through unchanged."""
    layers = [LayerSpec("a", "relu", ("input",), 2, 2),
              LayerSpec("cat", "concat", ("input", "a"), 4, 4)]
    g = ModelGraph(layers, meta={"kind": "custom", "config": {}})
    q = np.arange(-128, 128, dtype=np.int8).reshape(16, 8, 2)
    s_src, s_dst = scales
    for zp_src in range(-128, 128, step):
        src = QuantScheme(s_src, zp_src)
        c = src.center(q)
        for zp in range(-128, 128, step):
            dst = QuantScheme(s_dst, zp)
            qg = QuantizedGraph(g, {"input": src, "a": src, "cat": dst}, {})
            got = quant._step(qg, layers[1], {})([c, c])
            want = dst.center(dst.requant(q, src))
            assert got.dtype == np.float32, (zp_src, zp)
            assert np.array_equal(got, np.concatenate([want, want], axis=-1)), (zp_src, zp)
        same = QuantizedGraph(g, {"input": src, "a": src, "cat": src}, {})
        assert np.array_equal(quant._step(same, layers[1], {})([c, c]),
                              np.concatenate([c, c], axis=-1))


# dyadic ratios put acc * ratio exactly on the ties k + 0.5; the others step
# over several output levels at once, or take many accumulators per level
TABLE_RATIOS = [0.5, 0.25, 0.125, 1.5, 2.5, 1 / 3, 0.1, 0.007, 3.0, 300.0]
INT32_ENDS = [-2**31, -2**31 + 1, 2**31 - 2, 2**31 - 1]


@pytest.mark.parametrize("after", ["plain", "relu", "tanh"])
def test_requant_table_matches_reference_tail(after):
    """A requantization table, looked up by one index pass of the kernel's
    accumulator plus _fold's addend and a clamping take, gives the
    reference tail's bits (then relu_int, or a tanh table), centered in the
    scheme it is read in, for every zero point: on accumulators past both
    of its ends, at +-(2^24 - 1) in float32 and at +-2^24 and the int32
    ends in float64, with the bias folded into the index pass and, where
    bias - lo is not exact in float32, added by the kernel. Its ends are
    the last accumulator saturated at -128 and the first at 127."""
    lut = np.random.default_rng(5).integers(-128, 128, 256).astype(np.int8)
    for ratio in TABLE_RATIOS:
        for zp in range(-128, 128):
            scheme = QuantScheme(1.0, zp)
            op, read = {"plain": (None, scheme),
                        "relu": (lambda q: kernels.relu_int(q, zp), scheme),
                        "tanh": (lambda q: kernels.lookup_int(q, lut), QuantScheme(0.5, 7))}[after]
            lo, table = quant.requant_table(ratio, scheme, op)
            hi = lo + len(table) - 1
            near = np.arange(lo - 40, hi + 41)
            want = quant.requantize(near, ratio, scheme)
            assert want[40] == -128 and want[41] > -128, (ratio, zp)
            assert want[-41] == 127 and want[-42] < 127, (ratio, zp)
            centered = read.center(table)
            # (dtype, kernel outputs at the ends of its exact range, bias)
            cases = [(np.float32, [2**24 - 1, -(2**24 - 1)], 1000),
                     (np.float64, [2**24, -2**24, *INT32_ENDS], 1000)]
            if lo < -1:  # bias - lo = 2^24 + 1, not a float32, with |bias| < 2^24
                cases.append((np.float32, [2**24 - 1, -(2**24 - 1)], 2**24 + 1 + lo))
            for dtype, ends, bias in cases:
                b, addend = quant._fold(np.array([bias], np.int32), lo, dtype)
                added = bias if b is None else 0  # by the index pass
                assert (b is None) == (bias - lo != 2**24 + 1), (ratio, zp, bias)
                assert addend.dtype == dtype
                acc = np.array([*(near - added), *ends], np.int64)[:, None]  # one channel
                want = quant.requantize(acc + added, ratio, scheme)
                want = read.center(want if op is None else op(want))
                got = quant._lookup(acc.astype(dtype), addend, centered)
                assert got.dtype == np.float32 and np.array_equal(got, want), (ratio, zp, bias)


def _spy_calls(monkeypatch, owner, name):
    """Count the calls to owner.name, which still runs."""
    calls = []
    fn = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a: calls.append(1) or fn(*a))
    return calls


def test_relu_folds_into_requantization(monkeypatch, rng, mlp_models):
    """qforward without naive composes the relu or tanh that
    is a kernel layer's only reader into its requantization table, and never
    calls relu_int or the tanh's lookup_int; the naive qforward and qwalk
    run every relu and tanh and give the same output bits."""
    g = small_unet()
    w = generate_weights(g, 25)
    calib = [rng.uniform(0, 1, (16, 16, 5)).astype(np.float32) for _ in range(2)]
    qg = quantize_model(g, w, calib)
    relus = sum(l.kind == "relu" for l in qg.graph.layers)
    assert len(qg.tables) == relus + 3  # built (with relu_int) before the spy
    calls = _spy_calls(monkeypatch, kernels, "relu_int")
    x = calib[1]
    fast = qforward(qg, x)
    assert calls == []
    assert np.array_equal(qforward(qg, x, naive=True), fast) and len(calls) == relus
    full = dict(qwalk(qg, x))
    assert np.array_equal(full[qg.graph.output_name], fast) and len(calls) == 2 * relus
    assert full["enc0.conv0"].min() < full["enc0.relu0"].min()  # the relu ran after

    _, _, qg = mlp_models
    x = np.random.default_rng(6).uniform(0.05, 0.95, (PIXEL_BLOCK + 7, 25)).astype(np.float32)
    assert {n: t.composes for n, t in qg.tables.items()} == {
        "fc0": True, "fc1": True, "fc2": True, "fc3": False}
    calls = _spy_calls(monkeypatch, kernels, "lookup_int")
    fast = qforward(qg, x)
    assert calls == []
    assert np.array_equal(qforward(qg, x, naive=True), fast) and len(calls) == 3
    assert np.array_equal(dict(qwalk(qg, x))[qg.graph.output_name], fast)


def _big_bias_mlp(rng):
    """A quantized dense/tanh/dense graph whose first layer has tiny weights
    under a large bias: its accumulator scale is ~1e-6 of its output scale,
    so its table would be far past MAX_TABLE."""
    layers = [LayerSpec("fc0", "dense", ("input",), 4, 6),
              LayerSpec("act0", "tanh", ("fc0",), 6, 6),
              LayerSpec("fc1", "dense", ("act0",), 6, 3),
              LayerSpec("out", "softmax", ("fc1",), 3, 3)]
    g = ModelGraph(layers, meta={"kind": "custom", "config": {}})
    w = generate_weights(g, 9)
    w["fc0.weight"] = w["fc0.weight"] * 1e-5
    w["fc0.bias"] = np.linspace(-2, 2, 6).astype(np.float32)
    x = rng.uniform(0, 1, (64, 4)).astype(np.float32)
    return quantize_model(g, w, [x]), x


def test_over_cap_layer_runs_the_reference_tail(monkeypatch, rng):
    """A kernel layer past MAX_TABLE gets no table; it runs the naive walk's
    reference tail, its tanh runs its own lookup, and the output keeps the
    naive walk's bits. With the cap at 0 no layer has a table, bitwise too."""
    qg, x = _big_bias_mlp(rng)
    assert set(qg.tables) == {"fc1"} and not qg.tables["fc1"].composes
    want = qforward(qg, x, naive=True)
    qg.steps  # resolved before the spies
    calls = _spy_calls(monkeypatch, quant, "_lookup")
    tails = _spy_calls(monkeypatch, quant, "requantize")
    assert np.array_equal(qforward(qg, x), want)
    assert len(calls) == 2 and len(tails) == 1  # fc1's table and act0's; fc0's tail
    monkeypatch.setattr(quant, "MAX_TABLE", 0)
    uncapped = QuantizedGraph(qg.graph, qg.schemes, qg.tensors)
    assert uncapped.tables == {} and np.array_equal(qforward(uncapped, x), want)


def test_kernel_layer_with_two_readers_keeps_its_own_values(rng):
    """A tanh is composed only into a layer it alone reads: here a concat
    also reads the dense layer, so the table requantizes plainly and the
    fast walk keeps the naive walk's bits."""
    layers = [LayerSpec("fc0", "dense", ("input",), 4, 5),
              LayerSpec("act0", "tanh", ("fc0",), 5, 5),
              LayerSpec("cat", "concat", ("act0", "fc0"), 10, 10),
              LayerSpec("out", "softmax", ("cat",), 10, 10)]
    g = ModelGraph(layers, meta={"kind": "custom", "config": {}})
    x = rng.uniform(0, 1, (300, 4)).astype(np.float32)
    qg = quantize_model(g, generate_weights(g, 10), [x])
    assert set(qg.tables) == {"fc0"} and not qg.tables["fc0"].composes
    assert np.array_equal(qforward(qg, x), qforward(qg, x, naive=True))


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_tables_built_once_per_infer_cube(monkeypatch, rng, threads):
    """infer_cube builds the body's tables once, before its workers start,
    whatever the thread count, and gives the naive walk's bits."""
    g = small_unet()
    w = generate_weights(g, 27)
    cube = rng.uniform(0.05, 0.95, (40, 30, 5)).astype(np.float32)
    qg = quantize_model(g, w, [cube[:16, :16]])
    grid = build_grid((40, 30), 16, 8, 7)
    calls = _spy_calls(monkeypatch, quant, "requant_tables")
    built_before_map = []
    map_patches = cli.map_patches
    monkeypatch.setattr(cli, "map_patches", lambda *a: built_before_map.append(
        len(calls)) or map_patches(*a))
    got = cli.infer_cube(qg, cube, grid, threads=threads)
    assert built_before_map == [1] and len(calls) == 1
    assert grid.n_patches > threads
    want = cli.infer_cube(qg, cube, grid, naive=True)
    assert len(calls) == 1
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("norm", ["band_sum", "zscore", "band_sum+zscore", "none"])
def test_input_prefix_once_equals_per_patch(norm, rng):
    """Normalizing a cube once, and quantizing it once for an int8 model,
    then cutting patches from it, gives the bits of running the whole graph
    on each float patch, through the one prefix function for both model
    kinds. An int8 input to a graph whose "input" has no scheme (a
    normalization reads it in float) is refused."""
    g = build_unet(UNetConfig(patch_size=16, encoder_depth=2, initial_filters=4,
                              in_channels=5, classes=3, input_norm=norm))
    w = generate_weights(g, 26)
    cube = rng.uniform(0.05, 0.95, (40, 72, 5)).astype(np.float32)
    cube[3, 4] = 0.0  # an all-zero spectrum stays zero through band_norm
    qg = quantize_model(g, w, [cube[:16, :16], cube[20:36, 50:66]])
    body, q8 = run_input_prefix(qg, cube)
    assert q8.dtype == np.int8 and q8.shape == cube.shape
    fbody, normed = run_input_prefix(g, cube, w)
    assert normed.dtype == np.float32 and normed.shape == cube.shape
    for r, c in ((0, 0), (3, 1), (24, 56), (11, 30)):
        patch = cube[r : r + 16, c : c + 16]
        assert np.array_equal(qforward(body, q8[r : r + 16, c : c + 16]), qforward(qg, patch))
        assert np.array_equal(forward(fbody, normed[r : r + 16, c : c + 16], w),
                              forward(g, patch, w))
    if norm == "none":
        assert np.array_equal(qforward(qg, q8[:16, :16]), qforward(body, q8[:16, :16]))
    else:
        with pytest.raises(RangeMissing):  # the whole graph reads float "input"
            qforward(qg, q8[:16, :16])


def test_input_prefix_refuses_a_float_reader(rng):
    """A quantized body reads the prefix output in int8, so a float layer
    of the body reading it is refused. The float model of the same graph
    runs its prefix once and keeps the whole graph's bits."""
    layers = [
        LayerSpec("a", "band_norm", ("input",), 4, 4),
        LayerSpec("b", "dense", ("a",), 4, 4),
        LayerSpec("c", "softmax", ("a",), 4, 4),
        LayerSpec("d", "concat", ("b", "c"), 8, 8),
        LayerSpec("e", "softmax", ("d",), 8, 8),
    ]
    g = ModelGraph(layers, meta={"kind": "custom", "config": {}})
    x = rng.uniform(0.05, 0.95, (6, 9, 4)).astype(np.float32)
    w = generate_weights(g, 4)
    with pytest.raises(StructureError, match="float layer of the body reads 'a'"):
        run_input_prefix(quantize_model(g, w, [x]), x)
    body, y = run_input_prefix(g, x, w)
    assert np.array_equal(forward(body, y, w), forward(g, x, w))


def test_non_finite_input_refused_in_both_walks(rng):
    """A NaN or infinity has no int8 value: both walks, and the int8
    prefix, refuse it where float enters int8, where the fast walk used to
    carry a NaN into the convolutions and the naive walk cast it to one
    int8 value, so the two gave different labels."""
    g = build_unet(UNetConfig(patch_size=16, encoder_depth=2, initial_filters=4,
                              in_channels=5, classes=3, input_norm="zscore"))
    cube = rng.uniform(0.05, 0.95, (24, 40, 5)).astype(np.float32)
    qg = quantize_model(g, generate_weights(g, 36), [cube[:16, :16]])
    for bad in (np.nan, np.inf):
        patch = cube[4:20, 10:26].copy()
        patch[7, 9, 2] = bad
        for naive in (False, True):
            with pytest.raises(NonFinite):
                qforward(qg, patch, naive=naive)
        with pytest.raises(NonFinite):
            run_input_prefix(qg, patch)


@pytest.mark.parametrize("norm", ["band_sum", "zscore", "band_sum+zscore", "none"])
def test_unet_fast_walk_equals_naive(norm, rng):
    """The fast walk on centered operands gives the naive walk's bits on a
    U-Net under every input_norm, on float patches and on the int8 prefix
    output, and infer_cube gives the same maps at 1 and 2 threads."""
    g = build_unet(UNetConfig(patch_size=16, encoder_depth=2, initial_filters=4,
                              in_channels=5, classes=3, input_norm=norm))
    w = generate_weights(g, 36)
    cube = rng.uniform(0.05, 0.95, (24, 40, 5)).astype(np.float32)
    qg = quantize_model(g, w, [cube[:16, :16], cube[8:24, 24:40]])
    patch = cube[4:20, 10:26]
    assert np.array_equal(qforward(qg, patch), qforward(qg, patch, naive=True))
    body, q8 = run_input_prefix(qg, cube)
    patch = q8[8:24, 0:16]
    assert np.array_equal(qforward(body, patch), qforward(body, patch, naive=True))
    grid = build_grid((24, 40), 16, 8, 12)
    one, two = (cli.infer_cube(qg, cube, grid, threads=t) for t in (1, 2))
    naive = cli.infer_cube(qg, cube, grid, naive=True)
    assert all(np.array_equal(a, b) and np.array_equal(a, c)
               for a, b, c in zip(one, two, naive))


def test_mlp_fast_walk_equals_naive_at_any_thread_count(mlp_models):
    """The int8 MLP's fast walk gives the naive walk's bits, and infer_cube
    the same maps at 1 and 2 threads."""
    _, _, qg = mlp_models
    cube = np.random.default_rng(12).uniform(0.05, 0.95, (50, 90, 25)).astype(np.float32)
    assert np.array_equal(qforward(qg, cube), qforward(qg, cube, naive=True))
    one, two = (cli.infer_cube(qg, cube, None, threads=t) for t in (1, 2))
    assert all(np.array_equal(a, b) for a, b in zip(one, two))
    assert np.array_equal(one[0], qforward(qg, cube))


def test_fast_walk_resolves_each_layer_once(monkeypatch, mlp_models):
    """The fast walk's kernel operands are resolved once per graph: a walk
    proves no accumulator bound and casts no weight; every dense_int call
    gets the same float32 weight object and a centered float32 input."""
    _, _, qg = mlp_models
    qg.steps
    bounds = _spy_calls(monkeypatch, kernels, "_check_acc_bound")
    seen = []
    dense_int = kernels.dense_int

    def spy(x, w, b):
        seen.append((x.dtype, w.dtype, id(w), b is None))
        return dense_int(x, w, b)

    monkeypatch.setattr(kernels, "dense_int", spy)
    x = np.random.default_rng(13).uniform(0.05, 0.95, (300, 25)).astype(np.float32)
    qforward(qg, x)
    first = list(seen)
    qforward(qg, x)
    assert bounds == [] and len(first) == 4 and seen == first * 2
    assert all(xd == wd == np.float32 and folded for xd, wd, _, folded in first)


def test_upconv_accumulates_in_float32_below_its_own_bound(monkeypatch, rng):
    """An upconv2 output sums C_in products, one of its 2x2 taps, so the
    fast walk picks float32 for it while C_in x 255 x 127 stays below 2^24,
    though its weight's other axes would count four times as many; the
    result keeps the naive walk's bits."""
    layers = [LayerSpec("up", "upconv2", ("input",), 300, 2, kernel=2),
              LayerSpec("out", "softmax", ("up",), 2, 2)]
    g = ModelGraph(layers, meta={"kind": "custom", "config": {}})
    x = rng.uniform(-1, 1, (3, 4, 300)).astype(np.float32)
    w = generate_weights(g, 11)
    w["up.bias"] = np.zeros(2, np.float32)
    qg = quantize_model(g, w, [x])
    assert 4 * 300 * 255 * 127 >= 2**24 > 300 * 255 * 127
    dtypes = []
    upconv2_int = kernels.upconv2_int
    monkeypatch.setattr(kernels, "upconv2_int", lambda xc, w, b: dtypes.append(w.dtype) or
                        upconv2_int(xc, w, b))
    assert np.array_equal(qforward(qg, x), qforward(qg, x, naive=True))
    assert dtypes == [np.float32]


def test_upconv_bound_counts_the_products_one_output_sums(rng):
    """The quantizer, the loader and the fast walk count an upconv2 output's
    products one way (quant._acc_dtype): C_in, one of its 2x2 taps. With
    C_in = 16600 the worst case, 16600 x 255 x 127, fits int32 and four
    times it does not: the layer quantizes, accumulates in float64, and its
    fast walk gives the naive walk's bits. Counting all four taps, the
    quantizer refused it ("worst case 2150364000 >= 2^31")."""
    g = ModelGraph([LayerSpec("up", "upconv2", ("input",), 16600, 1, kernel=2)],
                   meta={"kind": "custom", "config": {}})
    x = rng.uniform(-1, 1, (2, 2, 16600)).astype(np.float32)
    qg = quantize_model(g, generate_weights(g, 11), [x])
    assert 4 * 16600 * 255 * 127 >= 2**31 > 16600 * 255 * 127
    layer = g.layers[0]
    assert quant._acc_dtype(layer, qg.tensors["up.weight"], qg.tensors["up.bias"]) is np.float64
    fast = qforward(qg, x)
    assert fast.shape == (4, 4, 1) and np.array_equal(fast, qforward(qg, x, naive=True))

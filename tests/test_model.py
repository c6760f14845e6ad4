import numpy as np
import pytest

from specdrive import kernels
from specdrive.errors import InvalidConfig, MissingWeights, StructureError
from specdrive.model import (
    LAYER_KINDS,
    LayerSpec,
    ModelGraph,
    UNetConfig,
    build_mlp,
    build_unet,
    fold_batchnorm,
    forward,
    layer_tensors,
    split_input,
    walk,
)
from specdrive.quant import QuantScheme
from specdrive.weights import generate_weights

SMALL = UNetConfig(patch_size=16, encoder_depth=2, initial_filters=4,
                   in_channels=5, classes=3)


def kinds(graph):
    out = {}
    for layer in graph.layers:
        out[layer.kind] = out.get(layer.kind, 0) + 1
    return out


def _layer(graph, name):
    return next(l for l in graph.layers if l.name == name)


def test_unet_layer_census():
    g = build_unet(UNetConfig())
    k = kinds(g)
    assert k["conv3"] == 10
    assert k["batchnorm"] == 10
    assert k["upconv2"] == 2
    assert k["conv1"] == 1
    assert k["maxpool2"] == 2
    assert k["concat"] == 2
    assert k["dropout"] == 1
    assert k["band_norm"] == 1
    names = {l.name for l in g.layers}
    assert {"enc0.conv0", "bridge.conv1", "dec1.upconv", "head.conv"} <= names


def test_unet_rejects_zero_depth():
    with pytest.raises(InvalidConfig):
        UNetConfig(encoder_depth=0)


def test_unet_rejects_indivisible_patch():
    with pytest.raises(InvalidConfig):
        UNetConfig(patch_size=100, encoder_depth=3)


def test_unet_five_class_head():
    g = build_unet(UNetConfig(classes=5))
    assert _layer(g, "head.conv").out_ch == 5


def test_unet_shape_law():
    g = build_unet(SMALL)
    w = generate_weights(g, 0)
    x = np.random.default_rng(0).uniform(0, 1, (16, 16, 5)).astype(np.float32)
    tensors = dict(walk(g, x, w))
    assert tensors["enc0.relu1"].shape[:2] == (16, 16)
    assert tensors["enc1.relu1"].shape[:2] == (8, 8)
    assert tensors["bridge.relu1"].shape[:2] == (4, 4)
    assert tensors["dec1.concat"].shape[:2] == (8, 8)
    assert tensors["head.softmax"].shape == (16, 16, 3)


def test_forward_softmax_sums(rng):
    g = build_unet(SMALL)
    w = generate_weights(g, 3)
    x = rng.uniform(0, 1, (16, 16, 5)).astype(np.float32)
    y = forward(g, x, w)
    assert np.abs(y.sum(-1) - 1).max() <= 1e-5


def test_forward_deterministic(rng):
    g = build_unet(SMALL)
    w = generate_weights(g, 4)
    x = rng.uniform(0, 1, (16, 16, 5)).astype(np.float32)
    assert np.array_equal(forward(g, x, w), forward(g, x, w))


def test_forward_missing_weights(rng):
    g = build_unet(SMALL)
    w = generate_weights(g, 5)
    del w["bridge.conv0.weight"]
    with pytest.raises(MissingWeights):
        forward(g, np.zeros((16, 16, 5), np.float32), w)


def test_random_small_graphs_naive_equals_fast(rng):
    """Composed graphs of random kernel layers: optimized vs reference."""
    for trial in range(50):
        cin = int(rng.integers(1, 5))
        layers = []
        prev, ch, size = "input", cin, 8
        n_layers = int(rng.integers(1, 4))
        for i in range(n_layers):
            choice = rng.choice(["conv3", "maxpool2", "upconv2"])
            if choice == "maxpool2" and size % 2:
                choice = "conv3"
            if choice == "conv3":
                cout = int(rng.integers(1, 5))
                layers.append(LayerSpec(f"l{i}", "conv3", (prev,), ch, cout, kernel=3))
                ch = cout
            elif choice == "maxpool2":
                layers.append(LayerSpec(f"l{i}", "maxpool2", (prev,), ch, ch))
                size //= 2
            else:
                cout = int(rng.integers(1, 5))
                layers.append(LayerSpec(f"l{i}", "upconv2", (prev,), ch, cout, kernel=2))
                ch = cout
                size *= 2
            prev = f"l{i}"
        g = ModelGraph(layers, meta={"kind": "custom", "config": {}})
        w = generate_weights(g, trial)
        x = rng.normal(0, 1, (8, 8, cin)).astype(np.float32)
        fast = forward(g, x, w)
        slow = forward(g, x, w, naive=True)
        assert np.abs(fast - slow).max() <= 1e-5


def test_fold_identity_batchnorm_keeps_weights(rng):
    g = build_unet(SMALL)
    w = generate_weights(g, 6)
    for layer in g.layers:
        if layer.kind == "batchnorm":
            n = layer.name
            w[f"{n}.scale"] = np.ones(layer.out_ch, np.float32)
            w[f"{n}.offset"] = np.zeros(layer.out_ch, np.float32)
            w[f"{n}.mean"] = np.zeros(layer.out_ch, np.float32)
            w[f"{n}.variance"] = np.ones(layer.out_ch, np.float32)
    fg, fw = fold_batchnorm(g, w)
    # identity BN still divides by sqrt(1 + eps); allow that tiny factor
    np.testing.assert_allclose(
        fw["enc0.conv0.weight"], w["enc0.conv0.weight"], rtol=2e-5
    )


def test_fold_batchnorm_preserves_outputs(rng):
    """The folded graph against the network as written, which only the
    naive walk still runs (the fast walk folds it)."""
    g = build_unet(SMALL)
    w = generate_weights(g, 7)
    fg, fw = fold_batchnorm(g, w)
    assert not any(l.kind == "batchnorm" for l in fg.layers)
    x = rng.uniform(0, 1, (16, 16, 5)).astype(np.float32)
    a = forward(g, x, w, naive=True)
    b = forward(fg, x, fw)
    assert np.abs(a - b).max() <= 1e-4


def test_fast_forward_runs_the_folded_graph(rng):
    """forward folds an unfolded graph itself: the same bits as forward on
    fold_batchnorm's output, and no batchnorm tensor in walk."""
    g = build_unet(SMALL)
    w = generate_weights(g, 7)
    fg, fw = fold_batchnorm(g, w)
    x = rng.uniform(0, 1, (16, 16, 5)).astype(np.float32)
    assert np.array_equal(forward(g, x, w), forward(fg, x, fw))
    full = dict(walk(g, x, w))
    assert full.keys() == dict(walk(fg, x, fw)).keys()


def test_batchnorm_runs_only_on_the_naive_walk(monkeypatch, rng):
    g = build_unet(SMALL)
    w = generate_weights(g, 7)
    calls = []
    real = kernels.batchnorm_infer
    monkeypatch.setattr(kernels, "batchnorm_infer",
                        lambda *a: calls.append(1) or real(*a))
    x = rng.uniform(0, 1, (16, 16, 5)).astype(np.float32)
    forward(g, x, w)
    dict(walk(g, x, w))
    assert calls == []
    forward(g, x, w, naive=True)
    assert len(calls) == sum(l.kind == "batchnorm" for l in g.layers) == 10


def test_fold_of_a_folded_graph_is_the_same_objects():
    g = build_unet(SMALL)
    w = generate_weights(g, 7)
    fg, fw = fold_batchnorm(g, w)
    again = fold_batchnorm(fg, fw)
    assert again[0] is fg and again[1] is fw
    m = build_mlp(25, 3)
    mw = generate_weights(m, 0)
    assert all(a is b for a, b in zip(fold_batchnorm(m, mw), (m, mw)))
    # tensors the fold leaves alone are shared, not copied
    assert fw["head.conv.weight"] is w["head.conv.weight"]
    assert fw["enc0.conv0.weight"] is not w["enc0.conv0.weight"]


@pytest.mark.parametrize("tensor", ["enc1.conv1.weight", "dec0.conv0.bias"])
def test_fold_missing_tensor_under_a_batchnorm(tensor):
    g = build_unet(SMALL)
    w = generate_weights(g, 7)
    del w[tensor]
    with pytest.raises(MissingWeights, match=tensor):
        fold_batchnorm(g, w)


def test_fold_batchnorm_param_bookkeeping():
    from specdrive.complexity import count_params

    g = build_unet(UNetConfig())
    w = generate_weights(g, 8)
    fg, fw = fold_batchnorm(g, w)
    before = count_params(g)
    after = count_params(fg)
    assert after.non_trainable == 0
    # folded total = original trainable minus the BN scale/offset pairs,
    # which come in the same count as the stored mean/variance pairs
    assert after.np_total == before.trainable - before.non_trainable
    assert after.np_total == 31067


def test_fold_requires_conv_adjacent_bn():
    layers = [
        LayerSpec("r", "relu", ("input",), 4, 4),
        LayerSpec("b", "batchnorm", ("r",), 4, 4),
    ]
    g = ModelGraph(layers, meta={"kind": "custom", "config": {}})
    w = {
        "b.scale": np.ones(4, np.float32), "b.offset": np.zeros(4, np.float32),
        "b.mean": np.zeros(4, np.float32), "b.variance": np.ones(4, np.float32),
    }
    with pytest.raises(StructureError):
        fold_batchnorm(g, w)


def test_mlp_structure():
    g = build_mlp(25, 3)
    dense = [l for l in g.layers if l.kind == "dense"]
    assert [(d.in_ch, d.out_ch) for d in dense] == [(25, 25), (25, 100), (100, 100), (100, 3)]
    assert kinds(g)["tanh"] == 3
    assert g.layers[0].kind == "band_norm"
    assert g.layers[1].kind == "zscore"
    assert g.layers[-1].kind == "softmax"
    assert _layer(build_mlp(25, 5), "fc3").out_ch == 5
    with pytest.raises(InvalidConfig):
        build_mlp(25, 1)


def test_mlp_applies_per_pixel(rng):
    g = build_mlp(25, 3)
    w = generate_weights(g, 9)
    cube = rng.uniform(0.1, 0.9, (6, 7, 25)).astype(np.float32)
    y = forward(g, cube, w)
    assert y.shape == (6, 7, 3)
    single = forward(g, cube[2, 3], w)
    np.testing.assert_allclose(y[2, 3], single, atol=1e-6)


PER_PIXEL = ("band_norm", "zscore", "dense", "tanh", "relu", "batchnorm", "dropout",
             "softmax")


def _single_layer(rng, kind, c=6):
    """A layer of this kind on c channels, with positive random tensors."""
    layer = LayerSpec("l", kind, ("input",), in_ch=c, out_ch=c,
                      kernel=3 if kind == "conv3" else 2)
    tensors = [rng.uniform(0.5, 1.5, shape).astype(np.float32)
               for _, shape, _ in layer_tensors(layer)]
    return layer, tensors


def _changed_pixels(a, b):
    return (a != b).reshape(*a.shape[:2], -1).any(axis=-1)


def test_per_pixel_kinds_are_flagged():
    assert {k for k, v in LAYER_KINDS.items() if v.per_pixel} == set(PER_PIXEL)
    assert build_mlp(25, 3).per_pixel
    assert not build_unet(SMALL).per_pixel


@pytest.mark.parametrize("kind", PER_PIXEL)
def test_per_pixel_kind_reads_only_its_pixel(rng, kind):
    """Perturbing one input pixel changes that output pixel and no other, in
    the float op and in the int op where the kind has one."""
    layer, tensors = _single_layer(rng, kind)
    op = LAYER_KINDS[kind]
    x = rng.uniform(0.1, 1.0, (6, 8, 6)).astype(np.float32)
    x2 = x.copy()
    x2[2, 5] += 0.5
    only = np.zeros((6, 8), bool)
    only[2, 5] = True

    def run(v):
        return op.float_op(layer, [v], tensors, kernels.FAST_KERNELS)

    assert np.array_equal(_changed_pixels(run(x), run(x2)), only)
    if op.int_op is None:
        return
    xq = rng.integers(10, 100, (6, 8, 6)).astype(np.int8)
    xq2 = xq.copy()
    xq2[2, 5] += 5
    ins = [QuantScheme(0.02, 3)]
    if kind == "dense":
        wq = rng.integers(-127, 128, (6, 6)).astype(np.int8)
        stored = [wq, rng.integers(-100, 100, 6).astype(np.int32)]
    else:  # a one-to-one table, so every changed input changes its entry
        stored = [(rng.permutation(256) - 128).astype(np.int8)]

    def run_int(v):
        return op.int_op(layer, [v], ins, QuantScheme(0.05, -7), stored, True)

    assert np.array_equal(_changed_pixels(run_int(xq), run_int(xq2)), only)


@pytest.mark.parametrize("kind", ["conv3", "maxpool2", "upconv2"])
def test_spatial_kind_spreads_or_resizes(rng, kind):
    layer, tensors = _single_layer(rng, kind)
    op = LAYER_KINDS[kind]
    assert not op.per_pixel
    x = rng.uniform(0.1, 1.0, (6, 8, 6)).astype(np.float32)
    x2 = x.copy()
    x2[2, 5] += 0.5
    y, y2 = (op.float_op(layer, [v], tensors, kernels.FAST_KERNELS) for v in (x, x2))
    assert y.shape[:2] != x.shape[:2] or _changed_pixels(y, y2).sum() > 1


def test_graph_rejects_forward_reference():
    with pytest.raises(StructureError):
        ModelGraph([LayerSpec("a", "relu", ("b",), 1, 1),
                    LayerSpec("b", "relu", ("input",), 1, 1)])


def test_band_norm_layer_in_unet(rng):
    g = build_unet(SMALL)
    w = generate_weights(g, 10)
    x = rng.uniform(0.1, 0.9, (16, 16, 5)).astype(np.float32)
    tensors = dict(walk(g, x, w))
    assert np.abs(tensors["norm.bands"].sum(-1) - 1).max() <= 1e-6


def test_unet_zscore_input_variant(rng):
    cfg = UNetConfig(patch_size=16, encoder_depth=2, initial_filters=4,
                     in_channels=5, classes=3, input_norm="band_sum+zscore")
    g = build_unet(cfg)
    names = [l.name for l in g.layers[:2]]
    assert names == ["norm.bands", "norm.zscore"]
    w = generate_weights(g, 40)
    x = rng.uniform(0.1, 0.9, (16, 16, 5)).astype(np.float32)
    y = forward(g, x, w)
    assert y.shape == (16, 16, 3)
    assert np.abs(y.sum(-1) - 1).max() <= 1e-5


def _names(graph):
    return [l.name for l in graph.layers]


@pytest.mark.parametrize("graph, prefix", [
    (build_mlp(25, 3), ["norm.bands", "norm.zscore"]),
    (build_unet(SMALL), ["norm.bands"]),
    (build_unet(UNetConfig(patch_size=16, in_channels=5, input_norm="zscore")),
     ["norm.zscore"]),
    (build_unet(UNetConfig(patch_size=16, in_channels=5, input_norm="none")), []),
], ids=["mlp", "unet", "unet-zscore", "unet-none"])
def test_split_input_takes_the_normalization_prefix(graph, prefix):
    head, body = split_input(graph)
    assert _names(head) == prefix
    assert head.output_name == (prefix[-1] if prefix else "input")
    assert _names(body) == _names(graph)[len(prefix):]
    assert body.layers[0].inputs == ("input",)
    assert [l.inputs for l in body.layers[1:]] == [
        l.inputs for l in graph.layers[len(prefix) + 1:]]


def test_split_input_refuses_a_body_reading_a_prefix_tensor():
    """A body that reads a prefix tensor other than the prefix's output,
    the raw input included, is refused: it would read a tensor the body
    does not produce. A one-layer graph keeps its layer in the body."""
    layers = [
        LayerSpec("a", "band_norm", ("input",), 4, 4),
        LayerSpec("b", "zscore", ("a",), 4, 4),
        LayerSpec("c", "conv1", ("b",), 4, 4, kernel=1),
        LayerSpec("d", "concat", ("c", "a"), 8, 8),
        LayerSpec("e", "softmax", ("d",), 8, 8),
    ]
    with pytest.raises(StructureError, match="consumes 'a' before it is produced"):
        split_input(ModelGraph(layers, meta={"kind": "custom", "config": {}}))
    raw = [*layers[:3], LayerSpec("d", "concat", ("c", "input"), 8, 8), layers[4]]
    with pytest.raises(StructureError, match="before it is produced"):
        split_input(ModelGraph(raw, meta={"kind": "custom", "config": {}}))

    only = ModelGraph(layers[:1], meta={"kind": "custom", "config": {}})
    head, body = split_input(only)
    assert _names(head) == [] and _names(body) == ["a"]
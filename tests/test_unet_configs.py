"""The inference oracles as properties over U-Net configs, not only the
default model: any depth, width, kernel, patch, class count and input
normalization keeps float fast against naive within 1e-5 with the same
argmax, int8 fast against naive bitwise, the .sdq file bitwise through a
save and load, and infer_cube's reconstructed map bitwise across worker
counts. The example set is fixed by the hypothesis profile in conftest.py."""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from specdrive import cli
from specdrive.model import UNetConfig, build_unet, forward
from specdrive.quant import load_qgraph, qforward, quantize_model, save_qgraph
from specdrive.tiling import extract_patches
from specdrive.weights import generate_weights

NORMS = ["band_sum", "zscore", "band_sum+zscore", "none"]


def _cfg(patch, depth, filters, kernel, bands, classes, norm):
    return UNetConfig(patch_size=patch, encoder_depth=depth, initial_filters=filters,
                      conv_kernel=kernel, in_channels=bands, classes=classes,
                      input_norm=norm)


@st.composite
def unet_configs(draw):
    depth = draw(st.integers(1, 4))
    step = 2**depth
    return _cfg(step * draw(st.integers(1, 32 // step)), depth, draw(st.integers(1, 16)),
                draw(st.sampled_from([1, 3, 5])), draw(st.integers(1, 6)),
                draw(st.integers(2, 255)), draw(st.sampled_from(NORMS)))


# every input normalization runs, whatever the draws are
@example(cfg=_cfg(16, 4, 3, 5, 4, 255, "zscore"), seed=7, extra=(0, 9))
@example(cfg=_cfg(12, 2, 16, 1, 2, 2, "band_sum"), seed=8, extra=(5, 1))
@example(cfg=_cfg(8, 3, 8, 3, 1, 40, "none"), seed=9, extra=(9, 9))
@example(cfg=_cfg(6, 1, 4, 3, 5, 7, "band_sum+zscore"), seed=10, extra=(2, 0))
@given(cfg=unet_configs(), seed=st.integers(0, 2**16),
       extra=st.tuples(st.integers(0, 9), st.integers(0, 9)))
def test_unet_config_keeps_the_oracles(tmp_path_factory, cfg, seed, extra):
    graph = build_unet(cfg)
    weights = generate_weights(graph, seed)
    rng = np.random.default_rng(seed)
    hw = (cfg.patch_size + extra[0], cfg.patch_size + extra[1])
    cube = rng.uniform(0.05, 0.95, (*hw, cfg.in_channels)).astype(np.float32)
    grid = cli._grid_for(graph.meta, hw, None)
    patches = extract_patches(cube, grid)

    fast = forward(graph, patches[0], weights)
    slow = forward(graph, patches[0], weights, naive=True)
    assert np.abs(fast - slow).max() <= 1e-5
    assert np.array_equal(fast.argmax(-1), slow.argmax(-1))

    qg = quantize_model(graph, weights, patches[:2])
    assert np.array_equal(qforward(qg, patches[0]), qforward(qg, patches[0], naive=True))
    path = tmp_path_factory.mktemp("sdq") / "u.sdq"
    save_qgraph(path, qg)
    data = path.read_bytes()
    loaded = load_qgraph(path)
    save_qgraph(path, loaded)
    assert path.read_bytes() == data
    assert np.array_equal(qforward(loaded, patches[0]), qforward(qg, patches[0]))

    for model, w in ((graph, weights), (qg, None)):
        want = cli.infer_cube(model, cube, grid, weights=w)
        for threads in (2, 3):
            got = cli.infer_cube(model, cube, grid, weights=w, threads=threads)
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), threads

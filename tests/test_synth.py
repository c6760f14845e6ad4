import numpy as np
import pytest

from specdrive.errors import InvalidSpec
from specdrive.metrics import IGNORE_LABEL
from specdrive.model import forward
from specdrive.mosaic import preprocess_pipeline
from specdrive.synth import (
    SceneSpec,
    class_signatures,
    interior_mask,
    separating_mlp_weights,
    synth_scene,
    weak_labels,
)


def run_pipeline(scene):
    return preprocess_pipeline(scene.raw, scene.dark, scene.white, scene.layout)


def test_constant_spectrum_scene_recovers_exactly():
    scene = synth_scene(SceneSpec(kind="classes", num_classes=1, seed=1))
    cube = run_pipeline(scene).cube
    err = np.abs(cube - scene.gt_cube)
    assert err.max() <= 1e-5  # includes the border ring: constants interpolate exactly


def test_gradient_scene_interior_recovery():
    scene = synth_scene(SceneSpec(kind="gradient", seed=2))
    cube = run_pipeline(scene).cube
    err = np.abs(cube - scene.gt_cube)
    interior = interior_mask(scene.gt_cube.shape[:2])
    assert err[interior].max() <= 1e-5
    assert err[~interior].max() <= 5e-3


def test_scene_is_seeded():
    a = synth_scene(SceneSpec(kind="gradient", seed=9))
    b = synth_scene(SceneSpec(kind="gradient", seed=9))
    c = synth_scene(SceneSpec(kind="gradient", seed=10))
    assert np.array_equal(a.raw, b.raw)
    assert not np.array_equal(a.raw, c.raw)


def test_class_scene_labels_align_with_regions(class_scene):
    labels = class_scene.labels
    cmap = class_scene.class_map
    scored = labels != IGNORE_LABEL
    assert np.array_equal(labels[scored], cmap[scored])
    assert scored.any() and (~scored).any()


def test_weak_labels_erode_boundaries():
    cmap = np.zeros((10, 10), np.uint8)
    cmap[:, 5:] = 1
    labels = weak_labels(cmap, erode=1)
    assert (labels[:, 4:6] == IGNORE_LABEL).all()
    assert (labels[:, :4] == 0).all() and (labels[:, 6:] == 1).all()
    assert np.array_equal(weak_labels(cmap, erode=0), cmap)


def test_noise_breaks_exactness_but_stays_bounded():
    spec = SceneSpec(kind="classes", num_classes=2, seed=3, noise=0.001)
    scene = synth_scene(spec)
    cube = run_pipeline(scene).cube
    scored = scene.labels != IGNORE_LABEL
    err = np.abs(cube - scene.gt_cube)[scored]
    assert err.max() > 1e-5
    assert err.mean() < 0.01


def test_signatures_are_separated():
    sig = class_signatures(5, seed=4)
    norm = sig / sig.sum(axis=1, keepdims=True)
    for i in range(5):
        for j in range(i + 1, 5):
            assert np.linalg.norm(norm[i] - norm[j]) > 0.02


def test_separating_classifier_on_pure_signatures():
    sig = class_signatures(3, seed=5)
    graph, weights = separating_mlp_weights(sig)
    probs = forward(graph, sig.astype(np.float32), weights)
    assert np.array_equal(probs.argmax(-1), np.arange(3))
    # decisively so
    assert probs.max(-1).min() > 0.5


def test_separating_classifier_on_recovered_scene(class_scene, class_cube):
    graph, weights = separating_mlp_weights(class_scene.signatures)
    sub = class_cube[60:70, 100:115]
    probs = forward(graph, sub, weights)
    want = class_scene.class_map[60:70, 100:115]
    assert np.array_equal(probs.argmax(-1), want)


def test_rects_layout():
    spec = SceneSpec(kind="classes", num_classes=3, layout_kind="rects",
                     rects=((10, 10, 60, 80, 1), (100, 200, 150, 300, 2)), seed=6)
    scene = synth_scene(spec)
    assert scene.class_map[30, 40] == 1
    assert scene.class_map[120, 250] == 2
    assert scene.class_map[0, 0] == 0


def test_invalid_specs_rejected():
    with pytest.raises(InvalidSpec):
        SceneSpec(kind="wat")
    with pytest.raises(InvalidSpec):
        SceneSpec(layout_kind="rects", rects=())
    with pytest.raises(InvalidSpec):
        SceneSpec(dark_level=5000, white_level=100)
    with pytest.raises(InvalidSpec):
        synth_scene(SceneSpec(layout_kind="rects", rects=((0, 0, 999, 10, 0),)))
    with pytest.raises(InvalidSpec):
        separating_mlp_weights(np.ones((3, 7)))


def test_from_dict_roundtrip():
    spec = SceneSpec.from_dict(
        {"kind": "classes", "num_classes": 4, "layout_kind": "hstripes",
         "noise": 0.01, "seed": 77}
    )
    assert spec.num_classes == 4 and spec.seed == 77

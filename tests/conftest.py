import numpy as np
import pytest
from hypothesis import settings

from specdrive.mosaic import MosaicLayout, preprocess_pipeline
from specdrive.synth import SceneSpec, synth_scene

# Property and fuzz tests draw a fixed, small example set: the same cases on
# every run, no per-example deadline (timings on shared machines are noisy)
# and no example database on disk.
settings.register_profile(
    "specdrive", derandomize=True, deadline=None, max_examples=25, database=None
)
settings.load_profile("specdrive")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_layout():
    """Tiny active area (20x25 -> 4x5 mosaics) for loop-speed tests."""
    return MosaicLayout(
        tile=np.arange(25).reshape(5, 5),
        active_origin=(0, 0),
        active_size=(20, 25),
        layout_id="test-5x5",
    )


@pytest.fixture(scope="session")
def class_scene():
    """One full-size 3-class scene, shared across tests."""
    return synth_scene(SceneSpec(kind="classes", num_classes=3, seed=42))


@pytest.fixture(scope="session")
def class_cube(class_scene):
    res = preprocess_pipeline(class_scene.raw, class_scene.dark, class_scene.white,
                              class_scene.layout)
    return res.cube

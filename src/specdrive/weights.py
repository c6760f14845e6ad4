"""Weight generation and the binary weight container.

Training happens elsewhere; this package consumes weights. For tests and
demos a seeded generator produces He-style fan-in scaled tensors, so any
weight-dependent behaviour is reproducible from a single integer.

Container layout (.sdw): the framed container of formats.write_container
(4-byte magic, little-endian uint32 header length, UTF-8 JSON header, then
the tensor payload). The header carries the model kind/config and an
ordered tensor manifest (name, shape, dtype); payload tensors are
concatenated little-endian float32 in manifest order.
"""

from __future__ import annotations

import numpy as np

from .errors import CorruptContainer, Field
from .formats import read_container, write_container
from .model import ModelGraph, build_from_meta, layer_tensors

MAGIC = b"SDW1"
# the header's keys besides its tensor manifest
HEADER = {"format": Field(frozenset({"sdw"})), "version": Field(int, 1, 1),
          "model": Field(dict)}


def tensor_specs(graph: ModelGraph) -> list[tuple[str, tuple[int, ...]]]:
    """Ordered (name, shape) pairs for every tensor the graph expects."""
    return [(name, shape) for layer in graph.layers
            for name, shape, _ in layer_tensors(layer)]


# the seeded draw per tensor suffix: fan-in scaled normals for kernels, small
# biases, mildly perturbed batch-norm statistics
_DRAWS = {
    "weight": lambda rng, s: rng.normal(0.0, np.sqrt(2.0 / int(np.prod(s[:-1]))), size=s),
    "bias": lambda rng, s: rng.normal(0.0, 0.02, size=s),
    "scale": lambda rng, s: rng.uniform(0.8, 1.25, size=s),
    "offset": lambda rng, s: rng.normal(0.0, 0.1, size=s),
    "mean": lambda rng, s: rng.normal(0.0, 0.1, size=s),
    "variance": lambda rng, s: rng.uniform(0.5, 1.5, size=s),
    "std": lambda rng, s: rng.uniform(0.8, 1.25, size=s),
}


def generate_weights(graph: ModelGraph, seed: int = 0) -> dict[str, np.ndarray]:
    """Seeded pseudo-random weights, drawn in tensor_specs order. Z-score
    statistics are identity (mean 0, std 1) unless the caller supplies real
    ones; they are drawn all the same, so no other tensor changes."""
    rng = np.random.default_rng(seed)
    weights: dict[str, np.ndarray] = {}
    for layer in graph.layers:
        for name, shape, role in layer_tensors(layer):
            w = _DRAWS[name.rsplit(".", 1)[1]](rng, shape)
            if role == "statistic":
                w = np.zeros(shape) if name.endswith(".mean") else np.ones(shape)
            weights[name] = w.astype(np.float32)
    return weights


def save_weights(path, graph: ModelGraph, weights: dict[str, np.ndarray]) -> None:
    tensors = []
    for name, shape in tensor_specs(graph):
        arr = np.ascontiguousarray(weights[name], dtype="<f4")
        if arr.shape != shape:
            raise CorruptContainer(f"tensor {name} has shape {arr.shape}, expected {shape}")
        tensors.append(({"name": name, "shape": list(shape), "dtype": "f32le"}, arr))
    header = {"format": "sdw", "version": 1, "model": graph.meta}
    write_container(path, MAGIC, header, tensors)


def load_weights(path) -> tuple[ModelGraph, dict[str, np.ndarray]]:
    """Read a container back into a graph plus weight dict. The tensors must
    be exactly the ones the model's graph reads, in order and shape."""
    header, arrays = read_container(path, MAGIC, {"f32le": "<f4"}, HEADER)
    graph = build_from_meta(header["model"], f"{path}: 'model'")
    if [(n, a.shape) for n, (a, _) in arrays.items()] != tensor_specs(graph):
        raise CorruptContainer(f"{path}: tensors do not match the model")
    return graph, {n: a for n, (a, _) in arrays.items()}

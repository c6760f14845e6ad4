"""Parameter and FLOP accounting for model graphs, read off the layer-kind
table in model.py.

Parameters are the tensors a layer reads: convolutions and dense layers
count weights plus bias; batch norm counts its scale/offset as trainable and
the stored mean/variance as non-trainable; the z-score statistics of the
input normalization are not parameters.

The FLOP figure uses a fixed, documented convention: 2 x MACs where
MACs = H_out * W_out * C_out * C_in * k_h * k_w for every kernel layer
(including up-convolutions, charged at their output resolution) and
N_in * N_out per application for dense layers. Activations, batch norm,
pooling and softmax are excluded. Published complexity figures for compact
segmentation nets mix 1- and 2-FLOP-per-MAC conventions, so the report
carries both the MAC and the 2x number.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .errors import InvalidConfig
from .model import LAYER_KINDS, ModelGraph, layer_tensors


@dataclass(frozen=True)
class ComplexityReport:
    np_total: int
    trainable: int
    non_trainable: int
    macs_per_patch: int = 0
    flops_per_patch: int = 0
    flops_per_image: int = 0
    patches_per_image: int = 0


def count_params(graph: ModelGraph) -> ComplexityReport:
    counts = {"trainable": 0, "non_trainable": 0, "statistic": 0}
    for layer in graph.layers:
        for _, shape, role in layer_tensors(layer):
            counts[role] += prod(shape)
    return ComplexityReport(
        np_total=counts["trainable"] + counts["non_trainable"],
        trainable=counts["trainable"],
        non_trainable=counts["non_trainable"],
    )


def count_flops(graph: ModelGraph, patches_per_image: int = 18) -> ComplexityReport:
    """Complexity report with MAC/FLOP totals for one patch (one pixel for
    per-pixel models) and for a full image of patches_per_image patches."""
    params = count_params(graph)
    if graph.meta.get("kind") == "unet":
        side = graph.meta["config"]["patch_size"]
    else:
        side = 1  # per-pixel model: one application
    sizes = {"input": side}
    macs = 0
    for layer in graph.layers:
        s_in = sizes[layer.inputs[0]]
        s = s_in * LAYER_KINDS[layer.kind].resize
        if s != int(s):
            raise InvalidConfig(f"odd spatial size {s_in} at {layer.name}")
        s = sizes[layer.name] = int(s)
        macs += s * s * sum(prod(shape) for name, shape, _ in layer_tensors(layer)
                            if name.endswith(".weight"))
    return ComplexityReport(
        np_total=params.np_total,
        trainable=params.trainable,
        non_trainable=params.non_trainable,
        macs_per_patch=macs,
        flops_per_patch=2 * macs,
        flops_per_image=patches_per_image * 2 * macs,
        patches_per_image=patches_per_image,
    )

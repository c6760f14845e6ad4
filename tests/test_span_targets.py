"""perfbench times the program by swapping the functions that
perfbench/spans.py names for timing wrappers. A name a refactor removes is
reported there as "(missing)" in a traced run only, so this pins every
span target to a callable of the specdrive modules."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from specdrive import (cli, complexity, formats, kernels, model, mosaic, quant, synth,
                       tiling, weights)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


# every call site a traced run wraps, for the modules perfbench/run.py hands over
TARGETS = _load_spans().targets(SimpleNamespace(
    cli=cli, complexity=complexity, formats=formats, kernels=kernels, model=model,
    mosaic=mosaic, quant=quant, synth=synth, tiling=tiling, weights=weights))


@pytest.mark.parametrize("owner, key, span, hook", TARGETS, ids=[t[2] for t in TARGETS])
def test_span_target_is_a_callable(owner, key, span, hook):
    target = owner.get(key) if isinstance(owner, dict) else getattr(owner, key, None)
    assert callable(target), f"{span}: {key} is missing"

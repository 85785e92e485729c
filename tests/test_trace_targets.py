"""Every function and method that the per-layer tracer of perfbench wraps by
name must exist in kothe, so a rename fails here and not only in a traced
benchmark run."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
try:
    from tracing import FUNCTIONS
finally:
    sys.path.pop(0)


@pytest.mark.parametrize("span", sorted(FUNCTIONS))
def test_trace_target_resolves(span):
    module, target, _ = FUNCTIONS[span]
    owner = importlib.import_module(module)
    for attr in target.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)

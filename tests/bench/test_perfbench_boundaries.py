"""The host-speed benchmark's trace boundaries still name real entry points.

``perfbench/tracing.py`` patches layer boundaries by ``module:Class.attr``
name and times generator boundaries per resumption, so a refactor that moves
or renames one of them breaks ``perfbench/run.py --trace 1`` without failing
anything else.  The module is loaded from its file and only read here.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[2] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
TARGETS = sorted(target for targets in tracing.BOUNDARIES.values() for target in targets)


@pytest.mark.parametrize("target", TARGETS)
def test_boundary_resolves(target):
    owner, attribute, original = tracing._resolve(target)
    assert owner.__dict__[attribute] is original


@pytest.mark.parametrize("target", [t for t in TARGETS if t.endswith("_steps")])
def test_steps_boundaries_are_generator_functions(target):
    _, _, original = tracing._resolve(target)
    assert inspect.isgeneratorfunction(original)


def test_every_rebalance_layer_has_both_entry_points():
    steps_targets = [t for t in TARGETS if t.endswith("_steps")]
    assert steps_targets
    for target in steps_targets:
        assert target[: -len("_steps")] in TARGETS

"""The benchmark's per-layer spans wrap functions by name; each name must still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_SPANS = _PERFBENCH / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize(
    "owner_path, attr", [(owner, attr) for owner, attr, _, _ in spans.HOOKS],
    ids=[f"{owner}.{attr}" for owner, attr, _, _ in spans.HOOKS],
)
def test_hook_resolves(owner_path, attr):
    owner = spans._resolve(owner_path)
    assert owner is not None, owner_path
    assert callable(getattr(owner, attr, None)), f"{owner_path}.{attr}"


def test_benchmark_imports_resolve(monkeypatch):
    """Every name the benchmark's kernels, workloads and spot script import from the package still exists."""
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    importlib.import_module("kernels")
    importlib.import_module("workloads")
    importlib.import_module("spot")
    from campaignfx.synth import SynthVenue

    # workloads.py edits polls through this row view and assigns them back
    assert isinstance(SynthVenue.readings, property)
    assert SynthVenue.readings.fset is not None

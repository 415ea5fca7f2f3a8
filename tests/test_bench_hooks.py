"""The benchmark's per-layer spans wrap functions by name; each name must still exist."""

import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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

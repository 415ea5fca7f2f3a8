"""The README's library example runs as written against the package root."""

import contextlib
import io
import re
import types
from pathlib import Path

import campaignfx

README = Path(__file__).resolve().parents[1] / "README.md"
ROOT_NAMES = {"TestConfig", "Horizon", "evaluate_effect", "derive_rng", "segment", "DailySeries"}


def library_example() -> str:
    """The fenced Python block under the README's "Library use" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"^```python\n(.*?)^```$", section, re.S | re.M).group(1)


def test_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), str(README), "exec"), {})
    p_value, power, label = out.getvalue().split()
    assert 0.0 < float(p_value) <= 1.0 and 0.0 <= float(power) <= 1.0
    assert label.startswith("EffectLabel.")


def test_root_exports_the_example_names():
    public = {name for name, value in vars(campaignfx).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    imported = re.search(r"from campaignfx import \((.*?)\)", library_example(), re.S).group(1)
    assert public == set(re.findall(r"\w+", imported)) == ROOT_NAMES

"""Each module of the package uses only the public names of the others."""

import ast
from pathlib import Path

import campaignfx

PACKAGE = Path(campaignfx.__file__).parent


def test_no_private_name_is_imported_from_another_module():
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.ImportFrom) and node.level  # from .x import ...
        for alias in node.names if alias.name.startswith("_")
    ]
    assert found == []

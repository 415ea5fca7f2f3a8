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


def _pool_constructions(node: ast.AST, where: str, names: set[str]) -> list[str]:
    """``where``-qualified names of the functions under ``node`` that call one of ``names``."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += _pool_constructions(child, f"{where}.{child.name}", names)
            continue
        if isinstance(child, ast.Call):
            func = child.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) in names:
                found.append(where)
        found += _pool_constructions(child, where, names)
    return found


def test_one_function_starts_process_pools():
    """Every pool starts in ``pipeline.fan_out``, which caps the workers at the tasks and sets the chunks."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        names = {"ProcessPoolExecutor"} | {
            alias.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name == "ProcessPoolExecutor" and alias.asname
        }
        found += _pool_constructions(tree, path.stem, names)
    assert found == ["pipeline.fan_out"]

"""Module boundaries inside the package."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "sdcs"


def private_imports(source: str) -> list[str]:
    """'module.name' for each _-prefixed name imported from an sdcs module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module != "sdcs" and not module.startswith("sdcs."):
            continue
        found += [f"{module}.{alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


def test_finder_sees_relative_and_absolute_private_imports():
    src = ("from .experiments import _fmt, run_decay_sweep\n"
           "from sdcs.recovery import _recover\n"
           "from . import _private_module\n"
           "from __future__ import annotations\n"
           "from numpy import _globals\n")
    assert private_imports(src) == ["experiments._fmt", "sdcs.recovery._recover",
                                    "._private_module"]


def test_no_module_imports_a_private_name_from_another():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 10
    found = {f.name: private_imports(f.read_text()) for f in files}
    assert {name: names for name, names in found.items() if names} == {}

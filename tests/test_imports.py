"""Module boundaries inside the package, and the names the README gives
as the homes of its mechanisms."""

import ast
import importlib
import inspect
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sdcs"


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


def mechanism_homes(readme: str) -> list[str]:
    """The sdcs names in the Home column of the README's mechanism table."""
    section = readme.split("## Where each mechanism is described", 1)[1].split("\n## ", 1)[0]
    homes = []
    for line in section.splitlines():
        cells = line.strip().strip("|").split("|")
        if line.startswith("|") and len(cells) == 2:
            homes += re.findall(r"`(sdcs(?:\.\w+)+)`", cells[1])
    return homes


def resolve(dotted: str):
    """The object a dotted name names: its longest importable prefix, then
    getattr for each remaining part."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for name in parts[i:]:
            obj = getattr(obj, name)
        return obj
    raise ModuleNotFoundError(dotted)


def test_every_mechanism_home_in_the_readme_resolves():
    # a rename or an inline of a home would otherwise leave the table pointing
    # at nothing; each home holds its mechanism's description, a docstring
    homes = mechanism_homes((ROOT / "README.md").read_text())
    assert len(homes) >= 11
    for home in homes:
        assert inspect.getdoc(resolve(home)), home

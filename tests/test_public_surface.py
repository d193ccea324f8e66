"""Every public name of the package has a user outside the tests.

A name in a ``diskvort.*`` module's ``__all__`` must be referenced in
``src/``, ``demos/`` or ``perfbench/`` somewhere other than inside its
own top-level ``def`` or ``class``.  Code that only the tests call
belongs in a test oracle under ``tests/``, not in the package.

A reference is a name or an attribute spelled like the public name, or
the string ``"<module>.<name>"``, the form in which the benchmark's
tracer looks names up; an import alone does not count.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import diskvort

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "demos", "perfbench")

TREES = {
    path.resolve(): ast.parse(path.read_text(), filename=str(path))
    for top in SEARCHED
    for path in sorted((ROOT / top).rglob("*.py"))
}


def _public_names():
    for info in pkgutil.iter_modules(diskvort.__path__):
        module = importlib.import_module(f"diskvort.{info.name}")
        for name in getattr(module, "__all__", ()):
            yield f"{info.name}.{name}"


def _references(tree: ast.Module, target: str, own_file: bool) -> int:
    name = target.split(".")[1]
    skipped = set()
    if own_file:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
                skipped.update(id(n) for n in ast.walk(node))
    return sum(
        1
        for node in ast.walk(tree)
        if id(node) not in skipped
        and (
            (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.Constant) and node.value == target)
        )
    )


@pytest.mark.parametrize("target", list(_public_names()))
def test_public_name_has_a_user(target):
    module = importlib.import_module(f"diskvort.{target.split('.')[0]}")
    own = Path(module.__file__).resolve()
    count = sum(_references(tree, target, path == own) for path, tree in TREES.items())
    assert count > 0, f"{target} is in __all__ but nothing in {', '.join(SEARCHED)} uses it"

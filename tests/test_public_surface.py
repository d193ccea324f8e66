"""Every public name of the package has a user outside the tests.

A name in a ``diskvort.*`` module's ``__all__`` must be referenced in
``src/``, ``demos/`` or ``perfbench/`` somewhere other than inside its
own top-level ``def`` or ``class``.  Code that only the tests call
belongs in a test oracle under ``tests/``, not in the package.

A reference is a name or an attribute spelled like the public name, or
the string ``"<module>.<name>"``, the form in which the benchmark's
tracer looks names up; an import alone does not count.

The same holds for the public methods and properties of a class in
``__all__``: each must be referenced as an attribute somewhere other
than inside its own ``def``.  The match is by name only, since the type
of the object before the dot is not known without running the code, so
a method whose name another class's method shares passes whenever the
other one is used.  That is how ``PressureField.mean`` (numpy arrays
have ``.mean``) and ``QuadratureRule.integrate`` (``PolarGrid`` has
``.integrate``) stayed unseen while only the tests called them.
"""

import ast
import importlib
import pkgutil
from collections import Counter
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


def _tally(node) -> Counter:
    """References under ``node``, keyed ("name", id), ("attr", attr) or
    ("str", value)."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out["name", n.id] += 1
        elif isinstance(n, ast.Attribute):
            out["attr", n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out["str", n.value] += 1
    return out


REFERENCES = sum((_tally(tree) for tree in TREES.values()), Counter())


def _collect():
    """The "<module>.<name>" of each name in an ``__all__``; the ast node
    of each top-level def and class by "<module>.<name>"; and the node
    of each public method of a class in ``__all__`` by
    "<module>.<class>.<method>"."""
    public, defs, methods = [], {}, {}
    for info in pkgutil.iter_modules(diskvort.__path__):
        module = importlib.import_module(f"diskvort.{info.name}")
        names = getattr(module, "__all__", ())
        public += [f"{info.name}.{n}" for n in names]
        for node in TREES[Path(module.__file__).resolve()].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{info.name}.{node.name}"] = node
            if isinstance(node, ast.ClassDef) and node.name in names:
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        methods[f"{info.name}.{node.name}.{item.name}"] = item
    return public, defs, methods


PUBLIC, DEFS, METHODS = _collect()


def _outside(keys, own_def) -> int:
    """References to any of ``keys`` outside ``own_def`` (None: none skipped)."""
    inside = Counter() if own_def is None else _tally(own_def)
    return sum(REFERENCES[k] - inside[k] for k in keys)


@pytest.mark.parametrize("target", PUBLIC)
def test_public_name_has_a_user(target):
    name = target.split(".")[1]
    count = _outside([("name", name), ("attr", name), ("str", target)], DEFS.get(target))
    assert count > 0, f"{target} is in __all__ but nothing in {', '.join(SEARCHED)} uses it"


@pytest.mark.parametrize("target", list(METHODS))
def test_public_method_has_a_user(target):
    count = _outside([("attr", target.split(".")[2])], METHODS[target])
    assert count > 0, f"{target} is public but nothing in {', '.join(SEARCHED)} uses it"

"""Every top-level function and class of the package has a caller.

A def or class in ``src/dotprune/`` counts as used when its name appears
in ``src/``, ``scripts/`` or ``perfbench/`` outside its own body: as a
name, an attribute, or a string (``perfbench/tracer.py`` wraps functions
by name). Tests do not count; a def only they reach moves to
``tests/helpers.py`` or goes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dotprune"
CALLER_DIRS = ("src", "scripts", "perfbench")


def _references(tree: ast.AST):
    """(name, line) of every name, attribute and identifier string in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value, node.lineno


def test_every_top_level_def_in_the_package_is_referenced_outside_its_body():
    defs = []  # (name, path, first line, last line)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                defs.append((node.name, path, first, node.end_lineno))
    assert len(defs) > 100  # the walk found the package

    used: dict[str, list[tuple[Path, int]]] = {}
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for name, line in _references(ast.parse(path.read_text(encoding="utf-8"))):
                used.setdefault(name, []).append((path, line))

    unreferenced = [f"{path.name}:{first} {name}" for name, path, first, last in defs
                    if not any(p != path or not first <= line <= last
                               for p, line in used.get(name, ()))]
    assert not unreferenced, unreferenced

"""Every top-level function and class of the package has a caller, and
so does every field a config file can set.

A def or class in ``src/dotprune/`` counts as used when its name appears
in ``src/``, ``scripts/`` or ``perfbench/`` outside its own body: as a
name, an attribute, or a string (``perfbench/tracer.py`` wraps functions
by name). Tests do not count; a def only they reach moves to
``tests/helpers.py`` or goes. A config-file field's caller is the user's
config, so it counts as used when README.md documents it.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from dotprune import synth
from dotprune import training as tr

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


# the dataclasses a config file's sections build: task, train, data, eval
# and the generator spec of data and eval
CONFIG_FILE_CLASSES = (tr.DoTConfig, tr.TrainConfig, synth.GeneratorSpec, synth.DataConfig,
                       synth.EvalConfig)


def _undocumented_fields(cls, readme: str) -> list[str]:
    """The fields of ``cls`` that ``readme`` names neither as `name` nor "name"."""
    return [f.name for f in dataclasses.fields(cls)
            if f"`{f.name}`" not in readme and f'"{f.name}"' not in readme]


@pytest.mark.parametrize("cls", CONFIG_FILE_CLASSES, ids=lambda cls: cls.__name__)
def test_every_config_file_field_is_documented_in_the_readme(cls):
    undocumented = _undocumented_fields(cls, (ROOT / "README.md").read_text(encoding="utf-8"))
    assert not undocumented, undocumented


def test_the_readme_audit_counts_only_a_quoted_field_name():
    @dataclasses.dataclass
    class Knobs:
        ticked: int = 0
        json_key: int = 0
        bare_word: int = 0

    readme = 'set `ticked` or "json_key"; bare_word alone is prose'
    assert _undocumented_fields(Knobs, readme) == ["bare_word"]

"""The dependency rule: the package needs numpy and the standard library only.

And the surface rule: every name a module exports has a caller in the
package, and so does every top-level function and class, and every public
method or property of a class.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "mfqcka").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
ALLOWED_SRC = frozenset(sys.stdlib_module_names) | {"numpy", "mfqcka"}
# The tests may also use their runner, hypothesis, each other (the oracles),
# and the benchmark's workload definitions (perfbench/workloads.py, standard
# library only), whose jobs the CLI corpus runs.
ALLOWED_TESTS = ALLOWED_SRC | {"pytest", "hypothesis", "workloads"} | {path.stem for path in TESTS}


def top_level_imports(source: str):
    """(line, top-level module) of every absolute import; relative imports are the package's own."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_every_import_form_is_found():
    source = "import mpmath.libmp as m\nfrom . import model\ndef f():\n    from scipy import special\n"
    assert sorted(top_level_imports(source)) == [(1, "mpmath"), (4, "scipy")]


@pytest.mark.parametrize("paths,allowed", [(SRC, ALLOWED_SRC), (TESTS, ALLOWED_TESTS)], ids=["src", "tests"])
def test_imports_follow_the_dependency_rule(paths, allowed):
    assert paths
    foreign = [
        f"{path.relative_to(ROOT)}:{line} imports {name}"
        for path in paths
        for line, name in top_level_imports(path.read_text())
        if name not in allowed
    ]
    assert foreign == []


def exported_names(source: str) -> list[str]:
    """The names in a module's top-level ``__all__`` list, if it has one."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def referenced_names(source: str) -> set[str]:
    """Every name the code loads or reads as an attribute; definitions and strings are not references."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_reference_forms_are_found():
    source = '__all__ = ["f", "g"]\ndef f():\n    return g\nclass C:\n    h = m.k\nm.j = 1\n'
    assert exported_names(source) == ["f", "g"]
    assert referenced_names(source) == {"g", "m", "k"}


@pytest.mark.parametrize("path", SRC, ids=[path.stem for path in SRC])
def test_every_export_has_a_caller_in_the_package(path):
    """A name that only the tests call is not part of the package: a test calls the function the package runs.

    The package's ``__init__`` re-exports are not callers.
    """
    module = importlib.import_module(f"mfqcka.{path.stem}")
    callers = set().union(*(referenced_names(p.read_text()) for p in SRC if p.name != "__init__.py"))
    names = exported_names(path.read_text())
    assert [name for name in names if not hasattr(module, name)] == []
    assert [name for name in names if name not in callers] == []


# Names the package keeps without a reference in it, each with its reason.
UNREFERENCED = {
    # perfbench/child.py reads its cache_info() in every traced process,
    # and the photon-number oracles build their terms from it
    "photonstats._port_weight_sequence",
}


def defined_names(source: str) -> list[str]:
    """Every top-level function and class, and every public method or property as ``Class.name``."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            ]
    return names


def test_definition_forms_are_found():
    source = "def f():\n    def g(): pass\nclass C:\n    def m(self): pass\n    def _p(self): pass\n    x = 1\n"
    assert defined_names(source) == ["f", "C", "C.m"]


@pytest.mark.parametrize("path", SRC, ids=[path.stem for path in SRC])
def test_every_definition_has_a_reference_in_the_package(path):
    """Code that nothing in the package reaches is not part of it; ``UNREFERENCED`` names the exceptions."""
    callers = set().union(*(referenced_names(p.read_text()) for p in SRC if p.name != "__init__.py"))
    unreferenced = [
        name for name in defined_names(path.read_text())
        if name.rpartition(".")[2] not in callers and f"{path.stem}.{name}" not in UNREFERENCED
    ]
    assert unreferenced == []

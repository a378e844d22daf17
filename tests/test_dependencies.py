"""The dependency rule: the package needs numpy and the standard library only."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "mfqcka").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
ALLOWED_SRC = frozenset(sys.stdlib_module_names) | {"numpy", "mfqcka"}
# The tests may also use their runner, hypothesis, and each other (the oracles).
ALLOWED_TESTS = ALLOWED_SRC | {"pytest", "hypothesis"} | {path.stem for path in TESTS}


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

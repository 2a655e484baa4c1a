"""Every test the documentation and CI cite exists.

A citation is either a path form, ``tests/<file>.py::Name[::name]`` (the
``tests/`` prefix optional, ``bench/tests/`` allowed), or a backticked
``TestX::test_y`` naming a class and one of its methods in any test file.
A parametrization suffix (``[...]``) is ignored.  Resolution reads the
files' syntax trees; nothing is imported or collected.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CITING = (
    "DESIGN.md", "README.md", "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml",
)
TEST_DIRS = (ROOT / "tests", ROOT / "bench" / "tests")

PATH_FORM = re.compile(r"((?:[\w.-]+/)*)((?:test_\w+|conftest)\.py)((?:::\w+)+)")
NAME_FORM = re.compile(r"`(Test\w+)::(test_\w+)[^`]*`")


def _definitions(path: Path) -> dict:
    """``{name: {method names}}`` of a file's top-level classes and
    functions (a function maps to an empty set)."""
    tree = ast.parse(path.read_text())
    defs = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            defs[node.name] = {
                n.name for n in node.body
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs[node.name] = set()
    return defs


DEFINITIONS = {
    path: _definitions(path) for d in TEST_DIRS for path in sorted(d.glob("*.py"))
}


def _resolves(path: Path, names: list) -> bool:
    defs = DEFINITIONS.get(path)
    if defs is None or names[0] not in defs:
        return False
    return len(names) == 1 or (len(names) == 2 and names[1] in defs[names[0]])


def citations() -> list:
    """``(where, text, resolved)`` for every citation in :data:`CITING`."""
    out = []
    for doc in CITING:
        for lineno, line in enumerate((ROOT / doc).read_text().splitlines(), 1):
            where = f"{doc}:{lineno}"
            for m in PATH_FORM.finditer(line):
                prefix, filename, names = m.group(1), m.group(2), m.group(3)[2:].split("::")
                roots = [ROOT / prefix] if prefix.startswith(("tests/", "bench/")) else [
                    d for d in TEST_DIRS
                ]
                ok = any(_resolves(d / filename, names) for d in roots)
                out.append((where, m.group(0), ok))
            for m in NAME_FORM.finditer(line):
                cls, method = m.groups()
                ok = any(_resolves(path, [cls, method]) for path in DEFINITIONS)
                out.append((where, m.group(0), ok))
    return out


def test_the_citing_documents_cite_tests():
    """The parser still finds citations in the forms the documents use."""
    found = citations()
    assert len(found) > 40
    assert any("::" in text and "tests/" in text for _, text, _ in found)
    assert any(text.startswith("`Test") for _, text, _ in found)


@pytest.mark.parametrize("doc", CITING)
def test_every_cited_test_exists(doc):
    dangling = [
        f"{where}: {text}" for where, text, ok in citations()
        if not ok and where.startswith(doc + ":")
    ]
    assert not dangling, "cited tests that do not exist:\n" + "\n".join(dangling)

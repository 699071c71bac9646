"""veq has no runtime dependencies: every module under src/veq imports only
the standard library and veq itself, and pyproject.toml declares none."""

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "veq").glob("*.py"))


def _top_level_imports(path: Path) -> set[str]:
    """The top-level module of every absolute import anywhere in the file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_package_imports_only_the_standard_library(path):
    outside = _top_level_imports(path) - set(sys.stdlib_module_names) - {"veq"}
    assert not outside, f"{os.path.relpath(path, ROOT)} imports {sorted(outside)}"


def test_pyproject_declares_no_dependencies():
    assert len(SOURCES) > 10
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    assert "dependencies = []" in [line.strip() for line in lines]

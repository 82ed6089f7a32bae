"""Every module of the package, the scripts and the tests uses each name it imports.

A standard-library stand-in for a linter's unused-import rule (F401): the
package's __init__.py only re-exports and is skipped, __future__ imports bind
no name, and an import statement marked `# noqa: F401` is kept on purpose.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coherence_bounds"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
MODULES += sorted(ROOT.glob("scripts/*.py")) + sorted(ROOT.glob("tests/*.py"))


def unused_imports(source: str) -> list[str]:
    """'line <n>: <name>' for every name an import statement binds and the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {lineno}: {name}" for name, lineno in imported.items() if name not in used]


def test_the_check_flags_an_unused_name_and_honours_noqa():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from .entropy import (  # noqa: F401\n"
        "    kept,\n"
        ")\n"
        "from .entropy import shannon_entropy, xlog2x as f\n"
        "print(os.sep, f(1.0))\n"
    )
    assert unused_imports(source) == ["line 2: math", "line 7: shannon_entropy"]


def test_the_package_has_modules_to_check():
    names = {path.name for path in MODULES}
    assert names >= {"bounds.py", "correlations.py", "cli.py", "make_figures.py", "test_imports.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []

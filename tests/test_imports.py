"""No module of the package, the scripts or the tests imports a name at top
level that it never uses.

An unused import reads as a dependency the module does not have; in a test
it reads as a check against an oracle the test never calls.  The scan needs
only the standard library's `ast`: a top-level `import` or `from ... import`
binds a name, and the name must appear somewhere in the module as a bare
name or as the root of an attribute chain.  `__init__.py` is exempt, since
its imports are the package's re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for folder in ("src/difftrace", "scripts", "tests")
                 for path in (ROOT / folder).glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that top-level imports of the source bind and it never uses."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0]
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_scan_finds_an_unused_import():
    source = "import os\nfrom math import gcd, lcm\nprint(os.sep, gcd(4, 6))\n"
    assert unused_imports(source) == ["lcm"]


def test_modules_are_listed():
    names = {path.relative_to(ROOT).as_posix() for path in MODULES}
    assert {"src/difftrace/groebner.py", "scripts/survey_corpus.py",
            "tests/test_imports.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []

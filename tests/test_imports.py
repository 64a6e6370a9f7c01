"""Import hygiene: every module-level import in src/pfguide is referenced,
unless its statement carries `# noqa: F401` (a binding kept for callers)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pfguide"


def unused_imports(source: str) -> list:
    tree, lines = ast.parse(source), source.splitlines()
    notes = [a for n in ast.walk(tree) for a in (getattr(n, "annotation", 0),
                                                 getattr(n, "returns", 0))
             if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    used = {n.id for t in [tree] + [ast.parse(a.value) for a in notes]
            for n in ast.walk(t) if isinstance(n, ast.Name)}
    top = [s for b in tree.body for s in (b.body if isinstance(b, ast.If)
                                          else [b])]
    return [f"line {s.lineno}: {name}" for s in top
            if isinstance(s, (ast.Import, ast.ImportFrom))
            and getattr(s, "module", None) != "__future__"
            and "# noqa: F401" not in "".join(lines[s.lineno - 1:s.end_lineno])
            for name in [a.asname or a.name.split(".")[0] for a in s.names]
            if name not in used]


@pytest.mark.parametrize("module", sorted(
    p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_module_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_detects_an_unused_import():
    src = "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\npi\n"
    assert unused_imports(src) == ["line 1: os", "line 3: tau"]

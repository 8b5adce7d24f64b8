"""Source hygiene: every imported name is used.  No linter is a
dependency, so the check walks the syntax tree itself."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    p for d in ("src/tiltlab", "tests") for p in (ROOT / d).glob("*.py") if p.name != "__init__.py"
)


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by import statements and never referenced as a name
    or as the base of an attribute access."""
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_detector_flags_an_unused_import():
    tree = ast.parse("import os\nfrom a.b import c as d, e\nimport x.y\nx.y.z(e)\n")
    assert unused_imports(tree) == ["line 1: os", "line 2: d"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []

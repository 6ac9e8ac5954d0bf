"""Every name a module imports is read somewhere in that module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src/tempolink", "tests", "scripts")


def unread_imports(source):
    """(line, name) for each name an import binds that no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name)
                      for a in node.names if a.name != "*"]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [(line, name) for line, name in bound if name not in read]


def test_unread_imports_finds_what_no_expression_reads():
    source = ("import os\nimport numpy as np\nimport a.b\n"
              "from x import y, z as w\nfrom __future__ import annotations\n"
              "print(np.zeros(1), a.b.c, y)\nw = 1\n")
    assert unread_imports(source) == [(1, "os"), (4, "w")]


def test_no_module_imports_a_name_it_never_reads():
    unread = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for d in SCANNED for path in sorted((ROOT / d).rglob("*.py"))
              for line, name in unread_imports(path.read_text(encoding="utf-8"))]
    assert unread == []

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


def unread_package_names(sources):
    """(module, name) for each top-level function, class or constant of a
    package module that no module of the package reads; dunders exempt.

    `sources` maps each module's name to its text. A name is read where
    its module loads it, where a module imports it (`from .m import x`,
    which the test above requires to be read there), and where a module
    reads it off an imported module (`from . import m`, then `m.x`).
    """
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    read = set()
    for mod, tree in trees.items():
        aliases = {}  # local name -> package module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    read |= {(node.module, a.name) for a in node.names}
                else:
                    aliases |= {a.asname or a.name: a.name for a in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((mod, node.id))
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name) and node.value.id in aliases):
                read.add((aliases[node.value.id], node.attr))
    unread = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            unread += [(mod, name) for name in names
                       if not (name.startswith("__") and name.endswith("__"))
                       and (mod, name) not in read]
    return unread


def test_unread_package_names_finds_what_no_module_reads():
    sources = {
        "a": "from . import b\nX = 1\nY, Z = 2, 3\n__all__ = []\n"
             "def f():\n    return b.g() + Y\nclass C:\n    pass\n",
        "b": "from .a import C\ndef g():\n    return C\ndef h():\n    pass\n",
    }
    assert unread_package_names(sources) == [("a", "X"), ("a", "Z"), ("a", "f"),
                                             ("b", "h")]


def test_every_package_name_is_read_by_the_package():
    package = ROOT / "src" / "tempolink"
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    assert unread_package_names(sources) == []

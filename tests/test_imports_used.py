"""Every name a module under ``src/`` imports is read by that module.

An import nobody reads still costs its load at start-up and misleads a
reader about what the module depends on.  Package ``__init__.py`` files
re-export names, so they are exempt, as is any name listed in a
module's ``__all__``.  A name counts as read when it appears as a
``Name`` node anywhere in the module, annotations included.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            )
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            read.update(elt.value for elt in node.value.elts)
    return sorted(
        (line, name) for name, line in imported.items() if name not in read
    )


def test_src_modules_read_every_name_they_import():
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, name in _unused_imports(tree):
            unused.append(f"{path.relative_to(SRC)}:{line}: {name}")
    assert not unused, "imported but never read:\n" + "\n".join(unused)


def test_scan_flags_an_unread_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import Dict, List\n"
        "__all__ = ['Dict']\n"
        "def f(x: List[int]) -> None: ...\n"
    )
    assert _unused_imports(tree) == [(2, "os")]

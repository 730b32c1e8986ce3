"""No module of the package, the tests or the demos imports a name it never
uses.

No linter ships with the project, so this is pyflakes' F401 check, narrowed
to what the project needs: every name an import statement in
``src/gf2synth/*.py`` (``__init__.py``, which re-exports, aside),
``tests/*.py`` or ``demos/*.py`` binds must appear as a name somewhere else
in the module. A ``# noqa: F401`` comment exempts the names on its own line
only, so a name that is kept for an outside caller does not shield its
neighbours in the same statement.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gf2synth"
MODULES = [
    *sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    *sorted((ROOT / "tests").glob("*.py")),
    *sorted((ROOT / "demos").glob("*.py")),
]


def _module_id(path: Path) -> str:
    """A package module by its file name, a test or demo by its path."""
    return path.name if path.parent == SRC else path.relative_to(ROOT).as_posix()


def unused_imports(source: str) -> list[str]:
    """``name (line n)`` for each imported name that nothing references."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or "noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    imported.pop("annotations", None)  # from __future__ import annotations
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names inside string annotations such as -> "FieldSpec"
    annotations = [
        getattr(node, field)
        for node in ast.walk(tree)
        for field in ("annotation", "returns")
        if getattr(node, field, None) is not None
    ]
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=_module_id)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_a_leftover():
    source = (
        "from typing import Callable, Sequence\n"
        "from .circuits import (\n"
        "    PACK_SLICE,\n"
        "    parse,  # noqa: F401\n"
        ")\n"
        "import os.path\n"
        "import json  # noqa: F401\n"
        "def f(x: Callable) -> 'os.PathLike':\n"
        "    'Sequence'\n"
        "    return x\n"
    )
    assert unused_imports(source) == ["Sequence (line 1)", "PACK_SLICE (line 3)"]

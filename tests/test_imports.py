"""Every ``sciscraper_ray`` import in the repo resolves.

Most registry queries import their kernels inside the query function, and
the tier-1 tests run only a few queries, so a dangling import (a module or
name that was deleted or moved) would otherwise fail only when its query
runs. This walks the source with ``ast``, function-local imports included,
and checks that each ``from sciscraper_ray.X import name`` names a module
or an attribute, and that each ``import sciscraper_ray.X`` names a module.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ("sciscraper_ray", "tests", "tools", "__ray_entry__.py", "bench.py")


def _python_files():
    for name in SOURCES:
        path = ROOT / name
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def _package_imports():
    """(file:line, module, name or None) for every sciscraper_ray import."""
    for path in _python_files():
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            where = f"{path.relative_to(ROOT)}:{node.lineno}"
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "sciscraper_ray":
                        yield where, alias.name, None
            elif node.level == 0 and node.module.split(".")[0] == "sciscraper_ray":
                for alias in node.names:
                    yield where, node.module, alias.name


def _resolves(module: str, name: str | None) -> bool:
    try:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_every_package_import_resolves():
    imports = list(_package_imports())
    # The registry alone holds hundreds of function-local imports; a walk
    # that finds far fewer has stopped seeing them.
    assert len(imports) > 500, len(imports)
    dangling = [
        f"{where}: {module}" + (f" import {name}" if name else "")
        for where, module, name in imports
        if not _resolves(module, name)
    ]
    assert not dangling, "\n".join(dangling)

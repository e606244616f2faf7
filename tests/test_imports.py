"""No module of the package imports another module's private names."""

import ast
from pathlib import Path

import matspec

PACKAGE = Path(matspec.__file__).parent


def private_imports(source: str) -> list[str]:
    """Names starting with "_" imported from a package module.  A public
    name bound to a private alias (``stream as _rng``) and a dunder such as
    ``__version__`` are fine."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        inside = node.level > 0 or (node.module or "").split(".")[0] == "matspec"
        if inside:
            found += [a.name for a in node.names
                      if a.name.startswith("_") and not a.name.endswith("__")]
    return found


def test_checker_flags_private_and_allows_alias():
    assert private_imports("from .spectrum import _tilted_step") == ["_tilted_step"]
    assert private_imports("from matspec.rng import _x, y") == ["_x"]
    assert private_imports("from .rng import stream as _rng") == []
    assert private_imports("from . import __version__") == []


def test_no_cross_module_private_imports():
    offenders = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := private_imports(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}

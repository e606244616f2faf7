"""No module of the package imports another module's private names, and
only KSolver builds transfer operators and runs power iteration."""

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


# the one place each may appear: the operator family and the eigen-solves of
# an (ensemble, grid) pair belong to its KSolver
SOLVER_ONLY = {"TransferOperator": "KSolver.op", "power_iterate": "KSolver.point"}


def solver_bypasses(source: str) -> list[str]:
    """Calls of a SOLVER_ONLY name outside its place, as "scope: name"."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                where = ".".join(scope) or "<module>"
                if name in SOLVER_ONLY and where != SOLVER_ONLY[name]:
                    found.append(f"{where}: {name}")
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_checker_flags_solver_bypass():
    source = """
class KSolver:
    @property
    def op(self):
        return TransferOperator(self.ensemble, self.grid)

    def point(self, s):
        return power_iterate(self.op, s, self.tol, self.max_iter)

def rebuild(e, grid, s):
    return transfer.power_iterate(TransferOperator(e, grid), s, 1e-10, 100)
"""
    assert solver_bypasses(source) == ["rebuild: power_iterate",
                                       "rebuild: TransferOperator"]


def test_only_ksolver_builds_operators_and_solves():
    offenders = {
        path.name: sites
        for path in sorted(PACKAGE.glob("*.py"))
        if (sites := solver_bypasses(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}

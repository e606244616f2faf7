"""No module of the package imports another module's private names, only
KSolver builds transfer operators and runs eigen-solves, a KSolver is
built only for a CLI run, as a transposed solver or by solve_alpha for an
ensemble it is given in place of a solver, only KSolver.star transposes an
ensemble, only TiltedChain.step runs the tilted kernel, and passes it
the chain itself as the kernel's state, only the CLI's
runner opens and finishes manifests, no walk applies a gathered atom
stack with einsum, atoms are drawn only from an ensemble's weights or a
point's pi, only rng.py builds random generators, every public routine has
a caller inside the package, the CLI imports no scipy, a CLI run executes
only the modules its command runs and never numpy.ma, and the package and
pyproject.toml state one version."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import matspec
from matspec.ensemble import save_ensemble
from matspec.ensembles import ip_2d, ip_affine_2d, kesten_1d

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


# the places each may appear: the operator family and the eigen-solves of
# an (ensemble, grid) pair belong to its KSolver, and a solver is built once
# per run (cli._solver), for the transposed ensemble (KSolver.star), or by
# solve_alpha when it is given an ensemble and a grid in place of a solver
SOLVER_ONLY = {"TransferOperator": "KSolver.op", "power_iterate": "KSolver.point",
               "KSolver": ("_solver", "KSolver.star", "solve_alpha")}


# the one transposed solver: a walk or check on the transposed ensemble
# reads it from KSolver.star, so a run builds that ensemble once
TRANSPOSE_ONLY = {"transpose": "KSolver.star"}


# the one tilted chain: every tilted walk, at one exponent or a stack of
# them, steps through TiltedChain, whose step alone calls the kernel, with
# the chain itself (self) as the kernel's state
CHAIN_ONLY = {"tilted_probs": "TiltedChain.step"}
KERNEL_STATE = "self"


# the one run lifecycle: the CLI's runner opens a run's manifest and writes
# it out, whatever happens in the command
RUNNER_ONLY = {"Manifest": "_run", "finish": "_run"}


def misplaced_calls(source: str, places: dict[str, str | tuple[str, ...]]) -> list[str]:
    """Calls of a name of places outside its place, or outside each of its
    tuple of places, as "scope: name"."""
    places = {name: (p,) if isinstance(p, str) else p for name, p in places.items()}
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
                if name in places and where not in places[name]:
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
        return power_iterate(self.op, s)

    @property
    def star(self):
        return KSolver(transpose(self.ensemble), self.grid)

def rebuild(e, grid, s):
    return transfer.power_iterate(TransferOperator(e, grid), s)

def _solver(cfg, lin):
    return KSolver(lin, build_grid(lin.dimension, cfg.grid_resolution))

def solve_alpha(ks, grid=None):
    if isinstance(ks, LinearEnsemble):
        ks = KSolver(ks, grid)

def lyapunov(e, s, method, solver=None):
    ks = solver or spectrum.KSolver(e)
"""
    assert misplaced_calls(source, SOLVER_ONLY) == ["rebuild: power_iterate",
                                                    "rebuild: TransferOperator",
                                                    "lyapunov: KSolver"]


def test_only_ksolver_builds_operators_and_solves():
    offenders = {
        path.name: sites
        for path in sorted(PACKAGE.glob("*.py"))
        if (sites := misplaced_calls(path.read_text(encoding="utf-8"), SOLVER_ONLY))
    }
    assert offenders == {}


def test_only_ksolver_star_transposes():
    source = """
class KSolver:
    @property
    def star(self):
        return KSolver(transpose(self.ensemble), self.grid)

def _dualwalk(cfg, ensemble, ks, man):
    cone_star, ev_star = classify_cone_case(transpose(ks.ensemble), seed=cfg.seed)

def dual_walk_simulate(ae, ks, alpha):
    lin_star = ensemble.transpose(ae.linear_part)
"""
    assert misplaced_calls(source, TRANSPOSE_ONLY) == ["_dualwalk: transpose",
                                                       "dual_walk_simulate: transpose"]
    offenders = {
        path.name: sites
        for path in sorted(PACKAGE.glob("*.py"))
        if (sites := misplaced_calls(path.read_text(encoding="utf-8"), TRANSPOSE_ONLY))
    }
    assert offenders == {}


def test_only_tilted_chain_step_runs_the_kernel():
    source = """
class TiltedChain:
    def step(self, u, rows=slice(None)):
        probs = tilted_probs(self.ensemble, self._rows[rows], x, e_x)[0]

    def peek(self):
        return transfer.tilted_probs(self.ensemble, sp, self.x, self.e_x)

def lyapunov_loop(e, sp, xs, e_xs):
    return tilted_probs(e, sp, xs, e_xs)
"""
    assert misplaced_calls(source, CHAIN_ONLY) == ["TiltedChain.peek: tilted_probs",
                                                   "lyapunov_loop: tilted_probs"]
    offenders = {
        path.name: sites
        for path in sorted(PACKAGE.glob("*.py"))
        if (sites := misplaced_calls(path.read_text(encoding="utf-8"), CHAIN_ONLY))
    }
    assert offenders == {}


def foreign_kernel_states(source: str) -> list[int]:
    """Lines of tilted_probs calls whose chain, the second argument, is not
    the name KERNEL_STATE."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None)) == "tilted_probs"):
            continue
        given = node.args[1:2] + [k.value for k in node.keywords if k.arg == "chain"]
        if not (given and isinstance(given[0], ast.Name) and given[0].id == KERNEL_STATE):
            found.append(node.lineno)
    return found


def test_checker_flags_foreign_kernel_states():
    source = """
class TiltedChain:
    def step(self, u):
        probs = tilted_probs(self.ensemble, self, self.x, self.e_x)[0]
        rows = tilted_probs(self.ensemble, self._rows[live], x, e_x)
        point = transfer.tilted_probs(self.ensemble, ks.point(s), self.x, self.e_x)
        named = tilted_probs(self.ensemble, chain=self, xs=self.x, e_xs=self.e_x)
        other = tilted_probs(self.ensemble, chain=stack, xs=self.x, e_xs=self.e_x)
        bare = tilted_probs(self.ensemble)
"""
    assert foreign_kernel_states(source) == [5, 6, 8, 9]


def test_the_kernel_reads_its_state_from_the_chain():
    offenders = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if (lines := foreign_kernel_states(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def test_only_run_opens_and_finishes_manifests():
    source = """
def _run(args):
    man = Manifest(args.command, cfg)
    man.finish("ok")

def _tails(cfg, ensemble, ks, man):
    man.finish("failed")
"""
    assert misplaced_calls(source, RUNNER_ONLY) == ["_tails: finish"]
    offenders = {
        path.name: sites
        for path in sorted(PACKAGE.glob("*.py"))
        if (sites := misplaced_calls(path.read_text(encoding="utf-8"), RUNNER_ONLY))
    }
    assert offenders == {}


# the one way to apply drawn atoms: ensemble.apply_atoms, rows last and in
# one add order; an (n, d, d) stack of drawn atoms for einsum is the other way
GATHERED_SUBSCRIPTS = "nij,nj->ni"


def gathered_atom_einsums(source: str) -> list[int]:
    """Lines of einsum calls whose subscripts, spaces dropped, are
    GATHERED_SUBSCRIPTS."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "einsum"
            and node.args and isinstance(node.args[0], ast.Constant)
            and str(node.args[0].value).replace(" ", "") == GATHERED_SUBSCRIPTS]


def test_checker_flags_gathered_atom_einsums():
    source = """
y = np.einsum("nij,nj->ni", e.matrices[idx], x)
images = np.einsum("mij,kj->mki", e.matrices, dirs)
z = einsum("nij, nj -> ni", g, x)
w = apply_atoms(e.matrices, idx, x.T)
"""
    assert gathered_atom_einsums(source) == [2, 4]


def test_no_walk_applies_gathered_atoms_with_einsum():
    offenders = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if (lines := gathered_atom_einsums(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


# the one untilted atom law and the one start law: draw_atoms takes an
# ensemble's weights or a point's stationary pi^s; any other weights would be
# a second tilted sampler beside TiltedChain
DRAW_WEIGHTS = {"weights", "pi"}


def foreign_draws(source: str) -> list[int]:
    """Lines of draw_atoms calls whose weights argument is not an attribute
    named in DRAW_WEIGHTS."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None)) == "draw_atoms"):
            continue
        given = node.args[1:2] + [k.value for k in node.keywords if k.arg == "weights"]
        if not (given and isinstance(given[0], ast.Attribute)
                and given[0].attr in DRAW_WEIGHTS):
            found.append(node.lineno)
    return found


def test_checker_flags_foreign_draws():
    source = """
idx = draw_atoms(rng, e.weights, size)
start = draw_atoms(rng, sp.pi, n)
q = e.weights * a**s / k
draws = draw_atoms(rng, q, (n, m))
more = rng_module.draw_atoms(rng, weights=tilted.probs, size=3)
last = draw_atoms(rng, weights=ae.weights, size=3)
"""
    assert foreign_draws(source) == [5, 6]


def test_atoms_are_drawn_only_from_ensemble_weights_or_pi():
    offenders = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if (lines := foreign_draws(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


# the one source of generators: every stochastic routine takes its stream
# from rng.stream(seed, *path), so consumers never share or re-seed one
GENERATOR_MODULE = "rng.py"


def generator_calls(source: str) -> list[int]:
    """Lines of default_rng calls, by name or attribute."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "default_rng"]


def test_checker_flags_generator_calls():
    source = """
rng = np.random.default_rng(seed)
other = default_rng([seed, 3])
mine = _rng(seed, 404)
gen = np.random.Generator(np.random.PCG64(seed))
"""
    assert generator_calls(source) == [2, 3]


def test_only_rng_module_builds_generators():
    offenders = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != GENERATOR_MODULE
        and (lines := generator_calls(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


# reached only from tests and documentation, and kept: the documented writer
# of ensemble files; the ensembles module is the library of test fixtures
TEST_ONLY_KEPT = {"save_ensemble"}
FIXTURE_MODULES = {"ensembles"}


def unreferenced(sources: dict[str, str]) -> list[str]:
    """Public top-level functions and classes that no code in sources
    references outside their own body, by name, attribute or imported name,
    and public methods of public classes that nothing references as an
    attribute outside their own body; as "module.name"."""
    defs, refs = [], []

    def visit(node, owners, label):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                method = (len(owners) == 1 and isinstance(owners[0], ast.ClassDef)
                          and not owners[0].name.startswith("_"))
                if (not owners or method) and not child.name.startswith("_"):
                    defs.append((f"{label}.{child.name}", child, method))
                visit(child, owners + [child], f"{label}.{child.name}")
                continue
            if isinstance(child, ast.Name):
                refs.append((child.id, owners, False))
            elif isinstance(child, ast.Attribute):
                refs.append((child.attr, owners, True))
            elif isinstance(child, ast.alias):
                refs.append((child.name, owners, False))
            visit(child, owners, label)

    for module, source in sources.items():
        visit(ast.parse(source), [], module)
    return [label for label, node, method in defs
            if not any(name == node.name and node not in owners
                       and (attribute or not method)
                       for name, owners, attribute in refs)]


def test_checker_flags_unreferenced_routines():
    sources = {"a": """
def used(x):
    total = helper(x)
    return total

def helper(x):
    return x

def lonely(n):
    return lonely(n - 1) if n else 0

class Box:
    def get(self):
        return self.value

    def unused(self):
        return None

    def total(self):
        return self.value
""", "b": "from .a import used as run\nBox().get()\n"}
    assert unreferenced(sources) == ["a.lonely", "a.Box.unused", "a.Box.total"]


def test_every_public_routine_has_a_caller_in_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    found = [label for label in unreferenced(sources)
             if label.split(".")[0] not in FIXTURE_MODULES
             and label.split(".")[-1] not in TEST_ONLY_KEPT]
    assert found == []


def test_cli_imports_no_scipy():
    # a fresh interpreter: this one has scipy loaded by other tests
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    code = "import sys, matspec.cli; print(sorted(k for k in sys.modules if k.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    assert out.stdout.strip() == "[]"


# what import matspec.cli executes of the package; the modules of the
# commands sit in sys.modules unexecuted until a command reaches them
CLI_MODULES = ["matspec", "matspec.cli", "matspec.ensemble", "matspec.rng"]


def fresh_modules(tmp_path, argv: list[str] = ()) -> list[str]:
    """The modules a fresh interpreter has executed after import matspec.cli
    and, given CLI arguments, a run of main on them, which must exit 0; an
    unexecuted lazy module is of a subclass of ModuleType."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    code = ("import json, sys, types, matspec.cli\n"
            "code = matspec.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
            "print(json.dumps([code, sorted(n for n, m in sys.modules.items()\n"
            "                               if type(m) is types.ModuleType)]))")
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, cwd=tmp_path, check=True)
    code, modules = json.loads(out.stdout.splitlines()[-1])
    assert code == 0
    return modules


def package_modules(modules: list[str]) -> list[str]:
    return [m for m in modules if m == "matspec" or m.startswith("matspec.")]


def test_cli_import_executes_only_the_runner(tmp_path):
    assert package_modules(fresh_modules(tmp_path)) == CLI_MODULES


SMALL_RUN = {"grid_resolution": 32, "mc": {"paths": 200, "steps": 300, "samples": 2000},
             "s_grid": {"min": 0.0, "max": 1.5, "count": 2},
             "options": {"t_grid": {"min": 10, "max": 100, "count": 2}, "directions": 1}}
# command, its ensemble and config, the modules its run must not execute;
# none executes numpy.ma, which np.quantile and np.median would import
UNLOADED = {
    "validate": ("validate", ip_2d, {"grid_resolution": 32},
                 ["matspec.projective", "matspec.transfer", "matspec.spectrum",
                  "matspec.recursion", "matspec.renewal", "numpy.ma"]),
    "spectrum": ("spectrum", kesten_1d, SMALL_RUN, ["matspec.recursion", "numpy.ma"]),
    "cramer": ("cramer", kesten_1d, SMALL_RUN, ["matspec.recursion", "numpy.ma"]),
    "tails": ("tails", ip_affine_2d, {**SMALL_RUN, "mc": {"steps": 1000, "samples": 2000}},
              ["matspec.renewal", "numpy.ma"]),
    "dualwalk": ("dualwalk", ip_affine_2d, SMALL_RUN, ["matspec.recursion", "numpy.ma"]),
}


@pytest.mark.parametrize("command,ensemble,config,unloaded", UNLOADED.values(),
                         ids=UNLOADED.keys())
def test_a_run_executes_only_what_its_command_runs(tmp_path, command, ensemble, config,
                                                unloaded):
    save_ensemble(ensemble(), tmp_path / "ens.json")
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"ensemble": "ens.json", "seed": 5, "out": "out", **config}))
    modules = fresh_modules(tmp_path, [command, "--config", "cfg.json"])
    assert [m for m in unloaded if m in modules] == []
    if command == "validate":
        assert package_modules(modules) == CLI_MODULES


def test_version_matches_pyproject():
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    declared = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
    assert declared is not None and declared.group(1) == matspec.__version__

"""What the benchmark reads of the package.

bench/tracer.py wraps routines by module and name and reads some of their
arguments by position, and bench/refcheck.py calls the library directly.
Neither is part of the package, so a routine renamed, removed or given a
reordered signature would break them only when the benchmark runs.  These
tests load both files by path, as they are, and check what they use.
"""

import importlib
import importlib.util
import inspect
import json
import runpy
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _target(module: str, name: str):
    return getattr(importlib.import_module(f"matspec.{module}"), name)


def test_every_traced_target_resolves(tracer):
    for module, name, _ in tracer.FUNCTIONS:
        assert callable(_target(module, name)), f"{module}.{name}"
    for module, cls, method in tracer.METHODS:
        assert callable(getattr(_target(module, cls), method)), f"{module}.{cls}.{method}"


# (module, routine, position, parameter) of every argument the tracer's
# count functions read by position
COUNTED = [
    ("transfer", "tilted_probs", 2, "xs"),
    ("spectrum", "lyapunov", 2, "method"),
    ("renewal", "cramer_constant", 6, "method"),
    ("recursion", "sample_stationary", 2, "n_samples"),
    ("projective", "interp_stencil", 0, "grid"),
    ("projective", "interp_stencil", 1, "xs"),
    ("cli", "write_csv", 0, "path"),
]


@pytest.mark.parametrize("module, name, pos, param", COUNTED)
def test_counted_arguments_keep_their_positions(module, name, pos, param):
    assert list(inspect.signature(_target(module, name)).parameters)[pos] == param


def test_refcheck_runs(capsys):
    runpy.run_path(str(BENCH / "refcheck.py"), run_name="__main__")
    alphas = json.loads(capsys.readouterr().out)
    assert sorted(alphas) == ["alpha_kesten_1d", "alpha_similarity_2d_512"]
    assert all(a == pytest.approx(1.0, abs=1e-9) for a in alphas.values())

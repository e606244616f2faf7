"""Outside-in layer trace of one matspec CLI invocation.

    python bench/tracer.py --spans FILE --run-id ID -- <matspec CLI arguments>

Run with ``src`` on PYTHONPATH.  The tracer imports ``matspec.cli``, replaces
the public entry points listed in ``FUNCTIONS`` and ``METHODS`` with timing
wrappers in every ``matspec`` module namespace that holds them (for example
``power_iterate`` lives in ``transfer`` and is imported by name into
``spectrum``, ``cli`` and the package), calls ``matspec.cli.main`` in-process
and exits with its return code.  Nothing inside the package changes.

Spans stay in memory while the command runs and are written once at the end
as JSON: ``{"run_id", "main_end", "spans"}``, where ``main_end`` is the
``time.perf_counter()`` reading when ``main`` returned (a system-wide
monotonic clock on Linux, so the parent can time the traced command without
the cost of writing the spans) and each span is
``[id, parent id or -1, name, start, end, counts or null]``.  Counts come only
from arguments and return values, never from timers.

``layer_metrics`` turns the spans of one pass into the per-layer metrics; it
imports nothing from matspec, so bench/run.py can use it directly.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# Per-layer metric names, their units and which way is better; the names of
# timed spans are "<module>.<callable>".
LAYER_METRICS = {
    "transfer.power_iterate.self_s": ("s", "lower"),
    "transfer.power_iterate.calls": ("count", "lower"),
    "transfer.power_iterate.iterations": ("count", "lower"),
    "transfer.TransferOperator.builds": ("count", "lower"),
    "transfer.TransferOperator.build_s": ("s", "lower"),
    "spectrum.KSolver.k.calls": ("count", "lower"),
    "spectrum.KSolver.cache_hit_frac": ("ratio", "higher"),
    "spectrum.solve_alpha.s": ("s", "lower"),
    "spectrum.compute_curve.s": ("s", "lower"),
    "spectrum.lyapunov.finite_diff.s": ("s", "lower"),
    "spectrum.lyapunov.quadrature.s": ("s", "lower"),
    "spectrum.lyapunov.tilted_mc.s": ("s", "lower"),
    "spectrum.lyapunov_gap.s": ("s", "lower"),
    "spectrum.contraction_rate.s": ("s", "lower"),
    "transfer.tilted_probs.self_s": ("s", "lower"),
    "transfer.tilted_probs.calls": ("count", "lower"),
    "transfer.tilted_probs.rows": ("count", "lower"),
    "transfer.tilted_probs.rows_per_call": ("rows/call", "higher"),
    "projective.interp_stencil.self_s": ("s", "lower"),
    "projective.interp_stencil.queries": ("count", "lower"),
    "projective.interp_stencil.dense_entries": ("count", "lower"),
    "projective.build_grid.s": ("s", "lower"),
    "recursion.sample_stationary.s": ("s", "lower"),
    "recursion.sample_stationary.samples": ("count", "higher"),
    "recursion.sample_stationary.samples_per_s": ("1/s", "higher"),
    "recursion.estimators.s": ("s", "lower"),
    "recursion.classify_tail_case.s": ("s", "lower"),
    "renewal.cramer_constant.naive.s": ("s", "lower"),
    "renewal.cramer_constant.tilted.s": ("s", "lower"),
    "renewal.cramer_constant.tilted.path_steps_per_s": ("1/s", "higher"),
    "renewal.dual_walk_simulate.s": ("s", "lower"),
    "renewal.tilted_potential_profile.s": ("s", "lower"),
    "ensemble.load_ensemble.s": ("s", "lower"),
    "ensemble.checks.s": ("s", "lower"),
    "cli.write_csv.s": ("s", "lower"),
    "cli.write_csv.bytes": ("B", "lower"),
    "cli.main.s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

# Counts that must repeat exactly between two traced passes with one seed.
EXACT_COUNTS = (
    "transfer.power_iterate.calls",
    "transfer.power_iterate.iterations",
    "transfer.TransferOperator.builds",
    "spectrum.KSolver.k.calls",
    "transfer.tilted_probs.rows",
    "projective.interp_stencil.dense_entries",
)

ESTIMATORS = ("hill_estimator", "hill_stability", "empirical_tail",
              "mellin_profile", "directional_profile", "moment_check")
CHECKS = ("check_proximality", "check_strong_irreducibility", "classify_cone_case")


def _arg(args, kwargs, pos, key, default=None):
    return args[pos] if len(args) > pos else kwargs.get(key, default)


def _rows(xs) -> int:
    shape = getattr(xs, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _stencil_counts(args, kwargs, out):
    grid = _arg(args, kwargs, 0, "grid")
    rows = _rows(_arg(args, kwargs, 1, "xs"))
    # the d >= 3 path forms a dense (queries x nodes) distance matrix
    dense = rows * grid.n_nodes if grid.dimension >= 3 else 0
    return {"queries": rows, "dense_entries": dense}


def _csv_bytes(args, kwargs, out):
    return {"bytes": Path(_arg(args, kwargs, 0, "path")).stat().st_size}


# (module, function, counts from (args, kwargs, return value) or None)
FUNCTIONS = [
    ("transfer", "power_iterate", lambda a, k, o: {"iterations": o.iterations}),
    ("transfer", "tilted_probs", lambda a, k, o: {"rows": _rows(_arg(a, k, 2, "xs"))}),
    ("projective", "interp_stencil", _stencil_counts),
    ("projective", "build_grid", None),
    ("spectrum", "solve_alpha", None),
    ("spectrum", "compute_curve", None),
    ("spectrum", "lyapunov",
     lambda a, k, o: {"method": _arg(a, k, 2, "method", "finite_diff")}),
    ("spectrum", "lyapunov_gap", None),
    ("spectrum", "contraction_rate", None),
    ("recursion", "sample_stationary",
     lambda a, k, o: {"samples": int(_arg(a, k, 2, "n_samples"))}),
    *[("recursion", name, None) for name in ESTIMATORS],
    ("recursion", "classify_tail_case", None),
    ("renewal", "cramer_constant",
     lambda a, k, o: {"method": _arg(a, k, 6, "method", "tilted")}),
    ("renewal", "dual_walk_simulate", None),
    ("renewal", "tilted_potential_profile", None),
    ("ensemble", "load_ensemble", None),
    *[("ensemble", name, None) for name in CHECKS],
    ("cli", "write_csv", _csv_bytes),
    ("cli", "main", None),
]

# (module, class, method): patched on the class, which every module shares
METHODS = [
    ("transfer", "TransferOperator", "__init__"),
    ("spectrum", "KSolver", "k"),
]


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counts=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, clock(), 0.0, None]
            spans.append(span)
            stack.append(span[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if counts is not None:
                span[5] = counts(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded matspec module namespace."""
        import importlib

        modules = [m for n, m in list(sys.modules.items())
                   if n == "matspec" or n.startswith("matspec.")]
        for mod_name, fn_name, counts in FUNCTIONS:
            original = getattr(importlib.import_module(f"matspec.{mod_name}"), fn_name)
            wrapped = self.wrap(f"{mod_name}.{fn_name}", original, counts)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"matspec.{mod_name}"), cls_name)
            setattr(cls, meth, self.wrap(f"{mod_name}.{cls_name}.{meth}",
                                         getattr(cls, meth)))


def layer_metrics(span_lists: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics of one pass: the spans of each of its commands.

    Inclusive times (``.s``) sum whole spans of a name; no such name calls
    itself.  Self times (``.self_s``) subtract the time of direct children.
    """
    incl: dict[str, float] = defaultdict(float)
    self_t: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    count: dict[str, int] = defaultdict(int)
    k_misses = 0
    tilted_cramer_rows = 0
    for spans in span_lists:
        child = [0.0] * len(spans)
        for sid, parent, _, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        missed = set()
        for sid, parent, name, start, end, cnt in spans:
            dur = end - start
            if cnt and "method" in cnt:
                name = f"{name}.{cnt['method']}"
            incl[name] += dur
            self_t[name] += dur - child[sid]
            calls[name] += 1
            for key, val in (cnt or {}).items():
                if key != "method":
                    count[f"{name}.{key}"] += val
            if name == "transfer.power_iterate":
                # a KSolver.k call whose subtree solves is a cache miss
                anc = parent
                while anc >= 0 and spans[anc][2] != "spectrum.KSolver.k":
                    anc = spans[anc][1]
                if anc >= 0:
                    missed.add(anc)
            elif name == "transfer.tilted_probs":
                anc = parent
                while anc >= 0 and spans[anc][2] != "renewal.cramer_constant":
                    anc = spans[anc][1]
                if anc >= 0 and (spans[anc][5] or {}).get("method") == "tilted":
                    tilted_cramer_rows += cnt["rows"]
        k_misses += len(missed)
    k_calls = calls["spectrum.KSolver.k"]
    tp_calls = calls["transfer.tilted_probs"]
    bank_s = incl["recursion.sample_stationary"]
    tilted_s = incl["renewal.cramer_constant.tilted"]
    m = {
        "transfer.power_iterate.self_s": self_t["transfer.power_iterate"],
        "transfer.power_iterate.calls": calls["transfer.power_iterate"],
        "transfer.power_iterate.iterations": count["transfer.power_iterate.iterations"],
        "transfer.TransferOperator.builds": calls["transfer.TransferOperator.__init__"],
        "transfer.TransferOperator.build_s": incl["transfer.TransferOperator.__init__"],
        "spectrum.KSolver.k.calls": k_calls,
        "spectrum.KSolver.cache_hit_frac": 1.0 - k_misses / k_calls if k_calls else 0.0,
        "transfer.tilted_probs.self_s": self_t["transfer.tilted_probs"],
        "transfer.tilted_probs.calls": tp_calls,
        "transfer.tilted_probs.rows": count["transfer.tilted_probs.rows"],
        "transfer.tilted_probs.rows_per_call":
            count["transfer.tilted_probs.rows"] / tp_calls if tp_calls else 0.0,
        "projective.interp_stencil.self_s": self_t["projective.interp_stencil"],
        "projective.interp_stencil.queries": count["projective.interp_stencil.queries"],
        "projective.interp_stencil.dense_entries":
            count["projective.interp_stencil.dense_entries"],
        "recursion.sample_stationary.samples": count["recursion.sample_stationary.samples"],
        "recursion.sample_stationary.samples_per_s":
            count["recursion.sample_stationary.samples"] / bank_s if bank_s else 0.0,
        "recursion.estimators.s": sum(incl[f"recursion.{n}"] for n in ESTIMATORS),
        "renewal.cramer_constant.tilted.path_steps_per_s":
            tilted_cramer_rows / tilted_s if tilted_s else 0.0,
        "ensemble.checks.s": sum(incl[f"ensemble.{n}"] for n in CHECKS),
        "cli.write_csv.bytes": count["cli.write_csv.bytes"],
    }
    for name in ("spectrum.solve_alpha", "spectrum.compute_curve",
                 "spectrum.lyapunov.finite_diff", "spectrum.lyapunov.quadrature",
                 "spectrum.lyapunov.tilted_mc", "spectrum.lyapunov_gap",
                 "spectrum.contraction_rate", "projective.build_grid",
                 "recursion.sample_stationary", "recursion.classify_tail_case",
                 "renewal.cramer_constant.naive", "renewal.cramer_constant.tilted",
                 "renewal.dual_walk_simulate", "renewal.tilted_potential_profile",
                 "ensemble.load_ensemble", "cli.write_csv", "cli.main"):
        m[f"{name}.s"] = incl[name]
    return m


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSON file the spans go to")
    parser.add_argument("--run-id", required=True, help="identifier shared by the spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="arguments for matspec.cli.main, after --")
    opts = parser.parse_args(argv)
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    import matspec.cli

    tracer = Tracer()
    tracer.install()
    code = matspec.cli.main(cli_args)
    main_end = time.perf_counter()
    with open(opts.spans, "w", encoding="utf-8") as fh:
        json.dump({"run_id": opts.run_id, "main_end": main_end,
                   "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

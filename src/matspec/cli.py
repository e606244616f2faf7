"""Command-line driver: validate ensembles and run the analysis pipelines.

Every invocation writes a manifest (config echo, ensemble hash, tool,
python and numpy versions, output list, wall-clock timings) into the
output directory, even on partial failure, and every stochastic output is
a pure function of (config bytes, seed, tool version): repeated runs with
the same seed produce byte-identical CSV bodies.  One runner, ``_run``,
owns that lifecycle for every command: inputs, manifest, outputs and exit
status.  ``RunConfig.load`` reads what the manifest needs (seed, ensemble,
out) and ``check`` every other value, each once and by one rule, into typed
fields, so any other rejected value leaves an "invalid-input" manifest.
The modules behind the commands are bound lazily, so a run executes only
those its command calls.

Exit codes: 0 success (possibly with warnings), 1 numerical
non-convergence, 2 invalid input, 3 hypothesis violation (e.g. a tails run
on a non-contracting ensemble).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .ensemble import (
    AffineEnsemble,
    EnsembleError,
    HypothesisError,
    LinearEnsemble,
    check_nonarithmetic_1d,
    check_proximality,
    check_strong_irreducibility,
    classify_cone_case,
    ensemble_hash,
    load_ensemble,
    validate_linear,
)


def _lazy(name: str):
    """The package's module name, executed at its first attribute access
    (an imported one as it is): a command executes only the modules it
    reaches.  The module object enters sys.modules now, so a tool that wraps
    the package's routines after import matspec.cli, as bench/tracer.py
    does, finds every module there."""
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[full] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


projective, transfer, spectrum, recursion, renewal = (
    _lazy(name) for name in ("projective", "transfer", "spectrum", "recursion", "renewal"))

EXIT_OK = 0
EXIT_NONCONVERGED = 1
EXIT_INVALID = 2
EXIT_HYPOTHESIS = 3


class ConfigError(ValueError):
    pass


def _span(v) -> tuple[float, float, int]:
    return float(v["min"]), float(v["max"]), int(v["count"])


def _floats(v) -> tuple[float, ...]:
    return tuple(float(b) for b in v)


# config key, in the section "mc" or "options" when dotted -> the reader of
# its JSON value; its RunConfig field is the key less "options.", "." as "_"
_READERS = {
    "threads": int, "grid_resolution": int, "s_grid": _span,
    "mc.paths": int, "mc.steps": int, "mc.samples": int,
    "options.rho_eps": float, "options.p0": float, "options.t_grid": _span,
    "options.n_windows": int, "options.annulus_width": float, "options.t_start": float,
    "options.hill_k": int, "options.directions": int, "options.moment_betas": _floats,
}
# the keys load reads, and the sections whose keys are dotted
_LOADED = ("ensemble", "seed", "out")
_SECTIONS = ("mc", "options")


@dataclass
class RunConfig:
    """Parsed run configuration; see README for the JSON schema.  None
    marks a default that depends on the command or the run."""

    ensemble_path: Path
    seed: int
    out_dir: Path
    raw: dict  # the config as given, overrides applied: the manifest's echo
    threads: int = 1
    grid_resolution: int | None = None  # transfer.DEFAULT_RESOLUTION
    s_grid: tuple[float, float, int] = (0.0, 2.0, 9)
    mc_paths: int = 100_000
    mc_steps: int = 400
    mc_samples: int = 1_000_000
    rho_eps: float = 0.25  # spectrum's contraction exponent
    p0: float = 1.0  # dualwalk's start value of p
    t_grid: tuple[float, float, int] = (10.0, 10000.0, 13)  # cramer's thresholds
    n_windows: int = 3  # renewal's annuli, each annulus_width wide
    annulus_width: float = float(np.log(2.0))
    t_start: float = 1e-4  # renewal's tilted start
    hill_k: int | None = None  # tails: max(10, mc_samples // 100)
    directions: int | None = None  # tails 8, cramer 16; 2 in d=1
    moment_betas: tuple[float, ...] | None = None  # tails: 0, alpha/2, 1.2 alpha

    @classmethod
    def load(cls, path: str | Path, overrides: dict) -> "RunConfig":
        """Read what the manifest needs: seed, ensemble and out."""
        p = Path(path)
        try:
            doc = json.loads(p.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {p}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"malformed config value: {p} holds no JSON object")
        raw = {**doc, **{k: v for k, v in overrides.items() if v is not None}}
        if "seed" not in raw:
            raise ConfigError("seed is mandatory for every stochastic command")
        if "ensemble" not in raw:
            raise ConfigError("config must name an ensemble file")
        try:
            # an absolute ensemble path stays itself
            return cls(p.parent / raw["ensemble"], int(raw["seed"]),
                       Path(raw.get("out", "matspec-out")), raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed config value: {exc!r}") from exc

    def check(self) -> list[str]:
        """Read every other value given, by load's rule (int() or float() of
        the JSON value), and reject values no command can run with; a run
        rejected here still knows its output directory.  Returns the keys
        given that nothing reads, dotted within their section, in the
        config's order."""
        try:
            for key, read in _READERS.items():
                *section, leaf = key.split(".")
                doc = self.raw.get(section[0], {}) if section else self.raw
                if not isinstance(doc, dict):
                    raise TypeError(f"{section[0]} is no JSON object")
                if leaf in doc:
                    name = key.removeprefix("options.").replace(".", "_")
                    setattr(self, name, read(doc[leaf]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed config value: {exc!r}") from exc
        self.threads = max(1, self.threads)
        lo, hi, count = self.s_grid
        # the default grid lies under the cap
        if "s_grid" in self.raw and hi > spectrum.S_CAP:
            raise ConfigError(f"s_grid max {hi} exceeds the cap {spectrum.S_CAP:g}")
        if lo < 0:
            raise ConfigError("negative exponents are not supported")
        if count < 2:
            raise ConfigError("s_grid count must be >= 2")
        if hi <= lo:
            raise ConfigError("s_grid max must exceed its min")
        for name in ("mc_paths", "mc_steps", "mc_samples"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name.replace('_', '.')} must be positive")
        if not 0.0 < self.rho_eps <= 1.0:
            raise ConfigError(f"options.rho_eps must lie in (0, 1], got {self.rho_eps!r}")
        if self.p0 == 0.0:
            raise ConfigError("options.p0 must be nonzero")
        t_lo, t_hi, t_count = self.t_grid
        if not (t_lo > 0 and t_hi > 0 and t_count >= 1):
            raise ConfigError("options.t_grid needs min, max > 0 and count >= 1")
        if self.n_windows < 1:
            raise ConfigError("options.n_windows must be >= 1")
        if not self.annulus_width > 0:
            raise ConfigError("options.annulus_width must be > 0")
        if not self.t_start > 0:
            raise ConfigError("options.t_start must be > 0")
        # the default Hill order is bounded in _tails, the one command using it
        if self.hill_k is not None and not 1 <= self.hill_k < self.mc_samples / 2:
            raise ConfigError("options.hill_k must lie in [1, mc.samples / 2)")
        if self.directions is not None and self.directions < 1:
            raise ConfigError("options.directions must be >= 1")
        if any(b < 0 for b in self.moment_betas or ()):
            raise ConfigError("options.moment_betas must be >= 0")
        given = []
        for key, value in self.raw.items():
            given += [f"{key}.{leaf}" for leaf in value] if key in _SECTIONS else [key]
        return [key for key in given if key not in _READERS and key not in _LOADED]


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


_CSV_BLOCK = 4096  # rows formatted at once by the float-array path


def write_csv(path: Path, header: list[str], rows: list[list] | np.ndarray) -> None:
    """rows is a list of rows of mixed values, each formatted by _fmt, or a
    2-D float array, formatted a block of rows per call to the same bytes."""
    if isinstance(rows, np.ndarray) and rows.dtype.kind == "f":
        line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        with path.open("w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for i in range(0, rows.shape[0], _CSV_BLOCK):
                block = rows[i : i + _CSV_BLOCK]
                fh.write(line * block.shape[0] % tuple(block.ravel().tolist()))
        return
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class Manifest:
    """Per-invocation manifest, written even on partial failure; every
    output file of a run is written and listed through it."""

    def __init__(self, command: str, cfg: RunConfig):
        self.doc = {
            "command": command,
            "tool_version": __version__,
            "config": cfg.raw,
            "ensemble_sha256": "unavailable",
            "outputs": [],
            "timings_s": {},
            "warnings": [],
            "status": "running",
            "versions": {"python": sys.version.split()[0], "numpy": np.__version__},
        }
        self.out_dir = cfg.out_dir

    def output_csv(self, name: str, header: list[str], rows: list[list] | np.ndarray,
                   meaning: str) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        write_csv(self.out_dir / name, header, rows)
        self.doc["outputs"].append({"file": name, "meaning": meaning})

    def output_json(self, name: str, doc: dict, meaning: str, default=None) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        (self.out_dir / name).write_text(
            json.dumps(doc, indent=2, sort_keys=True, default=default) + "\n",
            encoding="utf-8")
        self.doc["outputs"].append({"file": name, "meaning": meaning})

    def warn(self, msg: str) -> None:
        self.doc["warnings"].append(msg)
        print(f"warning: {msg}", file=sys.stderr)

    def time(self, name: str, t0: float) -> None:
        self.doc["timings_s"][name] = round(time.perf_counter() - t0, 3)

    def finish(self, status: str) -> None:
        self.doc["status"] = status
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / "manifest.json"
        path.write_text(json.dumps(self.doc, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")


def _linear_part(ensemble) -> LinearEnsemble:
    return ensemble.linear_part if isinstance(ensemble, AffineEnsemble) else ensemble


def _solver(cfg: RunConfig, lin: LinearEnsemble) -> transfer.KSolver:
    """The one solver of a run: lin on the projective grid of
    cfg.grid_resolution nodes, DEFAULT_RESOLUTION when not given (the single
    node in d=1, whatever the resolution).  A resolution below the grid's
    minimum is invalid input."""
    n = transfer.DEFAULT_RESOLUTION if cfg.grid_resolution is None else cfg.grid_resolution
    try:
        grid = projective.build_grid(lin.dimension, n, projective.PROJECTIVE)
    except ValueError as exc:
        raise ConfigError(f"grid_resolution: {exc}") from exc
    return transfer.KSolver(lin, grid)


def _direction_key(u: np.ndarray) -> str:
    """A direction's components joined by spaces: one CSV field, unquoted.
    A component below 1e-12 in magnitude is round-off and reads 0."""
    return " ".join("0" if abs(v) < 1e-12 else f"{v:.6g}" for v in u)


# what a failed verdict means, for its warning; proximality never fails
FAILURE_NOTES = {"irreducibility": "invariant union of subspaces found",
                 "nonarithmetic": "log-lattice ensemble"}


# A command body runs on checked inputs: (config, ensemble, the run's solver
# or None for a command without a grid, manifest) -> "ok" or
# "non-converged".  Errors surface as exceptions, which main maps to exit
# codes.


def _validate(cfg: RunConfig, ensemble, ks, man: Manifest) -> str:
    t0 = time.perf_counter()
    lin = _linear_part(ensemble)
    evidence = validate_linear(lin)
    report = {"nonarithmetic": "inconclusive", "evidence": evidence}
    # each check answers d=1 itself; only non-arithmeticity is d=1 alone
    report["proximality"], evidence["proximality"] = check_proximality(lin, seed=cfg.seed)
    report["irreducibility"], evidence["irreducibility"] = check_strong_irreducibility(lin)
    report["cone_case"], evidence["cone"] = classify_cone_case(lin, seed=cfg.seed)
    warned = ["proximality", "irreducibility"]
    if lin.dimension == 1:
        report["nonarithmetic"], evidence["nonarithmetic"] = check_nonarithmetic_1d(lin)
        warned.append("nonarithmetic")
    man.time("checks", t0)
    man.output_json("validation_report.json", report,
                    "verdicts and witnesses for the standing hypotheses", default=str)
    for name in warned:
        if report[name] == "inconclusive":
            man.warn(f"{name}: inconclusive (no witness found)")
        elif report[name] == "fail":
            man.warn(f"{name}: fail ({FAILURE_NOTES[name]})")
    return "ok"


def _spectrum(cfg: RunConfig, ensemble, ks: transfer.KSolver, man: Manifest) -> str:
    lin = ks.ensemble
    t0 = time.perf_counter()
    curve = spectrum.compute_curve(ks, np.linspace(*cfg.s_grid), seed=cfg.seed)
    man.time("curve", t0)
    # route disagreement is a warning artifact, never a failure
    tab = curve.lyapunov_table
    for i, s in enumerate(curve.s_values):
        se = tab["tilted_mc_se"][i]
        if not np.isfinite(se):
            continue
        if abs(tab["tilted_mc"][i] - tab["quadrature"][i]) > 3 * se + 1e-12:
            man.warn(f"Lyapunov routes disagree beyond 3 sigma at s={s:g} "
                     "(tilted_mc vs quadrature)")
    t0 = time.perf_counter()
    gap_col, rho_col = [], []
    eps = cfg.rho_eps
    for s in curve.s_values:
        if lin.dimension == 1:
            gap_col.append(float("nan"))
            rho_col.append(float("nan"))
            continue
        g, _ = spectrum.lyapunov_gap(ks, s, seed=cfg.seed, n_pairs=8, n_paths=32)
        gap_col.append(g)
        rho_col.append(spectrum.contraction_rate(ks, s, eps=min(eps, s) if s > 0 else eps,
                                                 seed=cfg.seed))
    man.time("diagnostics", t0)
    rows = []
    for i, s in enumerate(curve.s_values):
        rows.append([
            s, curve.points[i].k, np.log(curve.points[i].k),
            tab["tilted_mc"][i], tab["quadrature"][i],
            gap_col[i], rho_col[i],
        ])
    man.output_csv("spectral_curve.csv",
                   ["s", "k", "log_k", "L_tilted_mc", "L_quadrature", "gap",
                    "rho_eps"], rows,
                   "k(s) curve with Lyapunov routes and contraction diagnostics")
    scal_rows = [["alpha", curve.alpha if curve.alpha is not None else float("nan")],
                 ["k_prime_alpha",
                  curve.k_prime_alpha if curve.k_prime_alpha is not None else float("nan")],
                 ["L_mu_0", spectrum.lyapunov(ks, 0.0, "quadrature")[0]]]
    if curve.alpha is not None:
        scal_rows.append(["L_mu_alpha",
                          spectrum.lyapunov(ks, curve.alpha, "quadrature")[0]])
    man.output_csv("spectral_scalars.csv", ["name", "value"], scal_rows,
                   "alpha, k'(alpha), Lyapunov exponents")
    # per-point exports, as float arrays: %.17g prints a node index as an int
    grid, n = ks.grid, ks.grid.n_nodes
    man.output_csv("spectral_points.csv", ["s", "node_index", "e_value", "nu_mass"],
                   np.vstack([np.column_stack([np.full(n, s), np.arange(n), sp.e.values,
                                               sp.nu.masses])
                              for s, sp in zip(curve.s_values, curve.points)]),
                   "eigenfunction and eigenmeasure per node")
    man.output_csv(
        "spectral_point_scalars.csv",
        ["s", "k", "p", "residual_e", "residual_nu", "iterations", "mode",
         "residual_p"],
        [[sp.s, sp.k, p, sp.residual_e, sp.residual_nu, sp.iterations, grid.mode, res_p]
         for sp, (p, res_p) in zip(curve.points, curve.pairings)],
        "scalar block per solved exponent; iterations counts the eigen-solve's "
        "mat-vecs with P^s and its adjoint; residual_p is max|p e^s - K *nu^s| "
        "/ max e^s, the grid error of the pairing identity behind p(s)",
    )
    if lin.dimension > 1:
        man.output_csv(
            "grid.csv",
            ["node_index", *(f"x{i}" for i in range(grid.dimension)),
             "quadrature_weight"],
            np.column_stack([np.arange(n), grid.nodes, grid.quadrature_weights]),
            "direction grid nodes and weights",
        )
    return "ok"


def _require_contracting(ks: transfer.KSolver) -> float:
    L0 = spectrum.lyapunov(ks, 0.0, "quadrature")[0]
    if L0 >= 0:
        raise HypothesisError(
            f"Lyapunov exponent at s=0 is {L0:.4f} >= 0: "
            "the stationary-tail hypotheses are violated"
        )
    return L0


def _probe_directions(d: int, n: int, projective: bool) -> np.ndarray:
    """n unit probe directions, spread over the sphere or, when projective,
    over one half of it: +-1 in d=1, equal angles in d=2, the first n
    points of a Fibonacci lattice of max(n, 4) points in d=3."""
    if d == 1:
        return np.array([[1.0], [-1.0]])[:n]
    if d == 2:
        span = np.pi if projective else 2 * np.pi
        ang = np.linspace(0, span, n, endpoint=False)
        return np.column_stack([np.cos(ang), np.sin(ang)])
    k = np.arange(max(n, 4))
    z = (k + 0.5) / len(k) if projective else 1.0 - (2.0 * k + 1.0) / len(k)
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = np.pi * (3.0 - np.sqrt(5.0)) * k
    points = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    return (points / np.linalg.norm(points, axis=1, keepdims=True))[:n]


def _tails(cfg: RunConfig, ensemble, ks: transfer.KSolver, man: Manifest) -> str:
    # check() bounds a given Hill order; the default one is bounded here,
    # before any work, as the bank has mc.samples values
    hill_k = max(10, cfg.mc_samples // 100) if cfg.hill_k is None else cfg.hill_k
    if not hill_k < cfg.mc_samples / 2:
        raise ConfigError(
            f"mc.samples = {cfg.mc_samples} is too small for the default Hill "
            f"order {hill_k}, which needs mc.samples > {2 * hill_k}; set "
            "options.hill_k in [1, mc.samples / 2)")
    L0 = _require_contracting(ks)
    t0 = time.perf_counter()
    alpha = spectrum.solve_alpha(ks)
    man.time("alpha", t0)
    t0 = time.perf_counter()
    bank = recursion.sample_stationary(
        ensemble, cfg.mc_steps, cfg.mc_samples, cfg.seed,
        lyapunov_negative=True, n_workers=cfg.threads,
    )
    man.time("bank", t0)
    if bank.under_converged:
        man.warn("bank under-converged: truncation diagnostic above cutoff")
    t0 = time.perf_counter()
    norms = bank.norms()
    a_hat, ci = recursion.hill_estimator(norms, hill_k)
    stab = recursion.hill_stability(norms)
    d = ks.ensemble.dimension
    n_dirs = 2 if d == 1 else 8 if cfg.directions is None else cfg.directions
    dirs = _probe_directions(d, n_dirs, projective=False)
    tail_tables = {}
    mellins = {}
    for u in dirs:
        key = _direction_key(u)
        try:
            tail_tables[key] = recursion.empirical_tail(bank, u, alpha)
        except ValueError as exc:
            man.warn(f"direction {key}: {exc}")
        try:
            mellins[key] = recursion.mellin_profile(bank, u, alpha)
        except ValueError as exc:
            man.warn(f"direction {key} (pole route): {exc}")
    case = recursion.classify_tail_case(ensemble, seed=cfg.seed)
    prof = None
    if case == "I" and len(dirs) > 1:
        try:
            prof = recursion.directional_profile(
                [tail_tables.get(_direction_key(u)) for u in dirs], ks, alpha, dirs)
        except ValueError as exc:
            man.warn(f"profile: {exc}")
    betas = [0.0, alpha / 2, alpha * 1.2] if cfg.moment_betas is None else cfg.moment_betas
    moments = recursion.moment_check(bank, betas, ks)
    man.time("estimators", t0)

    man.output_csv("bank.csv", [f"x{i}" for i in range(d)],
                   bank.samples,
                   "stationary samples of the recursion")
    man.output_json("bank_meta.json", {
        "ensemble_sha256": bank.ensemble_sha,
        "seed": bank.seed,
        "n_steps": bank.n_steps,
        "n_samples": bank.n_samples,
        "truncation_diag": bank.truncation_diag,
        "row_steps": bank.row_steps,
        "last_step": bank.last_step,
        "remainder_bound": bank.remainder_bound,
        "under_converged": bank.under_converged,
    }, "bank header block")
    trows = []
    for key, tbl in tail_tables.items():
        for t, c, y in zip(tbl["t"], tbl["counts"], tbl["scaled_tail"]):
            trows.append([key, t, int(c), y])
    man.output_csv("tail_tables.csv", ["direction", "t", "exceedances", "t_alpha_tail"],
                   trows, "t^alpha tail tables per direction")
    man.output_json("tail_report.json", {
        "alpha_spectral": alpha,
        "alpha_hill": a_hat,
        "alpha_hill_ci": ci,
        "hill_k": hill_k,
        "directional_constants": {
            k: {"plateau": v["plateau"], "ci": v["ci"], "window": v["window"]}
            for k, v in tail_tables.items()
        },
        "proportionality_cv": None if prof is None else prof["cv"],
        "case_label": case,
        "mellin_constants": {
            k: {"c_estimate": v["c_estimate"], "c_se": v["c_se"]}
            for k, v in mellins.items()
        },
        "hill_power_tail": stab["power_tail"],
        "L_mu_0": L0,
        "moments": moments,
    }, "tail index, constants, case label, moments", default=float)
    return "non-converged" if bank.under_converged else "ok"


def _renewal(cfg: RunConfig, ensemble, ks: transfer.KSolver, man: Manifest) -> str:
    lin = ks.ensemble
    L0 = spectrum.lyapunov(ks, 0.0, "quadrature")[0]
    if L0 == 0:
        raise HypothesisError("critical walk (L = 0): renewal limits diverge")
    width = cfg.annulus_width
    fns = [renewal.AnnulusFunction(f"annulus{j}", j * width, (j + 1) * width)
           for j in range(cfg.n_windows)]
    arith = False
    if lin.dimension == 1:
        arith = check_nonarithmetic_1d(lin)[0] == "fail"
    t0 = time.perf_counter()
    if L0 > 0:
        rep = renewal.potential_profile_expanding(ks, fns, n_paths=cfg.mc_paths, seed=cfg.seed)
    else:
        # contracting regime: alpha-tilted potential against the
        # t^{-alpha}-scaled renewal prediction
        alpha = spectrum.solve_alpha(ks)
        rep = renewal.tilted_potential_profile(
            ks, alpha, np.eye(lin.dimension)[0], cfg.t_start, fns,
            n_paths=cfg.mc_paths, seed=cfg.seed,
        )
    if arith:
        rep.caveats.append("arithmetic log-lattice: pointwise renewal limit not "
                           "guaranteed; mean-level comparison only")
    man.time("profile", t0)
    for c in rep.caveats:
        man.warn(c)
    man.output_csv("renewal_report.csv", ["name", "measured", "predicted", "stderr", "flag"],
                   [[r["name"], r["measured"], r["predicted"], r["stderr"], r["flag"]]
                    for r in rep.rows],
                   f"{rep.regime} potential vs renewal prediction")
    man.doc["regime"] = rep.regime
    return "ok"


def _cramer(cfg: RunConfig, ensemble, ks: transfer.KSolver, man: Manifest) -> str:
    _require_contracting(ks)
    alpha = spectrum.solve_alpha(ks)
    t_grid = np.geomspace(*cfg.t_grid)
    d = ks.ensemble.dimension
    n_dirs = (16 if d > 1 else 2) if cfg.directions is None else cfg.directions
    dirs = _probe_directions(d, n_dirs, projective=True)
    rows_out = []
    t0 = time.perf_counter()
    for j, u in enumerate(dirs):
        key = _direction_key(u)
        tilted = renewal.cramer_constant(ks, alpha, u, t_grid, cfg.mc_paths,
                                         seed=cfg.seed + j, method="tilted")
        naive = renewal.cramer_constant(ks, alpha, u, t_grid,
                                        cfg.mc_paths, seed=cfg.seed + 1000 + j,
                                        method="naive")
        for method, rows in (("tilted", tilted), ("naive", naive)):
            rows_out += [[key, r["t"], method, r["estimate"], r["stderr"], r["hits"],
                          r["flag"]] for r in rows]
    man.time("cramer", t0)
    man.output_csv("cramer_table.csv", ["direction", "t", "method", "estimate", "stderr",
                                        "hits", "flag"], rows_out,
                   "t^alpha crossing probabilities per direction")
    return "ok"


def _dualwalk(cfg: RunConfig, ensemble, ks: transfer.KSolver, man: Manifest) -> str:
    _require_contracting(ks)
    alpha = spectrum.solve_alpha(ks)
    # ladder positivity is guaranteed on the charged attractor side: start
    # there when the transposed semigroup preserves a cone
    cone_star, ev_star = classify_cone_case(ks.star.ensemble, seed=cfg.seed)
    u0 = None
    if cone_star == "II" and ev_star.get("attractor_center") is not None:
        u0 = np.asarray(ev_star["attractor_center"], dtype=float)
        # the centre's sign falls to the cone walk's draws: take the charged
        # side, where the weighted mean of <B, u> is positive
        u0 *= np.sign(ensemble.weights @ ensemble.translations @ u0) or 1.0
    t0 = time.perf_counter()
    rec = renewal.dual_walk_simulate(
        ensemble, ks, alpha,
        p0=cfg.p0,
        u0=u0,
        n_starts=cfg.mc_paths, n_steps=cfg.mc_steps, seed=cfg.seed,
    )
    man.time("dualwalk", t0)
    finite = int((rec.first_tau > 0).sum())
    man.output_csv("dualwalk_report.csv", ["name", "value"], [
        ["n_starts", rec.n_starts],
        ["n_steps", rec.n_steps],
        ["tau_finite", finite],
        ["mean_inter_ladder_gap", rec.mean_gap],
        ["gamma_tau", rec.gamma_tau],
        ["ladder_height_rate", rec.height_rate],
        ["ladder_height_rate_se", rec.height_rate_se],
        ["eps_moment", rec.eps_moment],
        ["eps_moment_cv", rec.eps_moment_cv],
        ["sign_preserved", rec.sign_preserved],
        ["zero_hits", rec.zero_hits],
    ], "ladder epochs, height rate, and p-moment")
    if not rec.sign_preserved:
        man.warn("ladder sign preservation violated")
    if finite == 0:
        man.warn(f"no start reached a ladder epoch within {rec.n_steps} steps")
    return "ok"


# name -> (body, help, needs an affine ensemble, needs a direction grid)
COMMANDS = {
    "validate": (_validate, "structural and hypothesis checks", False, False),
    "spectrum": (_spectrum, "k(s) curve, alpha, Lyapunov exponents", False, True),
    "tails": (_tails, "stationary sampling and tail estimation", True, True),
    "renewal": (_renewal, "expanding-regime renewal verification", False, True),
    "cramer": (_cramer, "level-crossing (ruin) asymptotics", False, True),
    "dualwalk": (_dualwalk, "dual ladder walk diagnostics", True, True),
}


def _run(args) -> int:
    """One run of args.command: parse and check the config, load the
    ensemble, build the solver, run the body.  The manifest is written
    whatever happens: "invalid-input" when the config or the ensemble is
    rejected, here or by a body that can only judge it at run time,
    "failed" when anything else raises, "non-converged" when any eigen-solve
    of the run's solver or of its transposed solver did not converge, else
    the body's status."""
    body, _, need_affine, need_grid = COMMANDS[args.command]
    overrides = {
        "seed": args.seed,
        "out": args.out,
        "threads": args.threads,
        "grid_resolution": args.resolution,
    }
    cfg = RunConfig.load(args.config, overrides)
    man = Manifest(args.command, cfg)
    status = "failed"
    try:
        try:
            unknown = cfg.check()
            if unknown:
                man.warn("config keys that nothing reads, ignored: " + ", ".join(unknown))
            ensemble = load_ensemble(cfg.ensemble_path)
            man.doc["ensemble_sha256"] = ensemble_hash(ensemble)
            if need_affine and not isinstance(ensemble, AffineEnsemble):
                raise ConfigError("this command needs an affine ensemble (translations)")
            if need_grid and ensemble.dimension > 3:
                raise ConfigError(
                    f"unsupported dimension {ensemble.dimension}: {args.command} "
                    "solves on direction grids, which cover d in {1, 2, 3}"
                )
            ks = _solver(cfg, _linear_part(ensemble)) if need_grid else None
            status = body(cfg, ensemble, ks, man)
            unconverged = [sp.s for sp in (ks.solved() if ks else ()) if not sp.converged]
            if unconverged:
                man.warn("the eigen-solve did not converge at s = "
                         + ", ".join(f"{s:g}" for s in sorted(set(unconverged))))
                status = "non-converged"
        except (ConfigError, EnsembleError):
            status = "invalid-input"
            raise
    finally:
        man.finish(status)
    return EXIT_OK if status == "ok" else EXIT_NONCONVERGED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matspec",
        description="Spectral objects of random matrix products and "
                    "heavy-tail diagnostics for affine recursions.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext, _, _) in COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--threads", type=int, default=None,
                       help="worker pool bound (never affects results)")
        p.add_argument("--resolution", type=int, default=None,
                       help="override grid resolution")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ConfigError, EnsembleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except HypothesisError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED


if __name__ == "__main__":
    raise SystemExit(main())

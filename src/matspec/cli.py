"""Command-line driver: validate ensembles and run the analysis pipelines.

Every invocation writes a manifest (config echo, ensemble hash, tool,
python and numpy versions, output list, wall-clock timings) into the
output directory, even on partial failure, and every stochastic output is
a pure function of (config bytes, seed, tool version): repeated runs with
the same seed produce byte-identical CSV bodies.  One runner, ``_run``,
owns that lifecycle for every command: inputs, manifest, outputs and exit
status.

Exit codes: 0 success (possibly with warnings), 1 numerical
non-convergence, 2 invalid input, 3 hypothesis violation (e.g. a tails run
on a non-contracting ensemble).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import dataclass, field
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
    transpose,
    validate_linear,
)
from .projective import PROJECTIVE, build_grid
from .recursion import (
    classify_tail_case,
    directional_profile,
    empirical_tail,
    hill_estimator,
    hill_stability,
    mellin_profile,
    moment_check,
    sample_stationary,
)
from .renewal import (
    AnnulusFunction,
    cramer_constant,
    dual_walk_simulate,
    potential_profile_expanding,
    tilted_potential_profile,
)
from .spectrum import (
    KSolver,
    compute_curve,
    contraction_rate,
    lyapunov,
    lyapunov_gap,
    solve_alpha,
)

EXIT_OK = 0
EXIT_NONCONVERGED = 1
EXIT_INVALID = 2
EXIT_HYPOTHESIS = 3


# options whose defaults do not depend on the run; load merges them under
# the config's own options (t_grid: cramer's thresholds)
OPTION_DEFAULTS = {
    "rho_eps": 0.25,
    "p0": 1.0,
    "t_grid": {"min": 10.0, "max": 10000.0, "count": 13},
    "n_windows": 3,
    "annulus_width": float(np.log(2.0)),
    "t_start": 1e-4,
}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Parsed run configuration; see README for the JSON schema."""

    ensemble_path: Path
    seed: int
    out_dir: Path
    threads: int = 1
    grid_resolution: int = 512
    s_grid: tuple[float, float, int] = (0.0, 2.0, 9)
    s_max_bound: float = 64.0
    mc_paths: int = 100_000
    mc_steps: int = 400
    mc_samples: int = 1_000_000
    options: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | Path, overrides: dict) -> "RunConfig":
        p = Path(path)
        try:
            doc = json.loads(p.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {p}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"malformed config value: {p} holds no JSON object")
        merged = dict(doc)
        merged.update({k: v for k, v in overrides.items() if v is not None})
        if "seed" not in merged:
            raise ConfigError("seed is mandatory for every stochastic command")
        if "ensemble" not in merged:
            raise ConfigError("config must name an ensemble file")
        ens = Path(merged["ensemble"])
        if not ens.is_absolute():
            ens = p.parent / ens
        sg = merged.get("s_grid", {"min": 0.0, "max": 2.0, "count": 9})
        mc = merged.get("mc", {})
        try:
            return cls(
                ensemble_path=ens,
                seed=int(merged["seed"]),
                out_dir=Path(merged.get("out", "matspec-out")),
                threads=max(1, int(merged.get("threads", 1))),
                grid_resolution=int(merged.get("grid_resolution", 512)),
                s_grid=(float(sg["min"]), float(sg["max"]), int(sg["count"])),
                s_max_bound=float(merged.get("s_max_bound", 64.0)),
                mc_paths=int(mc.get("paths", 100_000)),
                mc_steps=int(mc.get("steps", 400)),
                mc_samples=int(mc.get("samples", 1_000_000)),
                options={**OPTION_DEFAULTS, **merged.get("options", {})},
                raw=merged,
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed config value: {exc!r}") from exc

    def check(self) -> None:
        """Reject values no command can run with; load parses without it,
        so that a rejected config still knows its output directory."""
        lo, hi, count = self.s_grid
        if hi > self.s_max_bound:
            raise ConfigError(
                f"s_grid max {hi} exceeds the declared bound {self.s_max_bound}"
            )
        if lo < 0:
            raise ConfigError("negative exponents are not supported")
        if count < 2:
            raise ConfigError("s_grid count must be >= 2")
        if hi <= lo:
            raise ConfigError("s_grid max must exceed its min")
        for name, val in (
            ("mc.paths", self.mc_paths),
            ("mc.steps", self.mc_steps),
            ("mc.samples", self.mc_samples),
        ):
            if val <= 0:
                raise ConfigError(f"{name} must be positive")
        opts = self.options
        rho_eps = opts["rho_eps"]
        if not isinstance(rho_eps, (int, float)) or not 0.0 < rho_eps <= 1.0:
            raise ConfigError(f"options.rho_eps must lie in (0, 1], got {rho_eps!r}")
        try:
            p0 = float(opts["p0"])
            tg = opts["t_grid"]
            t_lo, t_hi, t_count = float(tg["min"]), float(tg["max"]), int(tg["count"])
            n_windows = int(opts["n_windows"])
            width = float(opts["annulus_width"])
            t_start = float(opts["t_start"])
            # a given hill_k is bounded here and its default, which depends
            # on mc.samples, in _tails; the defaults of the last two are
            # valid
            hill_k = int(opts.get("hill_k", 1))
            directions = int(opts.get("directions", 1))
            betas = [float(b) for b in opts.get("moment_betas", [])]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed option value: {exc!r}") from exc
        if p0 == 0.0:
            raise ConfigError("options.p0 must be nonzero")
        if not (t_lo > 0 and t_hi > 0 and t_count >= 1):
            raise ConfigError("options.t_grid needs min, max > 0 and count >= 1")
        if n_windows < 1:
            raise ConfigError("options.n_windows must be >= 1")
        if not width > 0:
            raise ConfigError("options.annulus_width must be > 0")
        if not t_start > 0:
            raise ConfigError("options.t_start must be > 0")
        if "hill_k" in opts and not 1 <= hill_k < self.mc_samples / 2:
            raise ConfigError("options.hill_k must lie in [1, mc.samples / 2)")
        if directions < 1:
            raise ConfigError("options.directions must be >= 1")
        if any(b < 0 for b in betas):
            raise ConfigError("options.moment_betas must be >= 0")

    def s_values(self) -> np.ndarray:
        lo, hi, count = self.s_grid
        return np.linspace(lo, hi, count)


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
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
            "versions": {"python": platform.python_version(), "numpy": np.__version__},
        }
        self.out_dir = cfg.out_dir

    def output_csv(self, name: str, header: list[str], rows: list[list],
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


def _solver(cfg: RunConfig, lin: LinearEnsemble) -> KSolver:
    """The one solver of a run: lin on the projective grid of
    cfg.grid_resolution nodes (the single node in d=1, whatever the
    resolution).  A resolution below the grid's minimum is invalid input."""
    try:
        grid = build_grid(lin.dimension, cfg.grid_resolution, PROJECTIVE)
    except ValueError as exc:
        raise ConfigError(f"grid_resolution: {exc}") from exc
    return KSolver(lin, grid)


def _direction_key(u: np.ndarray) -> str:
    """A direction's components joined by spaces: one CSV field, unquoted."""
    return " ".join(f"{v:.6g}" for v in u)


# A command body runs on checked inputs: (config, ensemble, the run's solver
# or None for a command without a grid, manifest) -> "ok" or
# "non-converged".  Errors surface as exceptions, which main maps to exit
# codes.


def _validate(cfg: RunConfig, ensemble, ks, man: Manifest) -> str:
    t0 = time.perf_counter()
    lin = _linear_part(ensemble)
    report = validate_linear(lin)
    if lin.dimension >= 2:
        v, ev = check_proximality(lin, seed=cfg.seed)
        report.proximality_verdict = v
        report.evidence["proximality"] = ev
        v, ev = check_strong_irreducibility(lin)
        report.irreducibility_verdict = v
        report.evidence["irreducibility"] = ev
        v, ev = classify_cone_case(lin, seed=cfg.seed)
        report.cone_case = v
        report.evidence["cone"] = ev
    else:
        v, ev = check_proximality(lin)
        report.proximality_verdict = v
        report.evidence["proximality"] = ev
        v, ev = check_nonarithmetic_1d(lin)
        report.nonarithmetic_verdict = v
        report.evidence["nonarithmetic"] = ev
        report.cone_case, _ = classify_cone_case(lin)
    man.time("checks", t0)
    doc = {
        "irreducibility": report.irreducibility_verdict,
        "proximality": report.proximality_verdict,
        "cone_case": report.cone_case,
        "nonarithmetic": report.nonarithmetic_verdict,
        "evidence": report.evidence,
    }
    man.output_json("validation_report.json", doc,
                    "verdicts and witnesses for the standing hypotheses", default=str)
    verdicts = [("proximality", report.proximality_verdict),
                ("irreducibility", report.irreducibility_verdict)]
    if lin.dimension == 1:
        verdicts.append(("nonarithmetic", report.nonarithmetic_verdict))
    for name, verdict in verdicts:
        if verdict == "inconclusive":
            man.warn(f"{name}: inconclusive (no witness found)")
        if verdict == "fail" and name == "nonarithmetic":
            man.warn("nonarithmetic: fail (log-lattice ensemble)")
        if verdict == "fail" and name == "irreducibility":
            man.warn("irreducibility: fail (invariant union of subspaces found)")
    return "ok"


def _spectrum(cfg: RunConfig, ensemble, ks: KSolver, man: Manifest) -> str:
    lin = ks.ensemble
    t0 = time.perf_counter()
    curve = compute_curve(lin, cfg.s_values(), seed=cfg.seed, solver=ks)
    man.time("curve", t0)
    nonconverged = any(not p.converged for p in curve.points)
    if nonconverged:
        man.warn("the eigen-solve did not converge at every s")
    # route disagreement is a warning artifact, never a failure
    tab = curve.lyapunov_table
    for i, s in enumerate(curve.s_values):
        se = tab["tilted_mc_se"][i]
        if not np.isfinite(se):
            continue
        for other in ("finite_diff", "quadrature"):
            if abs(tab["tilted_mc"][i] - tab[other][i]) > 3 * se + 1e-12:
                man.warn(
                    f"Lyapunov routes disagree beyond 3 sigma at s={s:g} "
                    f"(tilted_mc vs {other})"
                )
    t0 = time.perf_counter()
    gap_col, rho_col = [], []
    eps = cfg.options["rho_eps"]
    for s in curve.s_values:
        if lin.dimension == 1:
            gap_col.append(float("nan"))
            rho_col.append(float("nan"))
            continue
        g, _ = lyapunov_gap(lin, s, seed=cfg.seed, solver=ks,
                            n_pairs=8, n_paths=32)
        gap_col.append(g)
        rho_col.append(
            contraction_rate(lin, s, eps=min(eps, max(s, 1e-6)) if s > 0 else eps,
                             seed=cfg.seed, solver=ks, n_pairs=16, n_paths=32)
        )
    man.time("diagnostics", t0)
    rows = []
    for i, s in enumerate(curve.s_values):
        rows.append([
            s, curve.points[i].k, np.log(curve.points[i].k),
            tab["finite_diff"][i], tab["tilted_mc"][i], tab["quadrature"][i],
            gap_col[i], rho_col[i],
        ])
    man.output_csv("spectral_curve.csv",
                   ["s", "k", "log_k", "L_finite_diff", "L_tilted_mc",
                    "L_quadrature", "gap", "rho_eps"], rows,
                   "k(s) curve with Lyapunov routes and contraction diagnostics")
    scal_rows = [["alpha", curve.alpha if curve.alpha is not None else float("nan")],
                 ["k_prime_alpha",
                  curve.k_prime_alpha if curve.k_prime_alpha is not None else float("nan")],
                 ["L_mu_0", lyapunov(lin, 0.0, "quadrature", solver=ks)[0]]]
    if curve.alpha is not None:
        scal_rows.append(["L_mu_alpha",
                          lyapunov(lin, curve.alpha, "quadrature", solver=ks)[0]])
    man.output_csv("spectral_scalars.csv", ["name", "value"], scal_rows,
                   "alpha, k'(alpha), Lyapunov exponents")
    # per-point exports
    sp_rows = []
    for s, sp in zip(curve.s_values, curve.points):
        for j in range(sp.e.grid.n_nodes):
            sp_rows.append([s, j, sp.e.values[j], sp.nu.masses[j]])
    man.output_csv("spectral_points.csv", ["s", "node_index", "e_value", "nu_mass"],
                   sp_rows, "eigenfunction and eigenmeasure per node")
    man.output_csv(
        "spectral_point_scalars.csv",
        ["s", "k", "p", "residual_e", "residual_nu", "iterations", "mode",
         "residual_p"],
        [[sp.s, sp.k, sp.p, sp.residual_e, sp.residual_nu, sp.iterations,
          sp.mode, sp.residual_p] for sp in curve.points],
        "scalar block per solved exponent; iterations counts the eigen-solve's "
        "mat-vecs with P^s and its adjoint; residual_p is max|p e^s - K *nu^s| "
        "/ max e^s, the grid error of the pairing identity behind p(s)",
    )
    if lin.dimension > 1:
        grid = ks.grid
        man.output_csv(
            "grid.csv",
            ["node_index", *(f"x{i}" for i in range(grid.dimension)),
             "quadrature_weight"],
            [[j, *grid.nodes[j], grid.quadrature_weights[j]]
             for j in range(grid.n_nodes)],
            "direction grid nodes and weights",
        )
    return "non-converged" if nonconverged else "ok"


def _require_contracting(lin: LinearEnsemble, ks: KSolver) -> float:
    L0 = lyapunov(lin, 0.0, "quadrature", solver=ks)[0]
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


def _tails(cfg: RunConfig, ensemble, ks: KSolver, man: Manifest) -> str:
    # check() bounds a given Hill order; the default one is bounded here,
    # before any work, as the bank has mc.samples values
    hill_k = int(cfg.options.get("hill_k", max(10, cfg.mc_samples // 100)))
    if not hill_k < cfg.mc_samples / 2:
        raise ConfigError(
            f"mc.samples = {cfg.mc_samples} is too small for the default Hill "
            f"order {hill_k}, which needs mc.samples > {2 * hill_k}; set "
            "options.hill_k in [1, mc.samples / 2)")
    lin = ks.ensemble
    L0 = _require_contracting(lin, ks)
    t0 = time.perf_counter()
    alpha = solve_alpha(lin, solver=ks)
    man.time("alpha", t0)
    t0 = time.perf_counter()
    bank = sample_stationary(
        ensemble, cfg.mc_steps, cfg.mc_samples, cfg.seed,
        lyapunov_negative=True, n_workers=cfg.threads,
    )
    man.time("bank", t0)
    if bank.under_converged:
        man.warn("bank under-converged: truncation diagnostic above cutoff")
    t0 = time.perf_counter()
    a_hat, ci = hill_estimator(bank, "norm", hill_k)
    stab = hill_stability(bank, "norm")
    d = lin.dimension
    n_dirs = 2 if d == 1 else int(cfg.options.get("directions", 8))
    dirs = _probe_directions(d, n_dirs, projective=False)
    sp_star = ks.star.point(alpha)
    tail_tables = {}
    mellins = {}
    for u in dirs:
        key = _direction_key(u)
        try:
            tail_tables[key] = empirical_tail(bank, u, alpha)
        except ValueError as exc:
            man.warn(f"direction {key}: {exc}")
        try:
            mellins[key] = mellin_profile(bank, u, alpha)
        except ValueError as exc:
            man.warn(f"direction {key} (pole route): {exc}")
    cone, cone_ev = classify_cone_case(lin, seed=cfg.seed)
    center = cone_ev.get("attractor_center")
    case = classify_tail_case(
        ensemble, cone, np.asarray(center) if center is not None else None,
        seed=cfg.seed,
    )
    prof = None
    if case == "I" and len(dirs) > 1:
        try:
            prof = directional_profile(
                [tail_tables.get(_direction_key(u)) for u in dirs], sp_star, dirs)
        except ValueError as exc:
            man.warn(f"profile: {exc}")
    betas = cfg.options.get("moment_betas", [0.0, alpha / 2, alpha * 1.2])
    kvals = {float(b): ks.k(float(b)) for b in betas}
    moments = moment_check(bank, betas, kvals)
    man.time("estimators", t0)

    cols = [f"x{i}" for i in range(d)] if d > 1 else ["x0"]
    samples = bank.samples.reshape(bank.n_samples, -1)
    man.output_csv("bank.csv", cols, samples.tolist(),
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


def _renewal(cfg: RunConfig, ensemble, ks: KSolver, man: Manifest) -> str:
    lin = ks.ensemble
    L0 = lyapunov(lin, 0.0, "quadrature", solver=ks)[0]
    if L0 == 0:
        raise HypothesisError("critical walk (L = 0): renewal limits diverge")
    width = float(cfg.options["annulus_width"])
    fns = [AnnulusFunction(f"annulus{j}", j * width, (j + 1) * width)
           for j in range(int(cfg.options["n_windows"]))]
    arith = False
    if lin.dimension == 1:
        arith = check_nonarithmetic_1d(lin)[0] == "fail"
    t0 = time.perf_counter()
    if L0 > 0:
        rep = potential_profile_expanding(
            lin, fns, L=L0, n_paths=cfg.mc_paths, seed=cfg.seed,
            nu=ks.point(0.0).nu, arithmetic_caveat=arith,
        )
    else:
        # contracting regime: alpha-tilted potential against the
        # t^{-alpha}-scaled renewal prediction
        alpha = solve_alpha(lin, solver=ks)
        sp = ks.point(alpha)
        L_alpha = lyapunov(lin, alpha, "quadrature", solver=ks)[0]
        t_small = float(cfg.options["t_start"])
        rep = tilted_potential_profile(
            lin, alpha, _default_direction(lin), t_small, fns,
            n_paths=cfg.mc_paths, seed=cfg.seed, sp=sp, L_alpha=L_alpha,
            nu_alpha=sp.nu,
        )
        if arith:
            rep.caveats.append(
                "arithmetic log-lattice: pointwise renewal limit not "
                "guaranteed; mean-level comparison only"
            )
    man.time("profile", t0)
    for c in rep.caveats:
        man.warn(c)
    man.output_csv("renewal_report.csv", ["name", "measured", "predicted", "stderr", "flag"],
                   [[r["name"], r["measured"], r["predicted"], r["stderr"], r["flag"]]
                    for r in rep.rows],
                   f"{rep.regime} potential vs renewal prediction")
    man.doc["regime"] = rep.regime
    return "ok"


def _default_direction(lin: LinearEnsemble) -> np.ndarray:
    u = np.zeros(lin.dimension)
    u[0] = 1.0
    return u


def _cramer(cfg: RunConfig, ensemble, ks: KSolver, man: Manifest) -> str:
    lin = ks.ensemble
    _require_contracting(lin, ks)
    alpha = solve_alpha(lin, solver=ks)
    sp = ks.point(alpha)
    tg_spec = cfg.options["t_grid"]
    t_grid = np.geomspace(tg_spec["min"], tg_spec["max"], int(tg_spec["count"]))
    d = lin.dimension
    n_dirs = int(cfg.options.get("directions", 16 if d > 1 else 2))
    dirs = _probe_directions(d, n_dirs, projective=True)
    rows_out = []
    t0 = time.perf_counter()
    for j, u in enumerate(dirs):
        key = _direction_key(u)
        tilted = cramer_constant(lin, alpha, u, t_grid, cfg.mc_paths,
                                 seed=cfg.seed + j, method="tilted", sp=sp)
        naive = cramer_constant(lin, alpha, u, t_grid,
                                cfg.mc_paths, seed=cfg.seed + 1000 + j,
                                method="naive")
        for r in tilted:
            rows_out.append([key, r["t"], "tilted", r["estimate"], r["stderr"],
                             r["hits"], r["flag"]])
        for r in naive:
            rows_out.append([key, r["t"], "naive", r["estimate"], r["stderr"],
                             r["hits"], r["flag"]])
    man.time("cramer", t0)
    man.output_csv("cramer_table.csv", ["direction", "t", "method", "estimate", "stderr",
                                        "hits", "flag"], rows_out,
                   "t^alpha crossing probabilities per direction")
    return "ok"


def _dualwalk(cfg: RunConfig, ensemble, ks: KSolver, man: Manifest) -> str:
    lin = ks.ensemble
    _require_contracting(lin, ks)
    alpha = solve_alpha(lin, solver=ks)
    L_alpha = lyapunov(lin, alpha, "quadrature", solver=ks)[0]
    sp_star = ks.star.point(alpha)
    # ladder positivity is guaranteed on the charged attractor side: start
    # there when the transposed semigroup preserves a cone
    cone_star, ev_star = classify_cone_case(transpose(lin), seed=cfg.seed)
    u0 = None
    if cone_star == "II" and ev_star.get("attractor_center") is not None:
        u0 = np.asarray(ev_star["attractor_center"], dtype=float)
    t0 = time.perf_counter()
    rec = dual_walk_simulate(
        ensemble, sp_star, L_alpha,
        p0=float(cfg.options["p0"]),
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
    "failed" when anything else raises, else the body's status."""
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
            cfg.check()
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

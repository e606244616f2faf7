import csv
import dataclasses
import json
import platform
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from matspec.cli import (
    EXIT_HYPOTHESIS,
    EXIT_INVALID,
    EXIT_NONCONVERGED,
    EXIT_OK,
    _probe_directions,
    main,
)
from matspec.ensemble import LinearEnsemble, save_ensemble
from matspec.projective import PROJECTIVE, build_grid
from matspec import cli, spectrum, transfer
from matspec.ensembles import (
    affine_3d,
    expanding_1d_arithmetic,
    expanding_1d_deterministic,
    ip_2d,
    ip_affine_2d,
    kesten_1d,
    kesten_affine_1d,
    rotations_2d,
    similarity_2d,
)
from matspec.transfer import TOL, KSolver


def write_config(tmp_path: Path, ensemble, name="ens.json", **extra) -> Path:
    save_ensemble(ensemble, tmp_path / name)
    cfg = {
        "ensemble": name,
        "seed": 99,
        "out": str(tmp_path / "out"),
        "mc": {"samples": 50_000, "steps": 300, "paths": 4000},
        "s_grid": {"min": 0.0, "max": 1.5, "count": 4},
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


SPECTRAL_CURVE_HEADER = "s,k,log_k,L_tilted_mc,L_quadrature,gap,rho_eps"


class TestValidateCommand:
    def test_kesten_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, kesten_1d())
        assert main(["validate", "--config", str(cfg)]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "validation_report.json").read_text())
        assert report["nonarithmetic"] == "pass"
        assert report["proximality"] == "pass"

    def test_lattice_warns_but_exits_zero(self, tmp_path, capsys):
        from matspec.ensemble import LinearEnsemble

        lattice = LinearEnsemble(1, np.array([[[2.0]], [[0.5]]]),
                                 np.array([0.5, 0.5]))
        cfg = write_config(tmp_path, lattice)
        assert main(["validate", "--config", str(cfg)]) == EXIT_OK
        err = capsys.readouterr().err
        assert "nonarithmetic" in err

    def test_unread_config_keys_warn_once(self, tmp_path, capsys):
        # a misspelled or retired key is named in one warning, in the
        # config's order, dotted within its section; status and exit code
        # stay those of the run without it
        cfg = write_config(tmp_path, kesten_1d(), grid_resolutoin=7, s_max_bound=2.0,
                           mc={"pathz": 3, "steps": 300}, options={"hill_k": 20, "n_window": 2})
        assert main(["validate", "--config", str(cfg)]) == EXIT_OK
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        message = ("config keys that nothing reads, ignored: mc.pathz, grid_resolutoin, "
                   "s_max_bound, options.n_window")
        assert manifest["warnings"] == [message]
        assert capsys.readouterr().err == f"warning: {message}\n"

    def test_malformed_matrix_exits_two(self, tmp_path):
        (tmp_path / "bad.json").write_text(json.dumps({
            "dimension": 2,
            "atoms": [{"matrix": [1.0, 0.0, 0.0], "weight": 1.0}],
        }))
        (tmp_path / "cfg.json").write_text(json.dumps({
            "ensemble": "bad.json", "seed": 1, "out": str(tmp_path / "o")}))
        assert main(["validate", "--config", str(tmp_path / "cfg.json")]) == EXIT_INVALID

    @pytest.mark.parametrize("extra", [
        {"s_grid": {"min": 0.0}}, {"mc": {"paths": "many"}}, {"options": [1]}, [1, 2],
    ], ids=["s_grid-key", "mc-value", "options-type", "not-an-object"])
    def test_malformed_config_value_exits_two(self, tmp_path, capsys, extra):
        # a value is caught when check() reads it, once load has read the
        # output directory, so the run leaves a manifest; a document that is
        # no object names no output directory, and leaves none
        if isinstance(extra, dict):
            cfg = write_config(tmp_path, kesten_1d(), **extra)
        else:  # the whole document
            cfg = write_config(tmp_path, kesten_1d())
            cfg.write_text(json.dumps(extra))
        assert main(["validate", "--config", str(cfg)]) == EXIT_INVALID
        assert "malformed config value" in capsys.readouterr().err
        manifest_path = tmp_path / "out" / "manifest.json"
        if isinstance(extra, dict):
            assert json.loads(manifest_path.read_text())["status"] == "invalid-input"
        else:
            assert not manifest_path.exists()

    def test_missing_seed_exits_two(self, tmp_path):
        save_ensemble(kesten_1d(), tmp_path / "e.json")
        (tmp_path / "cfg.json").write_text(json.dumps({
            "ensemble": "e.json", "out": str(tmp_path / "o")}))
        assert main(["validate", "--config", str(tmp_path / "cfg.json")]) == EXIT_INVALID

    def test_nonarithmetic_verdict_only_in_d1(self, tmp_path, capsys):
        # no atom of similarity_2d or rotations_2d has a real eigenvector to
        # seed the irreducibility check from
        for ensemble, irreducibility in [(ip_2d, "pass"), (similarity_2d, "inconclusive"),
                                         (rotations_2d, "inconclusive")]:
            cfg = write_config(tmp_path, ensemble())
            assert main(["validate", "--config", str(cfg)]) == EXIT_OK
            manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
            assert manifest["status"] == "ok"
            assert not any("nonarithmetic" in w for w in manifest["warnings"])
            report = json.loads((tmp_path / "out" / "validation_report.json").read_text())
            assert report["irreducibility"] == irreducibility
        lattice = LinearEnsemble(1, np.array([[[2.0]], [[0.5]]]), np.array([0.5, 0.5]))
        cfg = write_config(tmp_path, lattice)
        assert main(["validate", "--config", str(cfg)]) == EXIT_OK
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert "nonarithmetic: fail (log-lattice ensemble)" in manifest["warnings"]

    def test_report_is_strict_json_without_proximal_word(self, tmp_path):
        # no word of these ensembles has a real simple top eigenvalue
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        for ensemble in (similarity_2d, rotations_2d):
            cfg = write_config(tmp_path, ensemble())
            assert main(["validate", "--config", str(cfg)]) == EXIT_OK
            text = (tmp_path / "out" / "validation_report.json").read_text()
            report = json.loads(text, parse_constant=reject)
            assert report["proximality"] == "inconclusive"
            assert report["evidence"]["proximality"]["best_gap"] is None

    def test_unsupported_dimension_exits_two(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        e4 = LinearEnsemble(4, 0.5 * rng.standard_normal((2, 4, 4)),
                            np.array([0.5, 0.5]))
        cfg = write_config(tmp_path, e4)
        assert main(["spectrum", "--config", str(cfg)]) == EXIT_INVALID
        assert "unsupported dimension 4" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "invalid-input"

    def test_manifest_written_on_failure(self, tmp_path):
        # config values no command can run with are invalid input, and the
        # run still leaves a manifest that says so
        bad_values = [
            {"s_grid": {"min": 0.0, "max": 70.0, "count": 3}},
            {"s_grid": {"min": -0.5, "max": 1.0, "count": 3}},
            {"s_grid": {"min": 0.0, "max": 1.0, "count": 1}},
            {"mc": {"paths": 0, "steps": 300, "samples": 50_000}},
            {"s_grid": {"min": 1.0, "max": 1.0, "count": 3}},
            {"grid_resolution": "abc"},
        ]
        for extra in bad_values:
            cfg = write_config(tmp_path, kesten_1d(), **extra)
            manifest_path = tmp_path / "out" / "manifest.json"
            manifest_path.unlink(missing_ok=True)
            assert main(["spectrum", "--config", str(cfg)]) == EXIT_INVALID
            manifest = json.loads(manifest_path.read_text())
            assert manifest["status"] == "invalid-input", extra


# json reads NaN, Infinity and an overflowing 1e400 as floats: (command,
# file, path to the value in it, the JSON token put there)
NON_FINITE_INPUTS = [
    ("validate", "config", ("seed",), "Infinity"),
    ("validate", "config", ("seed",), "1e400"),
    ("renewal", "config", ("mc", "paths"), "Infinity"),
    ("spectrum", "config", ("s_grid", "max"), "NaN"),
    ("tails", "config", ("options", "moment_betas"), "[NaN]"),
    ("dualwalk", "config", ("options", "p0"), "NaN"),
    ("renewal", "config", ("options", "t_start"), "1e400"),
    ("spectrum", "ensemble", ("atoms", 0, "weight"), "NaN"),
    ("validate", "ensemble", ("atoms", 1, "matrix"), "[NaN]"),
    ("validate", "ensemble", ("atoms", 1, "matrix"), "[Infinity]"),
    ("tails", "ensemble", ("atoms", 1, "translation"), "[NaN]"),
]


@pytest.mark.parametrize("command,where,key,token", NON_FINITE_INPUTS,
                         ids=[f"{w}-{'.'.join(map(str, k))}-{t}"
                              for _, w, k, t in NON_FINITE_INPUTS])
def test_non_finite_input_is_invalid_input(tmp_path, capsys, command, where, key, token):
    cfg = write_config(tmp_path, kesten_affine_1d(), options={})  # a section for options
    path = cfg if where == "config" else tmp_path / "ens.json"
    doc = json.loads(path.read_text())
    node = doc
    for k in key[:-1]:
        node = node[k]
    node[key[-1]] = "@"
    path.write_text(json.dumps(doc).replace('"@"', token))
    assert main([command, "--config", str(cfg)]) == EXIT_INVALID
    err = capsys.readouterr().err
    manifest_path = tmp_path / "out" / "manifest.json"
    if key == ("seed",):  # read before there is a manifest
        assert "malformed config value" in err and not manifest_path.exists()
        return
    assert json.loads(manifest_path.read_text())["status"] == "invalid-input"
    if where == "ensemble":
        assert f"atom {key[1]}: {key[2]}" in err and "is not finite" in err
    else:
        assert "malformed config value" in err


BAD_OPTIONS = [
    ("spectrum", ip_2d, {"grid_resolution": 1}, "resolution must be >= 2 for d = 2"),
    ("cramer", affine_3d, {"grid_resolution": 3}, "resolution must be >= 4 for d = 3"),
    ("spectrum", ip_2d, {"options": {"rho_eps": 0}}, "rho_eps must lie in (0, 1]"),
    ("dualwalk", kesten_affine_1d, {"options": {"p0": 0}}, "p0 must be nonzero"),
    ("cramer", kesten_1d, {"options": {"t_grid": {"min": 0, "max": 100, "count": 3}}},
     "t_grid needs min, max > 0"),
    ("renewal", kesten_1d, {"options": {"n_windows": 0}}, "n_windows must be >= 1"),
    ("tails", kesten_affine_1d,
     {"mc": {"samples": 2000, "steps": 300, "paths": 4000}, "options": {"hill_k": 5000}},
     "hill_k must lie in [1, mc.samples / 2)"),
    ("cramer", kesten_1d, {"options": {"directions": -1}}, "directions must be >= 1"),
    ("tails", kesten_affine_1d, {"options": {"moment_betas": [-1]}},
     "moment_betas must be >= 0"),
    ("renewal", kesten_1d, {"options": {"annulus_width": -1}},
     "annulus_width must be > 0"),
    ("renewal", kesten_1d, {"options": {"t_start": 0}}, "t_start must be > 0"),
    ("tails", kesten_affine_1d, {"mc": {"samples": 15, "steps": 300, "paths": 4000}},
     "too small for the default Hill order 10"),
]


@pytest.mark.parametrize("command,ensemble,extra,message", BAD_OPTIONS,
                         ids=["resolution-d2", "resolution-d3", "rho_eps", "p0",
                              "t_grid", "n_windows", "hill_k", "directions",
                              "moment_betas", "annulus_width", "t_start",
                              "default-hill_k"])
def test_bad_numeric_option_is_invalid_input(tmp_path, capsys, command,
                                             ensemble, extra, message):
    cfg = write_config(tmp_path, ensemble(), **extra)
    assert main([command, "--config", str(cfg)]) == EXIT_INVALID
    assert message in capsys.readouterr().err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "invalid-input"


# every value is read by one rule, int() or float() of its JSON value, so a
# numeric string runs as its number: (command, ensemble, config with numbers,
# the same config with numeric strings)
SMALL_MC = {"mc": {"samples": 2000, "steps": 300, "paths": 300}}
NUMERIC_STRINGS = {
    "rho_eps": ("spectrum", ip_2d, {"grid_resolution": 32, "options": {"rho_eps": 0.5}},
                {"grid_resolution": 32, "options": {"rho_eps": "0.5"}}),
    "p0": ("dualwalk", kesten_affine_1d, {"options": {"p0": 1}}, {"options": {"p0": "1"}}),
    "t_grid": ("cramer", kesten_1d,
               {"options": {"t_grid": {"min": 10, "max": 100, "count": 3}, "directions": 1}},
               {"options": {"t_grid": {"min": "10", "max": "100", "count": 3},
                            "directions": 1}}),
    "n_windows": ("renewal", kesten_1d, {"options": {"n_windows": 2}},
                  {"options": {"n_windows": "2"}}),
    "annulus_width": ("renewal", kesten_1d, {"options": {"annulus_width": 0.5}},
                      {"options": {"annulus_width": "0.5"}}),
    "t_start": ("renewal", kesten_1d, {"options": {"t_start": 0.001}},
                {"options": {"t_start": "0.001"}}),
    "hill_k": ("tails", kesten_affine_1d, {"options": {"hill_k": 50}},
               {"options": {"hill_k": "50"}}),
    "directions": ("cramer", kesten_1d, {"options": {"directions": 1}},
                   {"options": {"directions": "1"}}),
    "moment_betas": ("tails", kesten_affine_1d, {"options": {"moment_betas": [0.5, 1]}},
                     {"options": {"moment_betas": ["0.5", "1"]}}),
    "grid_resolution": ("spectrum", ip_2d, {"grid_resolution": 32},
                        {"grid_resolution": "32"}),
    "mc.paths": ("renewal", kesten_1d, {"mc": {"samples": 2000, "steps": 300, "paths": 300}},
                 {"mc": {"samples": 2000, "steps": 300, "paths": "300"}}),
}


@pytest.mark.parametrize("command,ensemble,numbers,strings", NUMERIC_STRINGS.values(),
                         ids=NUMERIC_STRINGS.keys())
def test_numeric_string_option_reads_as_its_number(tmp_path, command, ensemble,
                                                   numbers, strings):
    outputs = []
    for extra in (numbers, strings):
        cfg = write_config(tmp_path, ensemble(), **{**SMALL_MC, **extra})
        assert main([command, "--config", str(cfg)]) == EXIT_OK
        out = tmp_path / "out"
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()
                        if p.name != "manifest.json"})
        for p in out.iterdir():
            p.unlink()
    assert outputs[0] == outputs[1] and outputs[0]


def test_empty_moment_betas_checks_no_moments(tmp_path):
    # None marks the default orders; an explicit empty list is no orders
    cfg = write_config(tmp_path, kesten_affine_1d(), **SMALL_MC,
                       options={"moment_betas": []})
    assert main(["tails", "--config", str(cfg)]) == EXIT_OK
    assert json.loads((tmp_path / "out" / "tail_report.json").read_text())["moments"] == []


MALFORMED_ENSEMBLES = {
    "missing-file": None,
    "dimension-not-integer": {"dimension": "abc",
                              "atoms": [{"matrix": [0.5], "weight": 1.0}]},
    "dimension-fractional": {"dimension": 1.7,
                             "atoms": [{"matrix": [0.5], "weight": 1.0}]},
    "atoms-not-a-list": {"dimension": 1, "atoms": 5},
}


@pytest.mark.parametrize("doc", MALFORMED_ENSEMBLES.values(),
                         ids=MALFORMED_ENSEMBLES.keys())
def test_malformed_ensemble_file_is_invalid_input(tmp_path, doc):
    if doc is not None:
        (tmp_path / "ens.json").write_text(json.dumps(doc))
    (tmp_path / "cfg.json").write_text(json.dumps({
        "ensemble": "ens.json", "seed": 1, "out": str(tmp_path / "o")}))
    assert main(["validate", "--config", str(tmp_path / "cfg.json")]) == EXIT_INVALID
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["status"] == "invalid-input"


def test_unexpected_value_error_is_not_a_hypothesis_violation(tmp_path, monkeypatch):
    # only the library's typed hypothesis errors exit 3; anything else
    # surfaces as itself, and the manifest records the failure
    def broken(*args, **kwargs):
        raise ValueError("a programming error")

    monkeypatch.setattr("matspec.spectrum.compute_curve", broken)
    cfg = write_config(tmp_path, kesten_1d())
    with pytest.raises(ValueError, match="a programming error"):
        main(["spectrum", "--config", str(cfg)])
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "failed"


def test_manifest_records_versions(tmp_path):
    cfg = write_config(tmp_path, kesten_1d())
    assert main(["validate", "--config", str(cfg)]) == EXIT_OK
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["versions"] == {"python": platform.python_version(),
                                    "numpy": np.__version__}


class TestSpectrumCommand:
    def test_kesten_scalars(self, tmp_path):
        cfg = write_config(tmp_path, kesten_1d())
        assert main(["spectrum", "--config", str(cfg)]) == EXIT_OK
        rows = (tmp_path / "out" / "spectral_scalars.csv").read_text().splitlines()
        scalars = dict(line.split(",") for line in rows[1:])
        assert abs(float(scalars["alpha"]) - 1.0) < 1e-8
        assert abs(float(scalars["L_mu_0"]) -
                   (0.4 * np.log(2) - 0.6 * np.log(3))) < 1e-12
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert any(o["file"] == "spectral_curve.csv" for o in manifest["outputs"])
        curve = (tmp_path / "out" / "spectral_curve.csv").read_text().splitlines()
        assert curve[0] == SPECTRAL_CURVE_HEADER

    def test_one_warning_per_route_gap(self, tmp_path, monkeypatch):
        # shift every tilted_mc exponent far outside its 3 sigma band: each
        # s then has one gap between the two routes, warned once
        tilted_mc = spectrum._tilted_mc

        def shifted(*args):
            return [(L + 1.0, se) for L, se in tilted_mc(*args)]

        monkeypatch.setattr(spectrum, "_tilted_mc", shifted)
        cfg = write_config(tmp_path, kesten_1d())
        assert main(["spectrum", "--config", str(cfg)]) == EXIT_OK
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        gaps = [w for w in manifest["warnings"] if "Lyapunov routes disagree" in w]
        assert gaps == [f"Lyapunov routes disagree beyond 3 sigma at s={s:g} "
                        "(tilted_mc vs quadrature)" for s in (0.0, 0.5, 1.0, 1.5)]

    def test_s_grid_beyond_bound_rejected(self, tmp_path):
        cfg = write_config(tmp_path, kesten_1d(),
                           s_grid={"min": 0.0, "max": 65.0, "count": 3})
        assert main(["spectrum", "--config", str(cfg)]) == EXIT_INVALID

    def test_tiny_positive_exponents_run(self, tmp_path):
        # the contraction exponent is min(rho_eps, s) at s > 0: a clamp at
        # 1e-6 exceeded s = 5e-7 and left the Holder range (0, s]
        cfg = write_config(tmp_path, ip_2d(), grid_resolution=64,
                           s_grid={"min": 0.0, "max": 1e-6, "count": 3})
        assert main(["spectrum", "--config", str(cfg)]) == EXIT_OK
        with (tmp_path / "out" / "spectral_curve.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["s"]) for r in rows] == [0.0, 5e-7, 1e-6]
        assert all(np.isfinite(float(r[c])) for r in rows for c in ("gap", "rho_eps"))


class TestTailsCommand:
    def test_zero_translation_rejected(self, tmp_path):
        doc = {
            "dimension": 1,
            "atoms": [
                {"matrix": [2.0], "translation": [0.0], "weight": 0.4},
                {"matrix": [0.3333333333333333], "translation": [0.0],
                 "weight": 0.6},
            ],
        }
        (tmp_path / "zero.json").write_text(json.dumps(doc))
        (tmp_path / "cfg.json").write_text(json.dumps({
            "ensemble": "zero.json", "seed": 5, "out": str(tmp_path / "o")}))
        assert main(["tails", "--config", str(tmp_path / "cfg.json")]) == EXIT_INVALID

    def test_linear_ensemble_rejected_for_tails(self, tmp_path):
        cfg = write_config(tmp_path, kesten_1d())
        assert main(["tails", "--config", str(cfg)]) == EXIT_INVALID

    def test_expanding_ensemble_hypothesis_violation(self, tmp_path):
        from matspec.ensemble import AffineEnsemble

        ae = AffineEnsemble(1, np.array([[[2.0]], [[1.5]]]),
                            np.array([[1.0], [2.0]]), np.array([0.5, 0.5]))
        cfg = write_config(tmp_path, ae)
        assert main(["tails", "--config", str(cfg)]) == EXIT_HYPOTHESIS

    def test_kesten_tails_report(self, tmp_path):
        cfg = write_config(tmp_path, kesten_affine_1d())
        assert main(["tails", "--config", str(cfg)]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "tail_report.json").read_text())
        lo, hi = report["alpha_hill_ci"]
        assert lo <= 1.0 <= hi
        assert report["case_label"] == "II''"
        meta = json.loads((tmp_path / "out" / "bank_meta.json").read_text())
        assert 0 < meta["row_steps"] <= meta["n_samples"] * meta["last_step"]
        assert meta["last_step"] <= 300  # mc.steps

    def test_byte_identical_rerun(self, tmp_path):
        cfg = write_config(tmp_path, kesten_affine_1d())
        assert main(["tails", "--config", str(cfg)]) == EXIT_OK
        first = {
            p.name: p.read_bytes()
            for p in (tmp_path / "out").iterdir() if p.suffix == ".csv"
        }
        assert main(["tails", "--config", str(cfg)]) == EXIT_OK
        second = {
            p.name: p.read_bytes()
            for p in (tmp_path / "out").iterdir() if p.suffix == ".csv"
        }
        assert first == second
        assert "bank.csv" in first

    def test_run_memory_is_bounded(self, tmp_path):
        # a d=2 run holds its bank (4000 x 2) and O(1) more: the tail-case
        # census (200 x 4096 states) keeps only its largest; the first run,
        # untraced, loads the modules
        cfg = write_config(tmp_path, ip_affine_2d(), seed=2301, grid_resolution=64,
                           mc={"samples": 4000, "steps": 1000, "paths": 200})
        assert main(["tails", "--config", str(cfg)]) == EXIT_OK
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            assert main(["tails", "--config", str(cfg)]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6

    def test_d3_fewer_directions_than_grid_minimum(self, tmp_path):
        # a d=3 grid needs 4 nodes; 2 probe directions must still run
        cfg = write_config(
            tmp_path, affine_3d(), grid_resolution=64,
            mc={"samples": 2000, "steps": 600, "paths": 200},
            options={"directions": 2},
        )
        assert main(["tails", "--config", str(cfg)]) == EXIT_OK
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        rows = (tmp_path / "out" / "tail_tables.csv").read_text().splitlines()[1:]
        assert len({r.rsplit(",", 3)[0] for r in rows}) == 2


class TestRenewalCommand:
    def test_deterministic_expanding(self, tmp_path):
        cfg = write_config(tmp_path, expanding_1d_deterministic(),
                           mc={"samples": 1000, "steps": 300, "paths": 300})
        assert main(["renewal", "--config", str(cfg)]) == EXIT_OK
        body = (tmp_path / "out" / "renewal_report.csv").read_text().splitlines()
        first = body[1].split(",")
        assert float(first[1]) == 1.0  # measured
        assert float(first[2]) == 1.0  # predicted

    def test_contracting_runs_tilted_profile(self, tmp_path):
        cfg = write_config(tmp_path, kesten_1d(),
                           mc={"samples": 1000, "steps": 300, "paths": 3000})
        assert main(["renewal", "--config", str(cfg)]) == EXIT_OK
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["regime"] == "contracting-tilted"

    @pytest.mark.parametrize("ensemble,regime", [
        (expanding_1d_arithmetic(), "expanding"),
        # atoms 2 and 1/4 on the lattice 2^Z: L < 0, and k(alpha) = 1 at
        # 2^alpha = the golden ratio
        (LinearEnsemble(1, np.array([[[2.0]], [[0.25]]]), np.array([0.5, 0.5])),
         "contracting-tilted"),
    ], ids=["expanding", "contracting"])
    def test_arithmetic_walk_warns(self, tmp_path, ensemble, regime):
        cfg = write_config(tmp_path, ensemble, grid_resolution=8,
                           mc={"samples": 1000, "steps": 300, "paths": 2000})
        assert main(["renewal", "--config", str(cfg)]) == EXIT_OK
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["regime"] == regime
        assert ("arithmetic log-lattice: pointwise renewal limit not guaranteed; "
                "mean-level comparison only") in manifest["warnings"]

    def test_no_tail_root_is_hypothesis_violation(self, tmp_path):
        from matspec.ensemble import LinearEnsemble

        shrink = LinearEnsemble(1, np.array([[[0.9]], [[0.5]]]),
                                np.array([0.5, 0.5]))
        cfg = write_config(tmp_path, shrink)
        assert main(["renewal", "--config", str(cfg)]) == EXIT_HYPOTHESIS


class TestCramerDualwalkCommands:
    def test_cramer_kesten(self, tmp_path):
        cfg = write_config(
            tmp_path, kesten_1d(),
            mc={"samples": 1000, "steps": 300, "paths": 5000},
            options={"t_grid": {"min": 10, "max": 100, "count": 3},
                     "directions": 1},
        )
        assert main(["cramer", "--config", str(cfg)]) == EXIT_OK
        body = (tmp_path / "out" / "cramer_table.csv").read_text().splitlines()
        assert body[0].split(",") == ["direction", "t", "method", "estimate",
                                      "stderr", "hits", "flag"]
        assert len(body) == 1 + 2 * 3  # tilted + naive rows per t

    def test_cramer_d3(self, tmp_path):
        cfg = write_config(
            tmp_path, affine_3d(), grid_resolution=64,
            mc={"samples": 1000, "steps": 100, "paths": 200},
            options={"t_grid": {"min": 10, "max": 100, "count": 2},
                     "directions": 2},
        )
        assert main(["cramer", "--config", str(cfg)]) == EXIT_OK
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        body = (tmp_path / "out" / "cramer_table.csv").read_text().splitlines()
        assert len(body) == 1 + 2 * 2 * 2  # directions x (tilted + naive) x t

    def test_dualwalk_kesten(self, tmp_path):
        cfg = write_config(
            tmp_path, kesten_affine_1d(),
            mc={"samples": 1000, "steps": 200, "paths": 1000},
        )
        assert main(["dualwalk", "--config", str(cfg)]) == EXIT_OK
        rows = (tmp_path / "out" / "dualwalk_report.csv").read_text().splitlines()
        vals = dict(line.split(",") for line in rows[1:])
        assert vals["tau_finite"] == "1000"
        assert vals["sign_preserved"] == "true"

    @pytest.mark.parametrize("p0", [1.0, -1.0])
    def test_dualwalk_warns_without_ladder_epochs(self, tmp_path, p0):
        # from p0 = -1 no start reaches a ladder epoch: the ladder rows are
        # nan, and the run says so
        cfg = write_config(
            tmp_path, kesten_affine_1d(), seed=2301,
            mc={"samples": 1000, "steps": 200, "paths": 1000},
            options={"p0": p0},
        )
        assert main(["dualwalk", "--config", str(cfg)]) == EXIT_OK
        rows = (tmp_path / "out" / "dualwalk_report.csv").read_text().splitlines()
        vals = dict(line.split(",") for line in rows[1:])
        warnings = json.loads((tmp_path / "out" / "manifest.json").read_text())["warnings"]
        warned = "no start reached a ladder epoch within 200 steps" in warnings
        assert warned == (p0 < 0) == (vals["tau_finite"] == "0")


def test_dualwalk_start_side_ignores_the_centre_sign(tmp_path, monkeypatch):
    # the cone walk's draws fix the sign of the transposed attractor's
    # centre; the dual walk starts on the side the translations charge
    # either way, where every start reaches a ladder epoch
    cfg = write_config(tmp_path, ip_affine_2d(), grid_resolution=64,
                       mc={"samples": 1000, "steps": 100, "paths": 200})
    classify = cli.classify_cone_case
    reports = []
    for sign in (1.0, -1.0):
        def signed(e, seed=0, sign=sign):
            case, ev = classify(e, seed=seed)
            return case, {**ev, "attractor_center": [sign * c for c in ev["attractor_center"]]}

        monkeypatch.setattr(cli, "classify_cone_case", signed)
        assert main(["dualwalk", "--config", str(cfg)]) == EXIT_OK
        reports.append((tmp_path / "out" / "dualwalk_report.csv").read_text())
    assert reports[0] == reports[1]
    assert "tau_finite,200\n" in reports[0]


# the d=3 probe directions, and so the direction keys, of the Fibonacci
# lattice that once was the d=3 grid: (projective, n) -> points
FIBONACCI_PROBES = {
    (False, 2): [
        [0.6614378277661477, 0.0, 0.75],
        [-0.713954346202245, 0.6540406650499073, 0.25],
    ],
    (False, 4): [
        [0.6614378277661477, 0.0, 0.75],
        [-0.713954346202245, 0.6540406650499073, 0.25],
        [0.08464959396472493, -0.9645384628108966, -0.25],
        [0.402444478534368, 0.5249175570479622, -0.75],
    ],
    (False, 8): [
        [0.4841229182759271, 0.0, 0.875],
        [-0.5756083959600474, 0.5273044419500952, 0.625],
        [0.08104581592239497, -0.923475270768781, 0.375],
        [0.603666717801552, 0.7873763355719433, 0.125],
        [-0.9769901230486043, -0.17281579634244426, -0.12500000000000003],
        [0.7821820926083319, -0.497560221483642, -0.375],
        [-0.20265354556067544, 0.753861088312487, -0.625],
        [-0.22313565385811115, -0.42963412338560025, -0.875],
    ],
    (True, 2): [
        [0.9921567416492215, 0.0, 0.125],
        [-0.6835592447544827, 0.6261962622937647, 0.375],
    ],
    (True, 4): [
        [0.9921567416492215, 0.0, 0.125],
        [-0.6835592447544827, 0.6261962622937647, 0.375],
        [0.06824668448324298, -0.7776357695329124, 0.625],
        [0.29455919696956806, 0.3842003116613041, 0.875],
    ],
    (True, 8): [
        [0.9980449639169571, 0.0, 0.06250000000000001],
        [-0.7242913481750212, 0.6635102056176758, 0.1875],
        [0.08304724855438057, -0.9462805633148907, 0.3125],
        [0.5471194255295465, 0.7136204062442574, 0.4375],
        [-0.8141584358738368, -0.1440131636187035, 0.5625],
        [0.6127219134530145, -0.38976352673701614, 0.6875000000000001],
        [-0.15133923472686417, 0.5629744097490463, 0.8125],
        [-0.16038885667356956, -0.30881898363757554, 0.9375],
    ],
}


@pytest.mark.parametrize("projective,n", FIBONACCI_PROBES)
def test_d3_probe_directions_unchanged(projective, n):
    got = _probe_directions(3, n, projective)
    assert np.array_equal(got, np.array(FIBONACCI_PROBES[projective, n]))


def test_direction_keys_carry_no_round_off():
    keys = [cli._direction_key(u) for u in _probe_directions(2, 8, projective=False)]
    assert keys == ["1 0", "0.707107 0.707107", "0 1", "-0.707107 0.707107",
                    "-1 0", "-0.707107 -0.707107", "0 -1", "0.707107 -0.707107"]
    assert cli._direction_key(np.array([-0.0, -1e-17, 1e-12])) == "0 0 1e-12"
    projective = [cli._direction_key(u) for u in _probe_directions(2, 16, projective=True)]
    assert "0 1" in projective and not [k for k in projective if "e-" in k]


# every float the bank can hold, as the row path formats them
CSV_SPECIALS = [0.0, -0.0, 5e-324, 1e-300, 1e300, np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("cols", [1, 2, 3])
def test_write_csv_array_path_matches_row_path(tmp_path, cols):
    rng = np.random.default_rng(cols)
    n = 2 * cli._CSV_BLOCK + 37  # a partial last block
    values = rng.standard_cauchy(n * cols) * 10.0 ** rng.integers(-290, 290, n * cols)
    values[: len(CSV_SPECIALS)] = CSV_SPECIALS
    values[-len(CSV_SPECIALS) :] = CSV_SPECIALS
    rows = values.reshape(n, cols)
    header = [f"x{i}" for i in range(cols)]
    cli.write_csv(tmp_path / "array.csv", header, rows)
    cli.write_csv(tmp_path / "rows.csv", header, rows.tolist())
    assert (tmp_path / "array.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("ensemble,resolution", [(ip_2d, 64), (affine_3d, 32)],
                         ids=["d2", "d3"])
def test_spectrum_tables_match_row_path(tmp_path, monkeypatch, ensemble, resolution):
    # spectral_points.csv and grid.csv go out as float arrays; written by the
    # row path, with node_index as int, the same values give the same bytes
    written = {}
    write_csv = cli.write_csv

    def record(path, header, rows):
        written[path.name] = (header, rows)
        write_csv(path, header, rows)

    monkeypatch.setattr(cli, "write_csv", record)
    cfg = write_config(tmp_path, ensemble(), grid_resolution=resolution,
                       s_grid={"min": 0.0, "max": 1.0, "count": 2},
                       mc={"samples": 1000, "steps": 100, "paths": 100})
    assert main(["spectrum", "--config", str(cfg)]) == EXIT_OK
    for name, index_col in (("spectral_points.csv", 1), ("grid.csv", 0)):
        header, rows = written[name]
        assert isinstance(rows, np.ndarray) and rows.dtype.kind == "f"
        as_rows = [[int(v) if i == index_col else v for i, v in enumerate(row)]
                   for row in rows.tolist()]
        write_csv(tmp_path / "rows.csv", header, as_rows)
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("command,table", [("tails", "tail_tables.csv"),
                                           ("cramer", "cramer_table.csv")])
def test_direction_key_is_one_csv_field(tmp_path, command, table):
    # a d=3 key has three components, joined by spaces in one field
    cfg = write_config(
        tmp_path, affine_3d(), grid_resolution=64,
        mc={"samples": 2000, "steps": 600, "paths": 200},
        options={"directions": 2, "t_grid": {"min": 10, "max": 100, "count": 2}},
    )
    assert main([command, "--config", str(cfg)]) == EXIT_OK
    with open(tmp_path / "out" / table, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert rows and all(len(r) == len(header) for r in rows)
    assert all(len(r[0].split(" ")) == 3 for r in rows)


@pytest.mark.parametrize("command", ["spectrum", "renewal", "cramer", "dualwalk"])
def test_run_paths_solve_no_finite_difference_exponents(tmp_path, monkeypatch, command):
    # L comes from k'(s)/k(s) at the solved points: no difference step of
    # log k is ever solved, near 0 or next to a point of the s-grid
    solved = []
    solve = transfer.power_iterate

    def recording_solve(op, s, *args, **kwargs):
        solved.append(s)
        return solve(op, s, *args, **kwargs)

    monkeypatch.setattr(transfer, "power_iterate", recording_solve)
    cfg = write_config(
        tmp_path, ip_affine_2d(), grid_resolution=64,
        mc={"samples": 2000, "steps": 100, "paths": 200},
        options={"directions": 1, "t_grid": {"min": 10, "max": 100, "count": 2}},
    )
    assert main([command, "--config", str(cfg)]) == EXIT_OK
    assert 0.0 in solved
    assert not [s for s in solved if 0.0 < s < 0.002]
    s_grid = np.linspace(0.0, 1.5, 4)[1:]  # write_config's s-grid
    assert not [s for s in solved if 0.0 < np.min(np.abs(s_grid - s)) < 2e-3]


@pytest.mark.parametrize("command", ["spectrum", "cramer", "dualwalk"])
def test_unconverged_solve_exits_one(tmp_path, monkeypatch, command):
    # any eigen-solve of the run, not only a spectrum curve point, makes
    # the run non-converged: here the first solve is marked so
    solve = transfer.power_iterate
    solved = []

    def first_unconverged(*args, **kwargs):
        solved.append(solve(*args, **kwargs))
        return dataclasses.replace(solved[-1], converged=len(solved) > 1)

    monkeypatch.setattr(transfer, "power_iterate", first_unconverged)
    cfg = write_config(tmp_path, kesten_affine_1d(),
                       mc={"samples": 1000, "steps": 200, "paths": 500},
                       options={"t_grid": {"min": 10, "max": 100, "count": 2}})
    assert main([command, "--config", str(cfg)]) == EXIT_NONCONVERGED
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "non-converged"
    assert [w for w in manifest["warnings"] if "did not converge" in w] == [
        f"the eigen-solve did not converge at s = {solved[0].s:g}"]


def test_spectrum_scalars_are_the_solver_exponents(tmp_path, monkeypatch):
    runs = []
    make = cli._solver

    def recording_solver(*args):
        runs.append(make(*args))
        return runs[-1]

    monkeypatch.setattr(cli, "_solver", recording_solver)
    cfg = write_config(tmp_path, ip_2d(), grid_resolution=96,
                       s_grid={"min": 0.0, "max": 1.5, "count": 3})
    assert main(["spectrum", "--config", str(cfg)]) == EXIT_OK
    rows = (tmp_path / "out" / "spectral_scalars.csv").read_text().splitlines()
    scalars = {name: float(value) for name, value in (r.split(",") for r in rows[1:])}
    (ks,) = runs
    alpha = scalars["alpha"]
    assert scalars["L_mu_0"] == ks.k_prime(0.0) / ks.k(0.0)
    assert scalars["L_mu_alpha"] == ks.k_prime(alpha) / ks.k(alpha)


class TestD2Spectrum:
    def test_ip_spectrum_outputs(self, tmp_path):
        cfg = write_config(tmp_path, ip_2d(),
                           s_grid={"min": 0.0, "max": 1.5, "count": 3},
                           grid_resolution=96,
                           mc={"samples": 1000, "steps": 100, "paths": 1000})
        assert main(["spectrum", "--config", str(cfg)]) == EXIT_OK
        out = tmp_path / "out"
        assert (out / "grid.csv").exists()
        header = (out / "grid.csv").read_text().splitlines()[0]
        assert header == "node_index,x0,x1,quadrature_weight"
        blk = (out / "spectral_point_scalars.csv").read_text().splitlines()
        assert blk[0].startswith("s,k,p,residual_e,residual_nu")
        assert len(blk) == 4  # header + 3 exponents
        curve = (out / "spectral_curve.csv").read_text().splitlines()
        assert curve[0] == SPECTRAL_CURVE_HEADER
        assert len(curve) == 4

    def test_pairing_residual_column(self, tmp_path):
        # on the default 512-node grid the pairing identity holds to a few
        # 1e-4 on ip_2d; the error grows as the grid coarsens
        cfg = write_config(tmp_path, ip_2d(),
                           s_grid={"min": 0.0, "max": 1.5, "count": 3},
                           mc={"samples": 1000, "steps": 100, "paths": 1000})
        assert main(["spectrum", "--config", str(cfg)]) == EXIT_OK
        blk = (tmp_path / "out" / "spectral_point_scalars.csv").read_text().splitlines()
        assert blk[0].endswith(",residual_p")
        residuals = np.array([float(row.split(",")[-1]) for row in blk[1:]])
        assert len(residuals) == 3
        assert np.all(np.isfinite(residuals)) and np.all(residuals < 1e-3)

    def test_point_scalars_report_converged_solves(self, tmp_path):
        cfg = write_config(tmp_path, ip_2d(),
                           s_grid={"min": 0.0, "max": 2.0, "count": 3},
                           grid_resolution=128,
                           mc={"samples": 1000, "steps": 100, "paths": 1000})
        assert main(["spectrum", "--config", str(cfg)]) == EXIT_OK
        with open(tmp_path / "out" / "spectral_point_scalars.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["s"]) for r in rows] == [0.0, 1.0, 2.0]
        for r in rows:
            assert float(r["residual_e"]) < TOL and float(r["residual_nu"]) < TOL
            assert int(r["iterations"]) > 0
        assert float(rows[0]["k"]) == 1.0

    def test_diagnostic_columns_are_the_library_calls(self, tmp_path):
        cfg = write_config(tmp_path, ip_2d(), grid_resolution=64,
                           s_grid={"min": 0.0, "max": 1.5, "count": 3},
                           options={"rho_eps": 0.5})
        assert main(["spectrum", "--config", str(cfg)]) == EXIT_OK
        with open(tmp_path / "out" / "spectral_curve.csv") as fh:
            rows = list(csv.DictReader(fh))
        # the run solves the curve's points in s order, as these calls do, so
        # each e^s comes from the same warm start
        ks = KSolver(ip_2d(), build_grid(2, 64, PROJECTIVE))
        for r in rows:
            s = float(r["s"])
            gap, _ = spectrum.lyapunov_gap(ks, s, seed=99, n_pairs=8, n_paths=32)
            rho = spectrum.contraction_rate(ks, s, eps=min(0.5, s) if s > 0 else 0.5,
                                            seed=99)
            assert (r["gap"], r["rho_eps"]) == ("%.17g" % gap, "%.17g" % rho)


# Every command in d = 1, 2, 3, less the pairs a test above already runs to
# exit 0: all of d = 1, validate and spectrum in d = 2 (TestValidateCommand,
# TestD2Spectrum), and tails and cramer in d = 3.
MATRIX_INPUTS = {
    2: (ip_affine_2d, {"grid_resolution": 64}),
    3: (affine_3d, {"grid_resolution": 32}),
}
MATRIX = [
    ("validate", 3), ("spectrum", 3), ("tails", 2), ("renewal", 2),
    ("renewal", 3), ("cramer", 2), ("dualwalk", 2), ("dualwalk", 3),
]


@pytest.mark.parametrize("command,d", MATRIX, ids=[f"{c}-d{d}" for c, d in MATRIX])
def test_command_matrix(tmp_path, command, d):
    # tails needs steps >= 1000: the ip_affine_2d bank converges in about
    # 650 backward steps and exits 1 when it has not
    ensemble, grid = MATRIX_INPUTS[d]
    cfg = write_config(
        tmp_path, ensemble(), **grid,
        s_grid={"min": 0.0, "max": 1.0, "count": 2},
        mc={"samples": 2000, "steps": 1000 if command == "tails" else 100,
            "paths": 200},
        options={"directions": 1, "t_grid": {"min": 10, "max": 100, "count": 2}},
    )
    assert main([command, "--config", str(cfg)]) == EXIT_OK
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    if command == "spectrum":
        curve = (tmp_path / "out" / "spectral_curve.csv").read_text().splitlines()
        assert curve[0] == SPECTRAL_CURVE_HEADER

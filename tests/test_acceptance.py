"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion (the suite prints them; -s disables capture).
"""

import time

import numpy as np
import pytest

from conftest import finite_diff_L, k_mc_oracle
from matspec.ensemble import transpose
from matspec.ensembles import (
    expanding_1d_deterministic,
    ip_2d,
    kesten_1d,
    kesten_affine_1d,
    kesten_symmetric_affine_1d,
    similarity_2d,
)
from matspec.projective import build_grid, interp_stencil
from matspec.recursion import (
    empirical_tail,
    hill_estimator,
    mellin_profile,
    sample_stationary,
)
from matspec.renewal import (
    AnnulusFunction,
    cramer_constant,
    dual_walk_simulate,
    tilted_potential_profile,
)
from matspec.spectrum import (
    KSolver,
    lyapunov,
    lyapunov_gap,
    solve_alpha,
)
from matspec.transfer import TOL, TransferOperator

L0_KESTEN = 0.4 * np.log(2.0) - 0.6 * np.log(3.0)
KP1_KESTEN = 0.4 * 2.0 * np.log(2.0) - 0.2 * np.log(3.0)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def ip512():
    e = ip_2d()
    solver = KSolver(e, build_grid(2, 512, "projective"))
    alpha = solve_alpha(solver)
    return e, solver, alpha


@pytest.fixture(scope="module")
def big_bank():
    return sample_stationary(kesten_affine_1d(), 400, 1_000_000, seed=1234,
                             n_workers=2)


def test_criterion_1_d1_reference_closed_form():
    t0 = time.perf_counter()
    e = kesten_1d()
    alpha = solve_alpha(e)
    L0, _ = lyapunov(KSolver(e), 0.0, "quadrature")
    La, _ = lyapunov(KSolver(e), alpha, "quadrature")
    k_alpha = 0.4 * 2.0**alpha + 0.6 * 3.0**-alpha
    elapsed = time.perf_counter() - t0
    ok_alpha = abs(alpha - 1.0) <= 1e-8 and abs(k_alpha - 1.0) <= 1e-12
    ok_L0 = abs(L0 - L0_KESTEN) <= 1e-12
    ok_La = abs(La * k_alpha - KP1_KESTEN) <= 1e-10
    ok_value = abs(KP1_KESTEN - 0.3348) < 5e-5
    ok_time = elapsed < 1.0
    ok = ok_alpha and ok_L0 and ok_La and ok_value and ok_time
    report(1, ok, f"alpha={alpha:.12f}, L(0) err={abs(L0 - L0_KESTEN):.2e}, "
                  f"k'(1) err={abs(La * k_alpha - KP1_KESTEN):.2e}, "
                  f"{elapsed:.2f}s")
    assert ok_alpha and ok_L0 and ok_La and ok_value
    assert ok_time


def test_criterion_2_similarity_grid_matches_mellin():
    e = similarity_2d()
    grid = build_grid(2, 512, "projective")
    worst_k = 0.0
    worst_e = 0.0
    for s in (0.0, 0.5, 1.0, 1.5, 2.0):
        sp = KSolver(e, grid).point(s)
        exact = 0.4 * 2.0**s + 0.6 * (1.0 / 3.0) ** s
        worst_k = max(worst_k, abs(sp.k - exact) / exact)
        span = (sp.e.values.max() - sp.e.values.min()) / sp.e.values.mean()
        worst_e = max(worst_e, span)
    ok = worst_k <= 1e-3 and worst_e <= 1e-4
    report(2, ok, f"max k rel err={worst_k:.2e} (<=1e-3), "
                  f"max e^s span={worst_e:.2e} (<=1e-4)")
    assert worst_k <= 1e-3
    assert worst_e <= 1e-4


def test_criterion_3_ip_oracle_and_lyapunov(ip512):
    t0 = time.perf_counter()
    e, solver, alpha = ip512
    oracle_ok = True
    details = []
    for s in (0.0, alpha / 2, alpha):
        k_grid = solver.k(s)
        k_hat, se = k_mc_oracle(e, s, n=30, n_samples=100_000, seed=777)
        budget = 2.0 * (se + 0.02 * k_grid)
        oracle_ok &= abs(k_grid - k_hat) <= budget
        details.append(f"s={s:.3f}: |dk|={abs(k_grid - k_hat):.4f}<={budget:.4f}")
    Lfd = finite_diff_L(solver, alpha)
    Lq, _ = lyapunov(solver, alpha, "quadrature")
    Lmc, se_mc = lyapunov(solver, alpha, "tilted_mc", seed=778, n_chains=64,
                          n_steps=4000)
    pair_budget = max(0.05 * abs(Lfd), 0.01)
    routes_ok = (
        abs(Lfd - Lq) <= pair_budget
        and abs(Lfd - Lmc) <= pair_budget + 3 * se_mc
        and abs(Lq - Lmc) <= pair_budget + 3 * se_mc
    )
    gap, gap_se = lyapunov_gap(solver, alpha, n=40, n_pairs=24, n_paths=64,
                               seed=779)
    gap_ok = gap + 3 * gap_se < 0
    elapsed = time.perf_counter() - t0
    time_ok = elapsed < 300.0
    ok = oracle_ok and routes_ok and gap_ok and time_ok
    report(3, ok, f"{'; '.join(details)}; routes fd={Lfd:.4f} q={Lq:.4f} "
                  f"mc={Lmc:.4f}+-{se_mc:.4f}; gap={gap:.3f}+-{gap_se:.3f}; "
                  f"{elapsed:.0f}s (<300)")
    assert oracle_ok and routes_ok and gap_ok
    assert time_ok


def test_criterion_4_affine_d1_tails(big_bank):
    t0 = time.perf_counter()
    a_hat, ci = hill_estimator(big_bank.norms(), k_order=10_000)
    hill_ok = 0.85 <= ci[0] and ci[1] <= 1.15 and ci[0] <= 1.0 <= ci[1]
    et = empirical_tail(big_bank, np.array([1.0]), alpha=1.0)
    plateau_ok = et["ci"][0] > 0.0
    mp = mellin_profile(big_bank, np.array([1.0]), alpha=1.0)
    combined_ci = (et["ci"][1] - et["ci"][0]) / 2 + 1.96 * mp["c_se"]
    mellin_ok = abs(mp["c_estimate"] - et["plateau"]) <= (
        0.2 * et["plateau"] + combined_ci
    )
    elapsed = time.perf_counter() - t0
    time_ok = elapsed < 120.0
    ok = hill_ok and plateau_ok and mellin_ok and time_ok
    report(4, ok, f"hill={a_hat:.4f} CI=({ci[0]:.4f},{ci[1]:.4f}); "
                  f"C(+1)={et['plateau']:.3f} CI=({et['ci'][0]:.3f},"
                  f"{et['ci'][1]:.3f}); mellin={mp['c_estimate']:.3f}; "
                  f"{elapsed:.0f}s (<120)")
    assert hill_ok and plateau_ok and mellin_ok
    assert time_ok


def test_criterion_5_cramer_suite(ip512):
    t0 = time.perf_counter()
    _, solver, alpha = ip512
    sp = solver.point(alpha)
    # naive/tilted agreement on overlapping t (one probe direction)
    u0 = np.array([1.0, 0.0])
    t_small = np.geomspace(10.0, 300.0, 5)
    naive = cramer_constant(solver, alpha, u0, t_small, 200_000, seed=900,
                            method="naive")
    tilted_small = cramer_constant(solver, alpha, u0, t_small, 40_000, seed=901,
                                   method="tilted")
    agree_ok = True
    for rn, rt in zip(naive, tilted_small):
        if rn["flag"] == "starved":
            continue
        combined = 1.96 * (rn["stderr"] + rt["stderr"])
        agree_ok &= abs(rn["estimate"] - rt["estimate"]) <= combined
    # proportionality over 16 directions, ~1e6 effective paths total
    t_big = np.geomspace(100.0, 10_000.0, 9)
    ratios = []
    for j, th in enumerate(np.linspace(0.0, np.pi, 16, endpoint=False)):
        u = np.array([np.cos(th), np.sin(th)])
        rows = cramer_constant(solver, alpha, u, t_big, 60_000, seed=910 + j,
                               method="tilted")
        top = [r for r in rows if r["t"] >= t_big[-1] / 10.0]
        w = np.array([1.0 / r["stderr"] ** 2 for r in top])
        a_u = float(np.sum([r["estimate"] * wi for r, wi in zip(top, w)]) / w.sum())
        idx, wt = interp_stencil(sp.e.grid, u[None, :])
        e_u = float(np.sum(sp.e.values[idx] * wt))
        ratios.append(a_u / e_u)
    ratios = np.array(ratios)
    cv = float(ratios.std(ddof=1) / ratios.mean())
    cv_ok = cv <= 0.25
    elapsed = time.perf_counter() - t0
    time_ok = elapsed < 600.0
    ok = agree_ok and cv_ok and time_ok
    report(5, ok, f"naive/tilted overlap ok={agree_ok}; CV(A/e)={cv:.4f} "
                  f"(<=0.25); {elapsed:.0f}s (<600)")
    assert agree_ok and cv_ok
    assert time_ok


def test_criterion_6_expanding_renewal_exact():
    ks = KSolver(expanding_1d_deterministic())
    f = AnnulusFunction("one-octave", 0.0, np.log(2.0))
    # the expanding walk is the potential profile at exponent 0
    rep = tilted_potential_profile(ks, 0.0, np.array([1.0]), 1e-4, [f], n_paths=512, seed=42)
    row = rep.rows[0]
    exact = (
        row["measured"] == 1.0
        and row["stderr"] == 0.0
        and abs(row["predicted"] - 1.0) < 1e-12
    )
    report(6, exact, f"visits per path = {row['measured']} (exactly 1), "
                     f"prediction = {row['predicted']}")
    assert exact


def test_criterion_7_property_suites(ip512, big_bank):
    e, solver, alpha = ip512
    failures = []

    def check(name, cond):
        if not cond:
            failures.append(name)

    # k(0) = 1 for every shipped ensemble
    grid1 = build_grid(1, 1, "projective")
    check("k0-kesten", KSolver(kesten_1d(), grid1).point(0.0).k == 1.0)
    check("k0-ip", solver.k(0.0) == 1.0)
    grid128 = build_grid(2, 128, "projective")
    check("k0-similarity",
          KSolver(similarity_2d(), grid128).point(0.0).k == 1.0)
    # discrete log-convexity of k
    s_vals = np.linspace(0.1, 2.0, 14)
    logk = np.log([solver.k(s) for s in s_vals])
    check("log-convexity", np.all(np.diff(logk, 2) >= -1e-8))
    # k(mu) = k(mu*)
    for s in (0.5, alpha):
        k1 = solver.k(s)
        k2 = KSolver(transpose(e), solver.grid).point(s).k
        check(f"transpose-k-{s:.2f}", abs(k1 - k2) <= 2e-8)
    # cocycle additivity at 1e-10 on random triples
    rng = np.random.default_rng(5)
    coc_ok = True
    for _ in range(50):
        g1 = e.matrices[rng.integers(0, 2)]
        g2 = e.matrices[rng.integers(0, 2)]
        x = rng.standard_normal(2)
        x /= np.linalg.norm(x)
        y = g1 @ x
        ln1 = np.log(np.linalg.norm(y))
        ln2 = np.log(np.linalg.norm(g2 @ (y / np.linalg.norm(y))))
        lntot = np.log(np.linalg.norm((g2 @ g1) @ x))
        coc_ok &= abs(lntot - (ln1 + ln2)) < 1e-10
    check("cocycle-additivity", coc_ok)
    # eigen-residual and normalization contracts
    sp = solver.point(alpha)
    P = TransferOperator(e, sp.e.grid).matrix(alpha)
    resid = np.max(np.abs(P @ sp.e.values - sp.k * sp.e.values))
    check("eigen-residual", resid <= 10 * TOL * sp.e.values.max())
    check("nu-e-normalization", abs(np.sum(sp.e.values * sp.nu.masses) - 1.0) < 1e-8)
    # case-I tail symmetry
    sym_bank = sample_stationary(kesten_symmetric_affine_1d(), 400, 400_000,
                                 seed=2222)
    plus = empirical_tail(sym_bank, np.array([1.0]), alpha=1.0)
    minus = empirical_tail(sym_bank, np.array([-1.0]), alpha=1.0)
    widths = (plus["ci"][1] - plus["ci"][0]) + (minus["ci"][1] - minus["ci"][0])
    check("case-I-symmetry",
          abs(plus["plateau"] - minus["plateau"]) <= widths)
    # dual-walk ladder sign preservation (exact)
    ks1 = KSolver(kesten_1d(), grid1)
    rec = dual_walk_simulate(kesten_affine_1d(), ks1, 1.0,
                             p0=1.0, u0=np.array([1.0]), n_starts=512,
                             n_steps=200, seed=31)
    check("ladder-sign", rec.sign_preserved)
    # seed determinism, bit for bit
    b1 = sample_stationary(kesten_affine_1d(), 300, 50_000, seed=91)
    b2 = sample_stationary(kesten_affine_1d(), 300, 50_000, seed=91)
    check("seed-determinism", np.array_equal(b1.samples, b2.samples))
    ok = not failures
    report(7, ok, "all property suites green" if ok
           else f"failing: {failures}")
    assert ok, failures


def test_criterion_8_dual_walk_identity():
    grid1 = build_grid(1, 1, "projective")
    ks1 = KSolver(kesten_1d(), grid1)
    rec = dual_walk_simulate(kesten_affine_1d(), ks1, 1.0,
                             p0=1.0, u0=np.array([1.0]), n_starts=10_000,
                             n_steps=300, seed=555)
    finite = int((rec.first_tau > 0).sum())
    finite_ok = finite == 10_000
    target = KP1_KESTEN * rec.mean_gap
    rate_ok = abs(rec.height_rate - target) <= 0.15 * target
    ok = finite_ok and rate_ok
    report(8, ok, f"tau finite {finite}/10000; height rate "
                  f"{rec.height_rate:.4f} vs L(alpha)*mean(tau)={target:.4f} "
                  f"(15% budget)")
    assert finite_ok
    assert rate_ok

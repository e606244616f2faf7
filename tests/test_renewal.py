import numpy as np
import pytest

from conftest import finite_diff_L
from matspec.cli import _probe_directions
from matspec.ensemble import AffineEnsemble, LinearEnsemble
from matspec.ensembles import (
    affine_3d,
    expanding_1d_arithmetic,
    expanding_1d_deterministic,
    ip_2d,
    ip_affine_2d,
    ip_shear_2d,
    ip_shear_affine_2d,
    kesten_1d,
    kesten_affine_1d,
)
from matspec.projective import build_grid
from matspec.renewal import (
    AnnulusFunction,
    cramer_constant,
    dual_walk_simulate,
    tilted_potential_profile,
)
from matspec import renewal, transfer
from matspec.rng import draw_atoms, stream
from matspec.spectrum import solve_alpha
from matspec.transfer import KSolver, TiltedChain


@pytest.fixture(scope="module")
def ks_kesten():
    """The solver of the d=1 Kesten walk, whose tail index is alpha = 1."""
    grid = build_grid(1, 1, "projective")
    return KSolver(kesten_affine_1d().linear_part, grid)


def inverse_atoms(lin):
    """lin's atoms inverted, at lin's weights: the inverse of a contracting
    walk expands."""
    return LinearEnsemble(lin.dimension, np.linalg.inv(lin.matrices), lin.weights.copy())


class TestExpandingProfile:
    """The expanding regime (L(0) > 0) is the potential profile at alpha = 0."""

    def test_deterministic_exactly_one_visit(self):
        ks = KSolver(expanding_1d_deterministic())
        f = AnnulusFunction("one-octave", 0.0, np.log(2.0))
        rep = tilted_potential_profile(ks, 0.0, np.array([1.0]), 1e-4, [f], n_paths=100,
                                       seed=1)
        assert rep.regime == "expanding" and not rep.caveats
        row = rep.rows[0]
        assert (row["measured"], row["predicted"], row["stderr"], row["flag"]) == (
            1.0, 1.0, 0.0, "")

    def test_arithmetic_mean_check(self):
        # L(0) = 0.2 log 2 by quadrature on the single d=1 node
        ks = KSolver(expanding_1d_arithmetic())
        f = AnnulusFunction("one-octave", 0.0, np.log(2.0))
        rep = tilted_potential_profile(ks, 0.0, np.array([1.0]), 1e-4, [f], n_paths=6000,
                                       seed=2)
        row = rep.rows[0]
        assert row["predicted"] == pytest.approx(5.0, abs=1e-12)
        assert abs(row["measured"] - 5.0) < max(4 * row["stderr"], 0.15)

    def test_contracting_rejected(self, ks_kesten):
        f = AnnulusFunction("one-octave", 0.0, np.log(2.0))
        with pytest.raises(ValueError, match="positive"):
            tilted_potential_profile(ks_kesten, 0.0, np.array([1.0]), 1e-4, [f],
                                     n_paths=10, seed=0)

    def test_d2_expanding_within_budget(self, ip):
        ks = KSolver(inverse_atoms(ip), build_grid(2, 128, "projective"))
        assert finite_diff_L(ks, 0.0) > 0
        fns = [AnnulusFunction("octave0", 0.0, np.log(2.0)),
               AnnulusFunction("octave1", np.log(2.0), 2 * np.log(2.0))]
        rep = tilted_potential_profile(ks, 0.0, np.eye(2)[0], 1e-4, fns, n_paths=4000,
                                       seed=3)
        for row in rep.rows:
            ratio = row["measured"] / row["predicted"]
            assert 0.8 <= ratio <= 1.25

    @pytest.mark.parametrize("d", [2, 3])
    def test_exponent_0_is_the_untilted_law(self, d):
        # at s = 0 every kernel column is the ensemble's weights (e^0 = 1 up
        # to the eigen-solve tolerance), and every path's likelihood ratio
        # against the untilted walk is 1
        lin = ip_2d() if d == 2 else affine_3d().linear_part
        e = inverse_atoms(lin)
        x0 = stream(12, 0).standard_normal((500, d))
        x0 /= np.linalg.norm(x0, axis=1, keepdims=True)
        chain = TiltedChain(KSolver(e, build_grid(d, 64, "projective")), [0.0], [x0])
        rng = stream(12, 1)
        for _ in range(20):
            probs = transfer.tilted_probs(e, chain, chain.x, chain.e_x)[0]
            assert np.abs(probs - e.weights[:, None]).max() <= 1e-9
            chain.step(rng.random(chain.ids.size))
            assert np.abs(np.exp(chain.log_lr()) - 1.0).max() <= 1e-9

    @pytest.mark.parametrize("regime", ["expanding", "contracting-tilted"])
    def test_paths_past_the_step_cap_are_flagged(self, ks_kesten, regime, monkeypatch):
        monkeypatch.setattr(renewal, "_MAX_STEPS", 3)
        ks, alpha = ((KSolver(expanding_1d_arithmetic()), 0.0) if regime == "expanding"
                     else (ks_kesten, 1.0))
        fns = [AnnulusFunction("unit-window", 0.0, np.log(2.0)),
               AnnulusFunction("next-window", np.log(2.0), 2 * np.log(2.0))]
        rep = tilted_potential_profile(ks, alpha, np.array([1.0]), 1e-4, fns, n_paths=50,
                                       seed=10)
        assert rep.regime == regime
        assert rep.caveats == ["50 paths had not left the window region after 3 steps"]
        assert [r["flag"] for r in rep.rows] == ["stuck-paths"] * 2


class TestCramer:
    def test_small_t_probability_one(self, ks_kesten):
        rows = cramer_constant(ks_kesten, 1.0, np.array([1.0]), [0.5], 2000,
                               seed=4, method="naive")
        # |S_0 u| = 1 > 0.5 already, so the exceedance probability is 1
        assert rows[0]["estimate"] == pytest.approx(0.5, abs=1e-12)

    def test_naive_tilted_consistency_d1(self, ks_kesten):
        tg = np.geomspace(10, 300, 4)
        naive = cramer_constant(ks_kesten, 1.0, np.array([1.0]), tg, 100_000,
                                seed=5, method="naive")
        tilted = cramer_constant(ks_kesten, 1.0, np.array([1.0]), tg, 20_000,
                                 seed=6, method="tilted")
        for rn, rt in zip(naive, tilted):
            combined = 1.96 * (rn["stderr"] + rt["stderr"])
            assert abs(rn["estimate"] - rt["estimate"]) <= combined + 1e-12

    def test_starved_flagging(self, ks_kesten):
        rows = cramer_constant(ks_kesten, 1.0, np.array([1.0]), [1e6], 500,
                               seed=7, method="naive")
        assert rows[0]["flag"] == "starved"

    @pytest.mark.parametrize("method, alpha", [
        ("naive", 0.0), ("naive", -1.0), ("naive", np.nan), ("tilted", 0.0),
        ("tilted", np.inf)])
    def test_alpha_must_be_finite_and_positive(self, ks_kesten, method, alpha):
        # the naive walk's retirement reads alpha: at alpha <= 0 it would
        # retire every path at its first step
        with pytest.raises(ValueError, match="alpha"):
            cramer_constant(ks_kesten, alpha, np.array([1.0]), [10.0], 100,
                            seed=4, method=method)

    # the t >= 1 rows of test_start_crosses_the_thresholds_below_one, as
    # repr of estimate and stderr, and hits; the walks gave them before
    # either counted the start, and a threshold below 1 must not move them
    START_RULE_ROWS = {
        ("kesten_1d", "naive"): [("0.542", "0.011140825822173147", 1084),
                                 ("0.578", "0.020272099052638826", 578)],
        ("kesten_1d", "tilted"): [("0.548546028137207", "0.002267181555376873", 2000),
                                  ("0.5829384494423866", "0.002734623451078056", 2000)],
        ("ip_2d", "naive"): [("0.6375", "0.010749273231246846", 1275),
                             ("0.8192738008940392", "0.02469333509714805", 710)],
        ("ip_2d", "tilted"): [("0.6464159416893214", "0.001696316962366154", 2000),
                              ("0.8238911012451966", "0.0019450515852998127", 2000)],
    }

    @pytest.mark.parametrize("method", ["naive", "tilted"])
    @pytest.mark.parametrize("case", ["kesten_1d", "ip_2d"])
    def test_start_crosses_the_thresholds_below_one(self, ks_kesten, ip_solver, ip_alpha,
                                                    case, method, monkeypatch):
        # the supremum runs over n >= 0 and |S_0 u| = 1, so below t = 1 both
        # methods read probability 1 exactly: t^alpha, stderr 0, every path
        ks, alpha = (ks_kesten, 1.0) if case == "kesten_1d" else (ip_solver, ip_alpha)
        u = np.eye(ks.ensemble.dimension)[0]
        rows = cramer_constant(ks, alpha, u, [0.5, 0.9, 1.0, 2.0], 2000, seed=4,
                               method=method)
        assert [r["t"] for r in rows] == pytest.approx([0.5, 0.9, 1.0, 2.0])
        for r in rows[:2]:
            assert (r["estimate"], r["stderr"], r["hits"], r["flag"]) == (
                r["t"] ** alpha, 0.0, 2000, "")
        assert rows[2:] == cramer_constant(ks, alpha, u, [1.0, 2.0], 2000, seed=4,
                                           method=method)
        assert [(repr(r["estimate"]), repr(r["stderr"]), r["hits"])
                for r in rows[2:]] == self.START_RULE_ROWS[case, method]
        if method == "tilted":
            # the start crosses every threshold of {0.5, 0.9}, so every path
            # retires before its first step
            calls = []
            step = TiltedChain.step
            monkeypatch.setattr(TiltedChain, "step",
                                lambda chain, u: calls.append(u.size) or step(chain, u))
            below = cramer_constant(ks, alpha, u, [0.5, 0.9], 2000, seed=4, method=method)
            assert calls == [] and below == rows[:2]

    def test_naive_runs_no_solve(self, ip, monkeypatch):
        # the naive walk reads only the solver's ensemble
        calls = []
        solve = transfer.power_iterate

        def counting_solve(*args, **kwargs):
            calls.append(args[1])
            return solve(*args, **kwargs)

        monkeypatch.setattr(transfer, "power_iterate", counting_solve)
        ks = KSolver(ip, build_grid(2, 64, "projective"))
        rows = cramer_constant(ks, 1.2, np.array([1.0, 0.0]), [2.0, 20.0], 200,
                               seed=8, method="naive")
        assert len(rows) == 2 and calls == []
        cramer_constant(ks, 1.2, np.array([1.0, 0.0]), [2.0], 20, seed=8)
        assert calls == [1.2]


def einsum_naive_hits(e, u, log_ts, n_paths, seed, retired, max_steps=4000):
    """Reference naive Cramer hits: each step draws all n_paths atoms and
    applies those of the active paths with einsum, in place;
    retired(logmag, running_max) marks the active paths that stop."""
    rng = stream(seed, 660)
    x = np.tile(np.asarray(u, dtype=float) / np.linalg.norm(u), (n_paths, 1))
    logmag = np.zeros(n_paths)
    running_max = np.zeros(n_paths)
    active = np.ones(n_paths, dtype=bool)
    steps = 0
    while active.any() and steps < max_steps:
        sel = np.flatnonzero(active)
        g = e.matrices[draw_atoms(rng, e.weights, n_paths)[sel]]
        y = np.einsum("nij,nj->ni", g, x[sel])
        norms = np.linalg.norm(y, axis=1)
        x[sel] = y / norms[:, None]
        logmag[sel] += np.log(norms)
        running_max[sel] = np.maximum(running_max[sel], logmag[sel])
        active[sel[retired(logmag[sel], running_max[sel])]] = False
        steps += 1
    return [int((running_max > lt).sum()) for lt in log_ts]


def sixty_nat_rule(logmag, running_max):
    """The naive walk's former rule: 60 nats below the running max."""
    return logmag < running_max - 60.0


def tail_bound_rule(log_ts, alpha, n_paths):
    """The rule of cramer_constant's naive walk: more than min(60,
    log(n_paths 1e4) / alpha) nats below the first threshold not crossed,
    found by comparing with every threshold (inf past the top one)."""
    climb = min(60.0, np.log(n_paths * 1e4) / alpha)

    def retired(logmag, running_max):
        nxt = np.where(running_max[:, None] <= log_ts, log_ts, np.inf).min(axis=1)
        return nxt - logmag > climb
    return retired


def crossing_matrix_cramer(ks, alpha, u, t_grid, n_paths, seed, method,
                           max_steps=4000, min_hits=25):
    """Reference cramer_constant: the naive walk is einsum_naive_hits under
    the tail-bound rule, the tilted walk tests every threshold on every path
    and step against an (n_paths, T) crossing matrix and adds each step's
    weights per threshold in row order from 0.0.  Also returns the most
    thresholds one tilted path crossed in one step."""
    u = np.asarray(u, dtype=float) / np.linalg.norm(u)
    log_ts = np.log(np.asarray(sorted(t_grid)))
    t_arr = np.exp(log_ts)
    rows = []
    if method == "naive":
        all_hits = einsum_naive_hits(ks.ensemble, u, log_ts, n_paths, seed,
                                     tail_bound_rule(log_ts, alpha, n_paths),
                                     max_steps)
        for hits, t in zip(all_hits, t_arr):
            p_hat = hits / n_paths
            se = np.sqrt(max(p_hat * (1 - p_hat), 0.0) / n_paths)
            rows.append({"t": float(t), "estimate": float(t**alpha * p_hat),
                         "stderr": float(t**alpha * se), "hits": hits,
                         "flag": "starved" if hits < min_hits else ""})
        return rows, 0
    rng = stream(seed, 660)
    steps = 0
    chain = TiltedChain(ks, [alpha], [np.tile(u, (n_paths, 1))])
    weight_sum = np.zeros(len(log_ts))
    weight_sq = np.zeros(len(log_ts))
    crossed = np.zeros((n_paths, len(log_ts)), dtype=bool)
    most = 0
    while chain.ids.size and steps < max_steps:
        chain.step(rng.random(chain.ids.size))
        logmag, logw, ids = chain.logmag, chain.log_lr(), chain.ids
        per_path = np.zeros(ids.size, dtype=int)
        for j, lt in enumerate(log_ts):
            newly = (logmag > lt) & (~crossed[ids, j])
            if newly.any():
                wvals = np.exp(logw[newly])
                weight_sum[j] += np.cumsum(wvals)[-1]
                weight_sq[j] += np.cumsum(wvals**2)[-1]
                crossed[ids[newly], j] = True
                per_path += newly
        most = max(most, int(per_path.max()))
        chain.keep(logmag <= log_ts[-1])
        steps += 1
    for j, t in enumerate(t_arr):
        n_cross = int(crossed[:, j].sum())
        p_hat = weight_sum[j] / n_paths
        se = np.sqrt(max(weight_sq[j] / n_paths - p_hat**2, 0.0) / n_paths)
        rows.append({"t": float(t), "estimate": float(t**alpha * p_hat),
                     "stderr": float(t**alpha * se), "hits": n_cross,
                     "flag": "" if n_cross == n_paths else "incomplete-crossings"})
    return rows, most


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cramer_rows_equal_crossing_matrix_reference(d):
    # thresholds 0.1 nats apart: one tilted step crosses several at once
    if d == 1:
        e, grid = kesten_1d(), build_grid(1, 1, "projective")
    elif d == 2:
        e, grid = ip_2d(), build_grid(2, 128, "projective")
    else:
        e, grid = affine_3d().linear_part, build_grid(3, 64, "projective")
    ks = KSolver(e, grid)
    alpha = 1.0 if d == 1 else solve_alpha(ks)
    t_grid = np.exp(np.arange(1, 41) * 0.1)
    u = np.eye(d)[0] + 0.3
    args = (ks, alpha, u, t_grid, 600, 17)
    want, most = crossing_matrix_cramer(*args, "tilted")
    assert most >= 2
    assert cramer_constant(*args, method="tilted") == want
    want, _ = crossing_matrix_cramer(*args, "naive")
    assert cramer_constant(*args, method="naive") == want


T_CRAMER = np.geomspace(10.0, 1e4, 13)  # cramer's default thresholds


@pytest.fixture(scope="module")
def ks_bench():
    """The rare-event bench's Cramer solver, ip_affine_2d's linear part on
    512 nodes, and its alpha."""
    ks = KSolver(ip_affine_2d().linear_part, build_grid(2, 512, "projective"))
    return ks, solve_alpha(ks)


@pytest.fixture(scope="module")
def ks_affine_3d():
    ks = KSolver(affine_3d().linear_part, build_grid(3, 128, "projective"))
    return ks, solve_alpha(ks)


@pytest.mark.parametrize("seed", [2301, 17])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_naive_hits_equal_sixty_nat_rule(d, seed, ks_kesten, ks_bench, ks_affine_3d):
    # retiring by the tail bound changes no hit of the 60-nat rule under the
    # same draws, at cramer's directions, paths, thresholds and naive seeds
    ks, alpha = {1: (ks_kesten, 1.0), 2: ks_bench, 3: ks_affine_3d}[d]
    for j, u in enumerate(_probe_directions(d, 4, projective=True)):
        rows = cramer_constant(ks, alpha, u, T_CRAMER, 5000, seed + 1000 + j,
                               method="naive")
        assert [r["hits"] for r in rows] == einsum_naive_hits(
            ks.ensemble, u, np.log(T_CRAMER), 5000, seed + 1000 + j, sixty_nat_rule)


def test_naive_row_steps_on_bench_config(ks_bench, monkeypatch):
    # the 60-nat rule walked 11.9M row-steps here
    columns = []
    apply = renewal.apply_atoms

    def counting_apply(matrices, idx, x, *args):
        columns.append(x.shape[-1])
        return apply(matrices, idx, x, *args)

    monkeypatch.setattr(renewal, "apply_atoms", counting_apply)
    ks, alpha = ks_bench
    for j, u in enumerate(_probe_directions(2, 4, projective=True)):
        cramer_constant(ks, alpha, u, T_CRAMER, 5000, 3301 + j, method="naive")
    assert sum(columns) < 3_000_000


class TestTiltedPotential:
    def test_unreachable_window_is_zero(self, ks_kesten):
        f = AnnulusFunction("unreachable", np.log(1e-9), np.log(2e-9))
        rep = tilted_potential_profile(
            ks_kesten, 1.0, np.array([1.0]), t=1e-3, test_functions=[f],
            n_paths=500, seed=9,
        )
        assert rep.rows[0]["measured"] == 0.0

    # measured and stderr of the default annuli at t = 1.5 without the
    # k = 0 term, as repr: the profile before it counted the start
    WITHOUT_START = [("0.7052784215521499", "0.023253996970116344"),
                     ("0.6832814552424565", "0.011924610660795082"),
                     ("0.3060997860758381", "0.006151317246568904")]

    def test_start_is_the_k_zero_visit(self, ks_kesten):
        # |S_0 (t u)| = t = 1.5 lies in annulus0 = [1, 2), so the potential
        # kernel's k = 0 term f(t u) = 1 adds t^-alpha there and nowhere else
        fns = [AnnulusFunction(f"annulus{j}", j * np.log(2.0), (j + 1) * np.log(2.0))
               for j in range(3)]
        rep = tilted_potential_profile(ks_kesten, 1.0, np.array([1.0]), 1.5, fns,
                                       n_paths=2000, seed=10)
        (m0, s0), *rest = [(float(m), float(s)) for m, s in self.WITHOUT_START]
        assert rep.rows[0]["measured"] == pytest.approx(m0 + 1.5**-1.0, rel=1e-12)
        assert rep.rows[0]["stderr"] == pytest.approx(s0, rel=1e-9)
        assert [(repr(r["measured"]), repr(r["stderr"]))
                for r in rep.rows[1:]] == self.WITHOUT_START[1:]

    def test_d1_reference_window(self, ks_kesten):
        f = AnnulusFunction("unit-window", 0.0, np.log(2.0))
        rep = tilted_potential_profile(
            ks_kesten, 1.0, np.array([1.0]), t=1e-4, test_functions=[f],
            n_paths=20_000, seed=10,
        )
        row = rep.rows[0]
        ratio = row["measured"] / row["predicted"]
        assert 0.8 <= ratio <= 1.25

    def test_cap_is_predicted_from_nu_alpha_not_the_transposed_one(self):
        # ip_shear_2d is not self-transposed, so nu^alpha and *nu^alpha give
        # the e1 cap different masses: the measured cap potential matches the
        # first and lies far from the second
        ks = KSolver(ip_shear_2d(), build_grid(2, 512, "projective"))
        alpha = solve_alpha(ks)
        f = AnnulusFunction("e1-cap", 0.0, np.log(2.0), probe_center=np.eye(2)[0],
                            probe_radius=0.5)
        rep = tilted_potential_profile(ks, alpha, np.eye(2)[0], 1e-4, [f], n_paths=20_000,
                                       seed=2301)
        row = rep.rows[0]
        assert abs(row["measured"] - row["predicted"]) <= 3 * row["stderr"]
        from_star = (row["predicted"] * f.probe_mass(ks.star.point(alpha).nu)
                     / f.probe_mass(ks.point(alpha).nu))
        assert abs(row["measured"] - from_star) > 10 * row["stderr"]


class TestDualWalk:
    def test_no_translation_no_ladder(self, ks_kesten):
        ae = AffineEnsemble(
            1, np.array([[[2.0]], [[1 / 3]]]), np.array([[0.0], [0.0]]),
            np.array([0.4, 0.6]), allow_fixed_point=True,
        )
        rec = dual_walk_simulate(ae, ks_kesten, 1.0,
                                 p0=-1.0, u0=np.array([1.0]), n_starts=64,
                                 n_steps=200, seed=11)
        # B = 0 makes p_n = p0 / |S'_n u| -> 0 with p0 < 0: never a record
        assert int((rec.first_tau > 0).sum()) == 0

    def test_kesten_ladders_finite_and_consistent(self, ks_kesten):
        rec = dual_walk_simulate(kesten_affine_1d(), ks_kesten, 1.0,
                                 p0=1.0, u0=np.array([1.0]),
                                 n_starts=2000, n_steps=300, seed=12)
        assert int((rec.first_tau > 0).sum()) == 2000
        assert rec.sign_preserved
        assert abs(rec.height_rate - rec.gamma_tau) <= 0.15 * rec.gamma_tau
        assert rec.eps_moment_cv <= 0.3

    @pytest.mark.parametrize("n_steps", [40, 55])
    def test_eps_moment_edges(self, ks_kesten, n_steps):
        # burn-in is 50 steps: none after it leaves no moment, and fewer
        # than n_batches after it leave the batches empty
        rec = dual_walk_simulate(kesten_affine_1d(), ks_kesten, 1.0,
                                 u0=np.array([1.0]),
                                 n_starts=64, n_steps=n_steps, seed=13)
        assert np.isnan(rec.eps_moment) == (n_steps == 40)
        assert rec.eps_moment_cv == np.inf

    def test_zero_p0_rejected(self, ks_kesten):
        with pytest.raises(ValueError, match="nonzero"):
            dual_walk_simulate(kesten_affine_1d(), ks_kesten, 1.0, p0=0.0)

    @pytest.mark.parametrize("part", ["matrices", "weights"])
    def test_foreign_solver_rejected(self, ks_kesten, part):
        # the walk's chain, e^alpha and L(alpha) must come from the solver
        # of its own linear part
        ae = kesten_affine_1d()
        mats, weights = ae.matrices.copy(), ae.weights.copy()
        if part == "matrices":
            mats[0] *= 1.5
        else:
            weights = weights[::-1].copy()
        other = AffineEnsemble(1, mats, ae.translations.copy(), weights)
        with pytest.raises(ValueError, match="linear part"):
            dual_walk_simulate(other, ks_kesten, 1.0)

    # every scalar of the record, as repr, and first_tau.sum(), pinned bit
    # for bit so that a rewrite of the walk's bookkeeping shows any drift
    PINNED = {
        "kesten p0=+1": (
            {"mean_gap": "1.0", "gamma_tau": "0.3347952867143343",
             "height_rate": "0.34243970472445234", "height_rate_se": "0.0019327208467589704",
             "eps_moment": "1.160168517018214", "eps_moment_cv": "0.0029680620061663205",
             "sign_preserved": "True", "zero_hits": "522"}, -44),
        "kesten p0=-1": (
            {"mean_gap": "1.0", "gamma_tau": "0.3347952867143343",
             "height_rate": "0.3387868198378128", "height_rate_se": "0.0018041491265947695",
             "eps_moment": "1.1613293870853376", "eps_moment_cv": "0.0042754717337524185",
             "sign_preserved": "True", "zero_hits": "493"}, 14),
        "ip_affine_2d": (
            {"mean_gap": "1.289951719435701", "gamma_tau": "0.1800760622357503",
             "height_rate": "0.2007971038861986", "height_rate_se": "0.005453849118418906",
             "eps_moment": "1.2181335787397525", "eps_moment_cv": "0.0035721123904974648",
             "sign_preserved": "True", "zero_hits": "0"}, 110),
    }

    @pytest.mark.parametrize("case", list(PINNED))
    def test_record_is_pinned(self, ks_kesten, case):
        if case == "ip_affine_2d":
            ks = KSolver(ip_affine_2d().linear_part, build_grid(2, 128, "projective"))
            args = (ip_affine_2d(), ks, solve_alpha(ks))
            kw = dict(p0=1.0, n_starts=256, n_steps=200, seed=23)
        else:
            p0 = 1.0 if case.endswith("+1") else -1.0
            args = (kesten_affine_1d(), ks_kesten, 1.0)
            kw = dict(p0=p0, n_starts=1000, n_steps=300, seed=21 if p0 > 0 else 22)
        rec = dual_walk_simulate(*args, **kw)
        scalars, tau_sum = self.PINNED[case]
        assert (rec.n_starts, rec.n_steps) == (kw["n_starts"], kw["n_steps"])
        assert {name: repr(getattr(rec, name)) for name in scalars} == scalars
        assert int(rec.first_tau.sum()) == tau_sum

    def test_walk_builds_its_chain_from_star(self, monkeypatch):
        # on ip_shear_affine_2d no atom is symmetric, so the chain of ks and
        # that of ks.star differ in their atoms and in e^alpha, and the walk
        # must draw from the tilted chain of the transposed ensemble
        built = []

        class RecordingChain(TiltedChain):
            def __init__(self, ks, s_values, x0):
                super().__init__(ks, s_values, x0)
                built.append((ks, self))

        ae = ip_shear_affine_2d()
        ks = KSolver(ae.linear_part, build_grid(2, 128, "projective"))
        alpha = solve_alpha(ks)
        monkeypatch.setattr(renewal, "TiltedChain", RecordingChain)
        rec = dual_walk_simulate(ae, ks, alpha, n_starts=64, n_steps=50, seed=5)
        assert np.isfinite(rec.mean_gap)
        [(solver, chain)] = built
        assert solver is ks.star
        assert np.array_equal(chain.ensemble.matrices, ae.linear_part.matrices.swapaxes(1, 2))
        assert np.array_equal(chain.values, ks.star.point(alpha).e.values)
        # the fixture tells the two apart: e^alpha and *e^alpha differ by
        # more than 0.3 somewhere after scaling
        e, e_star = ks.point(alpha).e.values, chain.values
        assert np.max(np.abs(e / e.mean() - e_star / e_star.mean())) > 0.3

    def test_d2_dual_walk_runs(self, ip_solver, ip_alpha):
        from matspec.ensemble import classify_cone_case
        from matspec.ensembles import ip_affine_2d

        ae = ip_affine_2d()
        # ladder finiteness is guaranteed on the charged attractor side of
        # the transposed semigroup; start there
        _, ev = classify_cone_case(ip_solver.star.ensemble, seed=0)
        u0 = np.asarray(ev["attractor_center"])
        rec = dual_walk_simulate(ae, ip_solver, ip_alpha, p0=1.0, u0=u0,
                                 n_starts=512, n_steps=400, seed=13)
        frac = (rec.first_tau > 0).mean()
        assert frac > 0.95
        assert rec.sign_preserved
        assert abs(rec.height_rate - rec.gamma_tau) <= 0.2 * rec.gamma_tau


class TestCramerCaseIPositivity:
    def test_positive_constants_all_probe_directions(self, ip_solver, ip_alpha):
        # sign-flipped twin: identical |.|-objects, no invariant cone
        from matspec.ensembles import ip_flip_2d

        # |g x| is that of ip_2d, so both share the tail index
        ks = KSolver(ip_flip_2d(), ip_solver.grid)
        for j, th in enumerate(np.linspace(0.0, np.pi, 6, endpoint=False)):
            u = np.array([np.cos(th), np.sin(th)])
            rows = cramer_constant(ks, ip_alpha, u, [200.0], 4000,
                                   seed=40 + j, method="tilted")
            r = rows[0]
            assert r["estimate"] - 1.96 * r["stderr"] > 0.0


class TestDirectionalTiltedPotential:
    def test_d2_probe_ratio_matches_eigenmeasure(self, ip, ip_solver, ip_alpha):
        # measured visit masses for two directional probes must reproduce
        # the ratio of their eigenmeasure cap masses (25% budget)
        sp = ip_solver.point(ip_alpha)
        nodes = sp.nu.grid.nodes
        masses = sp.nu.masses

        def cap_mass(c, r=0.25):
            dots = np.abs(nodes @ c)
            mask = np.sqrt(np.maximum(0.0, 2 - 2 * np.clip(dots, -1, 1))) < r
            return masses[mask].sum()

        caps = np.array([cap_mass(c) for c in nodes])
        i_hi = int(np.argmax(caps))
        i_mid = int(np.argmin(np.abs(caps - 0.2 * caps[i_hi])))
        fa = AnnulusFunction("heavy", 0.0, np.log(2.0),
                             probe_center=nodes[i_hi], probe_radius=0.25)
        fb = AnnulusFunction("light", 0.0, np.log(2.0),
                             probe_center=nodes[i_mid], probe_radius=0.25)
        rep = tilted_potential_profile(
            ip_solver, ip_alpha, np.array([1.0, 0.0]), 1e-3, [fa, fb],
            n_paths=60_000, seed=17,
        )
        heavy, light = rep.rows
        measured_ratio = heavy["measured"] / light["measured"]
        predicted_ratio = heavy["predicted"] / light["predicted"]
        assert abs(measured_ratio / predicted_ratio - 1.0) <= 0.25

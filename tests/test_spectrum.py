import numpy as np
import pytest

from conftest import finite_diff_L, k_mc_oracle
from matspec.ensemble import LinearEnsemble, transpose
from matspec.ensembles import affine_3d, diag_only_2d, ip_2d, ip_shear_2d, rotations_2d
from matspec.projective import build_grid
from matspec.spectrum import (
    KSolver,
    compute_curve,
    contraction_rate,
    lyapunov,
    lyapunov_gap,
    solve_alpha,
)
from matspec import spectrum, transfer
from matspec.rng import draw_atoms, stream
from matspec.transfer import TiltedChain, TransferOperator, pairing_p, tilted_probs

L0_KESTEN = 0.4 * np.log(2.0) - 0.6 * np.log(3.0)
KP1_KESTEN = 0.4 * 2.0 * np.log(2.0) - 0.2 * np.log(3.0)


class TestMcOracle:
    def test_s0_exact(self, kesten):
        assert k_mc_oracle(kesten, 0.0, 10, 100, seed=1) == (1.0, 0.0)

    def test_kesten_k1_is_one(self, kesten):
        k_hat, se = k_mc_oracle(kesten, 1.0, 20, 100_000, seed=5)
        assert abs(k_hat - 1.0) < 4 * se + 0.03  # finite-n bias O(1/n)

    def test_similarity_closed_form(self, similarity):
        k_hat, se = k_mc_oracle(similarity, 2.0, 20, 50_000, seed=2)
        exact = 0.4 * 4.0 + 0.6 / 9.0
        assert abs(k_hat - exact) < 4 * se + 0.02 * exact

    def test_chunking_invariance(self, kesten):
        a = k_mc_oracle(kesten, 0.7, 10, 30_000, seed=9, chunk=1 << 12)
        b = k_mc_oracle(kesten, 0.7, 10, 30_000, seed=9, chunk=1 << 12)
        assert a == b


class TestSolveAlpha:
    def test_kesten_alpha_is_one(self, kesten):
        alpha = solve_alpha(kesten)
        assert abs(alpha - 1.0) < 1e-10
        assert abs(KSolver(kesten).k(alpha) - 1.0) <= 1e-12

    def test_similarity_alpha_grid_path(self, similarity):
        grid = build_grid(2, 256, "projective")
        alpha = solve_alpha(similarity, grid=grid)
        assert abs(alpha - 1.0) < 1e-8  # same scalar equation as d=1

    def test_all_contracting_has_no_root(self):
        e = LinearEnsemble(
            1, np.array([[[0.9]], [[0.5]]]), np.array([0.5, 0.5])
        )
        with pytest.raises(ValueError, match="no root"):
            solve_alpha(e)

    def test_stalled_refinement_is_numerical(self):
        class Jump:  # k jumps over 1 at s = 1, so no iterate gets within tol
            def k(self, s):
                return 0.5 if s < 1.0 else 2.0

            def k_prime(self, s):
                return 1.0

        with pytest.raises(RuntimeError, match="stalled"):
            solve_alpha(Jump())

    @pytest.mark.parametrize("case", ["ip_2d-512", "kesten_1d"])
    def test_solver_equals_ensemble_on_its_grid(self, case, ip, kesten):
        # a fresh solver and the one solve_alpha builds from (ensemble, grid)
        # solve the same exponents from the same starts
        ks = (KSolver(ip, build_grid(2, 512, "projective")) if case == "ip_2d-512"
              else KSolver(kesten))
        assert solve_alpha(ks) == solve_alpha(ks.ensemble, ks.grid)

    def test_solver_takes_no_grid(self, ip_solver):
        with pytest.raises(ValueError, match="grid"):
            solve_alpha(ip_solver, grid=ip_solver.grid)

    # k(s) = w 2^s + (1 - w) 2^-s on atoms {2, 1/2}: the root is
    # alpha = log2((1 - w) / w), and L0 = (2w - 1) log 2 < 0 for w < 1/2
    @staticmethod
    def two_halves(w):
        return LinearEnsemble(1, np.array([[[2.0]], [[0.5]]]), np.array([w, 1.0 - w]))

    def test_bracket_expansion(self):
        # alpha = log2 9 lies above the bracket's upper end 2, which doubles
        alpha = solve_alpha(self.two_halves(0.1))
        assert abs(alpha - np.log2(9.0)) < 1e-10

    def test_bracket_lower_end_halves(self):
        # alpha = log2(51/49) ~ 0.0577 lies below the bracket's lower end 0.1
        alpha = solve_alpha(self.two_halves(0.49))
        assert abs(alpha - np.log2(51.0 / 49.0)) < 1e-10

    def test_newton_matches_bisection(self, ip):
        ks = KSolver(ip, build_grid(2, 128, "projective"))
        alpha = solve_alpha(ks)
        lo, hi = 0.1, 2.0
        while hi - lo > 1e-13:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if ks.k(mid) < 1.0 else (lo, mid)
        assert abs(alpha - 0.5 * (lo + hi)) < 1e-10


class TestLyapunov:
    def test_kesten_L0_closed_form(self, kesten):
        L, _ = lyapunov(KSolver(kesten), 0.0, "quadrature")
        assert abs(L - L0_KESTEN) < 1e-12

    def test_similarity_L0_one_sided(self, similarity):
        # k(s) = 0.4 2^s + 0.6 3^-s on every grid, so L(0) is exact: the
        # quadrature route to round-off, the one-sided differences of the
        # test reference to their O(h) truncation error
        ks = KSolver(similarity, build_grid(2, 512, "projective"))
        exact = 0.4 * np.log(2.0) - 0.6 * np.log(3.0)
        L, _ = lyapunov(ks, 0.0, "quadrature")
        assert abs(L - exact) < 1e-12
        assert abs(finite_diff_L(ks, 0.0) - exact) < 1e-6

    def test_quadrature_is_tilted_kernel_average(self, ip, ip_solver):
        # the quadrature route is the pi^s-average over nodes of the tilted
        # kernel's mean log|g x|, which the solver evaluates as nu^s(P'^s e^s)/k
        for s in (0.5, 1.5):
            sp = ip_solver.point(s)
            chain = TiltedChain(ip_solver, [s], [sp.e.grid.nodes])
            probs, _, _, lognorms, _ = tilted_probs(ip, chain, sp.e.grid.nodes,
                                                    sp.e.values)
            node_average = float(sp.pi @ np.sum(probs * lognorms, axis=0))
            Lq, _ = lyapunov(ip_solver, s, "quadrature")
            Lfd = finite_diff_L(ip_solver, s)
            assert abs(node_average - Lq) < 1e-9
            assert abs(Lq - Lfd) < 1e-8

    def test_kesten_L_at_alpha(self, kesten):
        L, _ = lyapunov(KSolver(kesten), 1.0, "quadrature")
        assert abs(L - KP1_KESTEN) < 1e-10  # k(1) = 1 so L = k'(1)

    def test_quadrature_matches_closed_form_1d(self, kesten):
        Lq, _ = lyapunov(KSolver(kesten), 1.0, "quadrature")
        assert abs(Lq - KP1_KESTEN) < 1e-12

    def test_tilted_mc_1d(self, kesten):
        L, se = lyapunov(KSolver(kesten), 1.0, "tilted_mc", seed=3,
                         n_chains=64, n_steps=2000)
        assert se is not None
        assert abs(L - KP1_KESTEN) < 4 * se

    def test_similarity_three_routes_agree(self, similarity):
        grid = build_grid(2, 128, "projective")
        ks = KSolver(similarity, grid)
        s = 1.5
        exact = (
            0.4 * 2.0**s * np.log(2.0) - 0.6 * 3.0**-s * np.log(3.0)
        ) / (0.4 * 2.0**s + 0.6 * 3.0**-s)
        Lfd = finite_diff_L(ks, s)
        Lq, _ = lyapunov(ks, s, "quadrature")
        Lmc, se = lyapunov(ks, s, "tilted_mc", seed=11, n_chains=48, n_steps=1500)
        assert abs(Lfd - exact) < 1e-6
        assert abs(Lq - exact) < 1e-9
        assert abs(Lmc - exact) < 4 * se

    def test_ip_routes_pairwise(self, ip, ip_solver, ip_alpha):
        Lfd = finite_diff_L(ip_solver, ip_alpha)
        Lq, _ = lyapunov(ip_solver, ip_alpha, "quadrature")
        Lmc, se = lyapunov(ip_solver, ip_alpha, "tilted_mc", seed=13, n_chains=64,
                           n_steps=3000)
        budget = max(0.05 * abs(Lfd), 0.01)
        assert abs(Lfd - Lq) < budget
        assert abs(Lfd - Lmc) < budget + 3 * se
        assert abs(Lq - Lmc) < budget + 3 * se

    def test_alpha_positive_derivative(self, ip, ip_solver, ip_alpha):
        # contracting at 0 forces expanding tilt at alpha
        L0 = finite_diff_L(ip_solver, 0.0)
        La = finite_diff_L(ip_solver, ip_alpha)
        assert L0 < 0
        assert La > 0


class TestPathDiagnostics:
    def test_incremental_lognorm_matches_direct(self, ip, ip_solver, ip_alpha):
        x0 = ip.matrices[0][:, 0] / np.linalg.norm(ip.matrices[0][:, 0])
        chain = TiltedChain(ip_solver, [ip_alpha], [x0])
        rng = np.random.default_rng(21)
        atoms = [int(chain.step(rng.random(1))[0][0]) for _ in range(50)]
        direct = x0
        for a in atoms:
            direct = ip.matrices[a] @ direct
        assert np.isfinite(chain.logmag[0])
        assert abs(chain.logmag[0] - np.log(np.linalg.norm(direct))) < 1e-12

    def test_cocycle_renormalization_exactness(self, ip):
        # accumulated log|S_n x| equals the directly computed log norm
        rng = np.random.default_rng(3)
        x0 = np.array([0.6, 0.8])
        idx = rng.integers(0, 2, size=50)
        direct = x0.copy()
        acc = 0.0
        x = x0.copy()
        for i in idx:
            g = ip.matrices[i]
            direct = g @ direct
            y = g @ x
            n = np.linalg.norm(y)
            acc += np.log(n)
            x = y / n
        assert abs(acc - np.log(np.linalg.norm(direct))) < 1e-8

    def test_gap_orthogonal_zero(self):
        gap, se = lyapunov_gap(KSolver(rotations_2d()), 0.0, n=20, n_pairs=4,
                               n_paths=16, seed=1)
        assert abs(gap) < max(3 * se, 1e-10)

    def test_gap_diagonal_contraction(self):
        gap, _ = lyapunov_gap(KSolver(diag_only_2d()), 0.0, n=120, n_pairs=4,
                              n_paths=8, seed=2)
        assert abs(gap - (-2.0 * np.log(2.0))) < 0.1

    def test_gap_ip_negative(self, ip, ip_solver, ip_alpha):
        gap, se = lyapunov_gap(ip_solver, ip_alpha, n=40, seed=4)
        assert gap + 3 * se < 0

    def test_gap_needs_d2(self, kesten):
        with pytest.raises(ValueError, match="d >= 2"):
            lyapunov_gap(KSolver(kesten), 0.0)

    def test_contraction_orthogonal_is_one(self):
        rho = contraction_rate(KSolver(rotations_2d()), 0.0, eps=0.5, n=10,
                               n_pairs=6, n_paths=8, seed=5)
        assert abs(rho - 1.0) < 1e-12

    def test_contraction_ip_below_one(self, ip, ip_solver, ip_alpha):
        rho = contraction_rate(ip_solver, ip_alpha, eps=0.3, n=25, seed=6,
                               n_pairs=16, n_paths=32)
        assert rho < 0.97

    def test_contraction_eps_range_enforced(self, ip, ip_solver):
        with pytest.raises(ValueError, match="Holder"):
            contraction_rate(ip_solver, 0.5, eps=0.9)


def test_warm_solver_hides_no_solve(ip, monkeypatch):
    # every diagnostic takes its points (and the transposed ones) from its
    # solver: no operator is built and nothing is solved again
    ks = KSolver(ip, build_grid(2, 128, "projective"))
    s = 1.0
    ks.point(s)
    ks.star.point(s)
    calls = []
    build = TransferOperator.__init__
    solve = transfer.power_iterate

    def counting_build(self, *args):
        calls.append("build")
        build(self, *args)

    def counting_solve(*args, **kwargs):
        calls.append("solve")
        return solve(*args, **kwargs)

    monkeypatch.setattr(TransferOperator, "__init__", counting_build)
    monkeypatch.setattr(transfer, "power_iterate", counting_solve)
    lyapunov_gap(ks, s, n=5, n_pairs=2, n_paths=4, seed=1)
    contraction_rate(ks, s, eps=0.5, n=5, n_pairs=2, n_paths=4, seed=2)
    assert calls == []
    # the counters do count: a fresh solver builds and solves
    KSolver(ip, ks.grid).point(s)
    assert calls == ["build", "solve"]


def test_d1_transposed_solver_is_the_solver(kesten, ip):
    # a 1 x 1 atom is its own transpose; a 2 x 2 one is not
    ks = KSolver(kesten)
    assert ks.star is ks
    assert KSolver(ip, build_grid(2, 64, "projective")).star is not ks


def test_d1_curve_solves_each_exponent_once(kesten, monkeypatch):
    # 9 curve exponents and 6 more of the alpha solve: one solve each, where
    # a separate transposed solver re-solved the 9 curve points for p(s)
    s_values = np.linspace(0, 2, 9)
    ks = KSolver(kesten)
    star = KSolver(transpose(kesten), ks.grid)
    want = [pairing_p(ks.point(s), star.point(s)) for s in s_values]
    solve = transfer.power_iterate
    calls = []

    def counting_solve(*args, **kwargs):
        calls.append(args[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(transfer, "power_iterate", counting_solve)
    curve = compute_curve(KSolver(kesten), s_values)
    assert len(calls) == len(set(calls)) == 15
    assert curve.pairings == want


def test_pairing_reads_the_transposed_solver():
    # no atom of ip_shear_2d is symmetric, so *nu^s is not nu^s: the pairing
    # identity holds with ks.star's measure and fails with ks's own
    ks = KSolver(ip_shear_2d())
    alpha = solve_alpha(ks)
    curve = compute_curve(ks, [alpha], seed=1)
    assert curve.pairings[0][1] < 1e-3
    sp = ks.point(alpha)
    assert pairing_p(sp, sp)[1] > 0.1


class TestCurve:
    def test_curve_assembles(self, kesten):
        curve = compute_curve(KSolver(kesten), [0.0, 0.5, 1.0, 1.5], seed=1)
        assert abs(curve.alpha - 1.0) < 1e-9
        assert abs(curve.k_prime_alpha - KP1_KESTEN) < 1e-9
        assert len(curve.lyapunov_table["tilted_mc"]) == 4

    def test_default_shape_keeps_path_steps(self):
        # kept path-steps per s of the old 64 x 4000 shape: fewer would
        # widen the tilted_mc stderr
        T = spectrum._MC_STEPS
        assert spectrum._MC_CHAINS * (T - max(100, T // 10)) >= 230_400

    def test_default_shape_similarity_closed_form(self, similarity):
        # L(s) = k'(s)/k(s) with k(s) = 0.4 2^s + 0.6 3^-s on every grid
        ks = KSolver(similarity, build_grid(2, 64, "projective"))
        s = np.array([0.0, 1.0, 2.0])
        k = 0.4 * 2.0**s + 0.6 * 3.0**-s
        exact = (0.4 * 2.0**s * np.log(2.0) - 0.6 * 3.0**-s * np.log(3.0)) / k
        table = compute_curve(ks, s, seed=0).lyapunov_table
        se = np.array(table["tilted_mc_se"])
        assert np.all(np.isfinite(se)) and np.all(se > 0)
        assert np.all(np.abs(np.array(table["tilted_mc"]) - exact) < 4 * se)

    def test_strictly_increasing_s_required(self, kesten):
        from matspec.spectrum import SpectralCurve

        with pytest.raises(ValueError, match="strictly increasing"):
            SpectralCurve(s_values=np.array([0.0, 0.0, 1.0]), points=[])


class TestD3Diagnostics:
    """The d=3 pair-contraction path runs through the cofactor wedge action."""

    def test_gap_diag3(self):
        e = LinearEnsemble(3, np.array([np.diag([2.0, 1.0, 0.5])]),
                           np.array([1.0]))
        gap, _ = lyapunov_gap(KSolver(e), 0.0, n=150, n_pairs=4, n_paths=8, seed=1)
        # second minus first exponent: 0 - log 2
        assert abs(gap - (-np.log(2.0))) < 0.05

    def test_gap_and_rho_orthogonal3(self):
        def rot3(t):
            c, s = np.cos(t), np.sin(t)
            return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

        flip = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        e = LinearEnsemble(3, np.array([rot3(1.0), flip]),
                           np.array([0.5, 0.5]))
        gap, se = lyapunov_gap(KSolver(e), 0.0, n=30, n_pairs=4, n_paths=8, seed=2)
        assert abs(gap) < max(3 * se, 1e-12)
        rho = contraction_rate(KSolver(e), 0.0, eps=0.5, n=10, n_pairs=6,
                               n_paths=8, seed=3)
        assert abs(rho - 1.0) < 1e-12

    def test_contraction_eps_to_zero_limit(self, ip, ip_solver, ip_alpha):
        rho = contraction_rate(ip_solver, ip_alpha, eps=1e-9, n=10, n_pairs=4,
                               n_paths=8, seed=4)
        assert abs(rho - 1.0) < 1e-6


class TestOracleInvariantAllShipped:
    def test_kesten_oracle_window(self, kesten):
        ks = KSolver(kesten)
        alpha = solve_alpha(ks)
        for s in (0.0, alpha / 2, alpha):
            k_hat, se = k_mc_oracle(kesten, s, n=30, n_samples=40_000, seed=3)
            assert abs(ks.k(s) - k_hat) <= 2 * (se + 0.02 * ks.k(s))

    def test_similarity_oracle_window(self, similarity):
        grid = build_grid(2, 128, "projective")
        ks = KSolver(similarity, grid)
        alpha = solve_alpha(ks)
        for s in (0.0, alpha / 2, alpha):
            k_hat, se = k_mc_oracle(similarity, s, n=30, n_samples=40_000,
                                    seed=4)
            assert abs(ks.k(s) - k_hat) <= 2 * (se + 0.02 * ks.k(s))


# Reference Monte Carlo: every s and every probe pair in a chain of its own,
# as the routines ran before one chain carried them all.

def per_s_tilted_mc(ks, s_values, seed, n_chains, n_steps):
    """(L, stderr) per s, the i-th s on its own stream (seed, 101, i) and
    chain."""
    out = []
    burn = max(100, n_steps // 10)
    for i, s in enumerate(s_values):
        rng = stream(seed, 101, i)
        sp = ks.point(s)
        chain = TiltedChain(ks, [s], [sp.e.grid.nodes[draw_atoms(rng, sp.pi, n_chains)]])
        sums = np.zeros(n_chains)
        for step in range(n_steps):
            _, ln = chain.step(rng.random(n_chains))
            if step >= burn:
                sums += ln
        means = sums / (n_steps - burn)
        out.append((float(means.mean()), float(means.std(ddof=1) / np.sqrt(n_chains))))
    return out


def unit(rng, d):
    x = rng.standard_normal((1, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def pair_logs(ks, s, x0, v, w, n, rng):
    """Log sine-distance ratio after n tilted steps of one pair's paths."""
    e = ks.ensemble
    d = e.dimension
    if d == 2:
        wedge_ops = np.linalg.det(e.matrices)
    else:
        # C-contiguous, so that einsum over the gathered cofactor stack adds
        # in apply_atoms' order: over a strided stack it adds in order
        wedge_ops = np.ascontiguousarray(np.linalg.det(e.matrices)[:, None, None]
                                         * np.transpose(np.linalg.inv(e.matrices), (0, 2, 1)))
    chain = TiltedChain(ks, [s], [x0])
    v_dir, w_dir = v.copy(), w.copy()
    v_log, w_log = np.zeros(len(v)), np.zeros(len(v))
    if d == 2:
        wedge_log = np.log(np.abs(v[:, 0] * w[:, 1] - v[:, 1] * w[:, 0]))
    else:
        cr = np.cross(v, w)
        nrm = np.linalg.norm(cr, axis=1)
        wedge_log = np.log(nrm)
        wedge_dir = cr / nrm[:, None]
    sin0 = wedge_log.copy()
    for _ in range(n):
        choice, _ = chain.step(rng.random(len(x0)))
        g = e.matrices[choice]
        gv = np.einsum("nij,nj->ni", g, v_dir)
        gw = np.einsum("nij,nj->ni", g, w_dir)
        nv, nw = np.linalg.norm(gv, axis=1), np.linalg.norm(gw, axis=1)
        v_dir, w_dir = gv / nv[:, None], gw / nw[:, None]
        v_log += np.log(nv)
        w_log += np.log(nw)
        if d == 2:
            wedge_log += np.log(np.abs(wedge_ops[choice]))
        else:
            y = np.einsum("nij,nj->ni", wedge_ops[choice], wedge_dir)
            ny = np.linalg.norm(y, axis=1)
            wedge_dir = y / ny[:, None]
            wedge_log += np.log(ny)
    return wedge_log - v_log - w_log - sin0


def per_pair_gap(ks, s, n, n_pairs, n_paths, seed):
    rng = stream(seed, 202)
    best, best_se = -np.inf, np.nan
    for _ in range(n_pairs):
        x0, v, w = (np.repeat(unit(rng, ks.ensemble.dimension), n_paths, axis=0)
                    for _ in range(3))
        ratios = pair_logs(ks, s, x0, v, w, n, rng) / n
        m, se = float(ratios.mean()), float(ratios.std(ddof=1) / np.sqrt(n_paths))
        if m > best:
            best, best_se = m, se
    return best, best_se


def per_pair_rho(ks, s, eps, n, n_pairs, n_paths, seed):
    rng = stream(seed, 303)
    sup_ratio = -np.inf
    for _ in range(n_pairs):
        x0, v, w = (np.repeat(unit(rng, ks.ensemble.dimension), n_paths, axis=0)
                    for _ in range(3))
        logs = pair_logs(ks, s, x0, v, w, n, rng)
        sup_ratio = max(sup_ratio, float(np.mean(np.exp(eps * logs))))
    return float(sup_ratio ** (1.0 / n))


@pytest.fixture(scope="module", params=[2, 3], ids=["ip_2d", "affine_3d"])
def small_solver(request):
    if request.param == 2:
        return KSolver(ip_2d(), build_grid(2, 128, "projective"))
    return KSolver(affine_3d().linear_part, build_grid(3, 64, "projective"))


class TestOneChainEqualsPerRunReference:
    """One chain over every s or every probe pair gives the numbers of one
    chain per s or per pair, bit for bit."""

    def test_tilted_mc_over_s(self, small_solver):
        ks = small_solver
        s_values = [0.0, 0.7, 1.4]
        want = per_s_tilted_mc(ks, s_values, 5, 16, 300)
        assert spectrum._tilted_mc(ks, s_values, 5, 16, 300) == want
        assert lyapunov(ks, 0.7, "tilted_mc", seed=5, n_chains=16,
                        n_steps=300) == per_s_tilted_mc(ks, [0.7], 5, 16, 300)[0]

    def test_exponents_draw_from_their_own_streams(self, small_solver):
        # one s twice: on a shared stream both would walk the same paths
        first, second = spectrum._tilted_mc(small_solver, [0.7, 0.7], 5, 16, 300)
        assert first != second

    def test_curve_tilted_mc_column(self, ip):
        ks = KSolver(ip, build_grid(2, 64, "projective"))
        s_values = [0.0, 1.0, 2.0]
        curve = compute_curve(ks, s_values, seed=3)
        want = per_s_tilted_mc(ks, s_values, 3,
                               spectrum._MC_CHAINS, spectrum._MC_STEPS)
        assert curve.lyapunov_table["tilted_mc"] == [L for L, _ in want]
        assert curve.lyapunov_table["tilted_mc_se"] == [se for _, se in want]

    def test_gap_over_pairs(self, small_solver):
        ks = small_solver
        # at seed 3 an in-order d=3 wedge walk moves the stderr by 1 ulp
        for seed in (9, 3):
            want = per_pair_gap(ks, 0.8, 12, 5, 8, seed)
            assert lyapunov_gap(ks, 0.8, n=12, n_pairs=5, n_paths=8,
                                seed=seed) == want

    @pytest.mark.parametrize("n_pairs", [5, 11])  # the one chain splits into any count
    def test_rho_over_pairs(self, small_solver, n_pairs):
        ks = small_solver
        # at seed 2 an in-order d=3 wedge walk moves rho by 1 ulp
        for seed in (4, 2):
            want = per_pair_rho(ks, 0.8, 0.5, 10, n_pairs, 16, seed)
            assert contraction_rate(ks, 0.8, eps=0.5, n=10, n_pairs=n_pairs,
                                    n_paths=16, seed=seed) == want

    def test_rho_walks_one_chain(self, small_solver, monkeypatch):
        built = []

        def counting_chain(*args):
            built.append(args[1])
            return TiltedChain(*args)

        monkeypatch.setattr(spectrum, "TiltedChain", counting_chain)
        contraction_rate(small_solver, 0.8, eps=0.5, n=5, n_pairs=11, n_paths=4, seed=2)
        assert built == [[0.8]]

import numpy as np
import pytest
from scipy import sparse

from matspec.ensemble import LinearEnsemble, transpose
from matspec.ensembles import affine_3d, ip_2d, ip_affine_2d, rotations_2d
from matspec.projective import (
    GridFunction,
    GridMeasure,
    act_many,
    build_grid,
    interp_stencil,
    interpolate,
)
from matspec.spectrum import lyapunov, solve_alpha
from matspec.transfer import (
    TOL,
    KSolver,
    TiltedChain,
    TransferOperator,
    pairing_p,
    power_iterate,
    tilted_probs,
)


@pytest.fixture(scope="module")
def grid128():
    return build_grid(2, 128, "projective")


def similarity_k(s):
    return 0.4 * 2.0**s + 0.6 * (1.0 / 3.0) ** s


class TestApply:
    def test_s0_constant_preserved(self, similarity, grid128):
        f = GridFunction(grid128, np.ones(128))
        out = TransferOperator(similarity, grid128).matrix(0.0) @ f.values
        assert np.allclose(out, 1.0, atol=1e-12)

    def test_similarity_constant_value(self, similarity, grid128):
        # |g_i x| = r_i for every x, so P^s 1 = sum w_i r_i^s exactly
        f = GridFunction(grid128, np.ones(128))
        for s in (0.5, 1.0, 2.0):
            out = TransferOperator(similarity, grid128).matrix(s) @ f.values
            assert np.allclose(out, similarity_k(s), rtol=1e-12)

    def test_kesten_closed_form_mellin(self, kesten):
        grid = build_grid(1, 1, "projective")
        f = GridFunction(grid, np.ones(1))
        out = TransferOperator(kesten, grid).matrix(1.0) @ f.values
        assert abs(out[0] - 1.0) < 1e-14  # 0.4*2 + 0.6/3 = 1

    def test_adjoint_mass_preserved_by_isometries(self, grid128):
        e = rotations_2d()
        sigma = GridMeasure(grid128, grid128.quadrature_weights.copy())
        out = TransferOperator(e, grid128).matrix(0.0).T @ sigma.masses
        assert abs(out.sum() - 1.0) < 1e-12

    def test_identity_atom_preserves_measure(self, grid128):
        e = LinearEnsemble(2, np.array([np.eye(2)]), np.array([1.0]))
        rng = np.random.default_rng(0)
        masses = rng.random(128)
        sigma = GridMeasure(grid128, masses)
        out = TransferOperator(e, grid128).matrix(0.7).T @ sigma.masses
        assert np.allclose(out, masses, atol=1e-12)

    def test_duality_random_f_sigma(self, ip, grid128):
        rng = np.random.default_rng(1)
        f = rng.standard_normal(128)
        sigma = rng.random(128)
        P = TransferOperator(ip, grid128).matrix(0.8)
        lhs = np.sum((P @ f) * sigma)
        rhs = np.sum(f * (P.T @ sigma))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def repeated_atoms(d):
    """Two atoms with one projective action, so every row of P^s holds each
    stencil column twice."""
    g = rotations_2d().matrices[0] if d == 2 else affine_3d().linear_part.matrices[1]
    return LinearEnsemble(d, np.array([1.7 * g, 0.4 * g]), np.array([0.3, 0.7]))


class TestMatVecMatchesSparse:
    """P^s @ f, its transpose @ sigma and dP^s/ds @ f equal the products of
    a scipy CSR matrix on the same arrays, bit for bit."""

    @pytest.mark.parametrize("case", ["ip_2d", "repeated_2d", "affine_3d", "repeated_3d"])
    def test_bit_for_bit(self, case):
        e, grid = {
            "ip_2d": (ip_2d(), build_grid(2, 256, "projective")),
            "repeated_2d": (repeated_atoms(2), build_grid(2, 64, "projective")),
            "affine_3d": (affine_3d().linear_part, build_grid(3, 128, "projective")),
            "repeated_3d": (repeated_atoms(3), build_grid(3, 64, "projective")),
        }[case]
        op = TransferOperator(e, grid)
        n, row_len = op._indices.shape
        if case.startswith("repeated"):
            assert all(len(set(row)) < row_len for row in op._indices)
        indptr = np.arange(0, n * row_len + 1, row_len)
        rng = np.random.default_rng(5)
        f, sigma = rng.random(n), rng.random(n)
        for s in (0.0, 0.7, 1.9):
            for mine in (op.matrix(s), op.derivative(s)):
                ref = sparse.csr_matrix((mine._data.ravel(), op._indices.ravel(), indptr),
                                        shape=(n, n))
                for got, want in ((mine @ f, ref @ f), (mine.T @ sigma, ref.T @ sigma)):
                    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestPowerIterate:
    def test_k0_is_one_exactly(self, kesten, similarity, ip, grid128):
        grid1 = build_grid(1, 1, "projective")
        assert KSolver(kesten, grid1).point(0.0).k == 1.0
        assert KSolver(similarity, grid128).point(0.0).k == 1.0
        assert KSolver(ip, grid128).point(0.0).k == 1.0

    def test_similarity_eigenfunction_constant(self, similarity, grid128):
        sp = KSolver(similarity, grid128).point(1.0)
        assert abs(sp.k - 1.0) < 1e-10  # k(1) = 0.4*2 + 0.6/3 = 1
        assert sp.e.values.max() - sp.e.values.min() < 1e-6

    def test_kesten_half_exponent(self, kesten):
        grid1 = build_grid(1, 1, "projective")
        sp = KSolver(kesten, grid1).point(0.5)
        exact = 0.4 * np.sqrt(2.0) + 0.6 / np.sqrt(3.0)
        assert abs(sp.k - exact) < 1e-12
        assert abs(exact - 0.9121) < 1e-4  # 0.4*sqrt(2) + 0.6/sqrt(3)

    def test_normalization_contract(self, ip, ip_solver, ip_alpha):
        sp = ip_solver.point(ip_alpha)
        assert np.all(sp.e.values > 0)
        assert np.all(sp.nu.masses >= 0)
        assert abs(sp.nu.masses.sum() - 1.0) < 1e-12
        assert abs(np.sum(sp.e.values * sp.nu.masses) - 1.0) < 1e-8

    def test_residual_contract(self, ip, ip_solver, ip_alpha):
        sp = ip_solver.point(ip_alpha)
        P = TransferOperator(ip, sp.e.grid).matrix(ip_alpha)
        resid = np.max(np.abs(P @ sp.e.values - sp.k * sp.e.values))
        assert resid <= 10 * TOL * np.max(sp.e.values)

    def test_log_convexity_discrete(self, ip, ip_solver):
        s_vals = np.linspace(0.1, 2.0, 12)
        logk = np.log([ip_solver.k(s) for s in s_vals])
        second = np.diff(logk, 2)
        assert np.all(second >= -1e-8)

    def test_transpose_same_k(self, ip, grid128):
        for s in (0.4, 1.0, 1.6):
            k1 = KSolver(ip, grid128).point(s).k
            k2 = KSolver(transpose(ip), grid128).point(s).k
            assert abs(k1 - k2) < 2e-8

    def test_transpose_same_k_closed_form_1d(self, kesten):
        # in d=1 transposing changes no atom, so the Mellin sums are one sum
        for s in (0.3, 1.0, 2.2):
            assert KSolver(kesten).k(s) == KSolver(transpose(kesten)).k(s)

    def test_d1_grid_route_is_the_mellin_sum(self, kesten):
        # the single node of d=1 carries k(s) = 0.4 2^s + 0.6 3^-s and its
        # Hellmann-Feynman derivative, with no closed form beside the solver;
        # k' cancels near the minimum of k, so its error is relative to k,
        # the scale of L = k'/k
        ks = KSolver(kesten)
        for s in (0.0, 0.5, 1.0, 1.5, 2.0):
            k = 0.4 * 2.0**s + 0.6 * 3.0**-s
            k_prime = 0.4 * 2.0**s * np.log(2.0) - 0.6 * 3.0**-s * np.log(3.0)
            assert abs(ks.k(s) - k) <= 4e-16 * k
            assert abs(ks.k_prime(s) - k_prime) <= 4e-16 * k
        assert ks.k(0.0) == 1.0

    def test_grid_refinement_budget(self, ip):
        k_coarse = KSolver(ip, build_grid(2, 128, "projective")).point(1.0).k
        k_mid = KSolver(ip, build_grid(2, 256, "projective")).point(1.0).k
        k_fine = KSolver(ip, build_grid(2, 512, "projective")).point(1.0).k
        # refinement differences must shrink (factor ~4 for linear interp)
        assert abs(k_fine - k_mid) < abs(k_mid - k_coarse)
        assert abs(k_fine - k_mid) < 1e-4

    def test_warm_start_matches_cold(self, ip, grid128):
        op = TransferOperator(ip, grid128)
        near = power_iterate(op, 1.0)
        cold = power_iterate(op, 1.05)
        warm = power_iterate(op, 1.05, start=near)
        assert warm.converged and cold.converged
        assert abs(warm.k - cold.k) < 1e-10
        assert np.max(np.abs(warm.e.values - cold.e.values)) < 1e-8
        assert warm.iterations < cold.iterations

    def test_negative_exponent_rejected(self, similarity, grid128):
        # one check, where every solve builds its P^s, serves every route
        ks = KSolver(similarity, grid128)
        for call in (ks.point, ks.k, ks.k_prime,
                     lambda s: lyapunov(ks, s, "quadrature"),
                     lambda s: lyapunov(ks, s, "tilted_mc")):
            with pytest.raises(ValueError, match="negative"):
                call(-0.5)
        assert not ks._points

    def test_solved_reads_star_only_once_built(self, ip, grid128):
        # the CLI checks every solve of a run through solved(), which must
        # not build the transposed solver of a run that never used it
        ks = KSolver(ip, grid128)
        sp = ks.point(1.0)
        assert [p is sp for p in ks.solved()] == [True] and ks._star is None
        sp_star = ks.star.point(0.5)
        assert [p is q for p, q in zip(ks.solved(), (sp, sp_star))] == [True, True]
        assert len(ks.solved()) == 2


def perron_pair(a):
    """The real eigenvalue of largest real part of a dense matrix, and its
    eigenvector signed to a positive sum."""
    vals, vecs = np.linalg.eig(a)
    i = np.where(vals.imag == 0.0, vals.real, -np.inf).argmax()
    v = vecs[:, i].real
    return vals[i].real, v if v.sum() > 0 else -v


class TestDenseReference:
    """The Arnoldi solve against numpy's dense eigen-decomposition of P^s,
    assembled column by column from P^s @ I."""

    @pytest.mark.parametrize("case", ["ip_2d", "affine_3d"])
    @pytest.mark.parametrize("s", [0.0, 1.0, 2.0])
    def test_matches_dense_eig(self, case, s):
        e, grid = {
            "ip_2d": (ip_2d(), build_grid(2, 128, "projective")),
            "affine_3d": (affine_3d().linear_part, build_grid(3, 64, "projective")),
        }[case]
        ks = KSolver(e, grid)
        sp = ks.point(s)
        P = ks.op.matrix(s)
        dense = np.stack([P @ col for col in np.eye(grid.n_nodes)], axis=1)
        k, e_ref = perron_pair(dense)
        _, nu_ref = perron_pair(dense.T)
        assert sp.converged
        assert abs(sp.k - k) < 1e-11
        e_ref /= e_ref.max()
        assert np.max(np.abs(sp.e.values / sp.e.values.max() - e_ref)) < 1e-8
        assert np.abs(sp.nu.masses - nu_ref / nu_ref.sum()).sum() < 1e-8
        assert np.all(sp.e.values > 0) and np.all(sp.nu.masses >= 0)


def test_eigenmeasure_with_empty_nodes_stays_nonnegative():
    # the linear part of ip_affine_2d leaves whole arcs of nodes without
    # eigenmeasure mass; Ritz vectors put rounding-level negative masses
    # there, which the solve must clip before building its GridMeasure
    lin = ip_affine_2d().linear_part
    ks = KSolver(lin, build_grid(2, 512, "projective"))
    solve_alpha(ks)
    for s in (0.0, 0.5, 1.0, 2.0):
        ks.point(s)
    points = list(ks._points.values())
    assert len(points) >= 9
    assert any(np.any(sp.nu.masses == 0.0) for sp in points)
    for sp in points:
        assert sp.converged
        assert sp.residual_e < TOL and sp.residual_nu < TOL
        assert np.all(sp.nu.masses >= 0) and np.all(sp.e.values > 0)


class TestCrossCheck:
    def test_s0_both_sides_one(self, ip, grid128):
        ks = KSolver(ip, grid128)
        p, residual_p = pairing_p(ks.point(0.0), ks.star.point(0.0))
        # p(0) = 1 and e^0 = 1: residual is pure quadrature error
        assert abs(p - 1.0) < 1e-10
        assert residual_p < 1e-8

    def test_similarity_by_symmetry(self, similarity):
        ks = KSolver(similarity, build_grid(2, 512, "projective"))
        assert pairing_p(ks.point(1.0), ks.star.point(1.0))[1] < 1e-3

    def test_pairing_blocks_match_dense_kernel(self, ip):
        # 1024 nodes: the kernel is formed in four blocks of rows
        ks = KSolver(ip, build_grid(2, 1024, "projective"))
        sp, sp_star = ks.point(1.3), ks.star.point(1.3)
        nodes = sp.nu.grid.nodes
        kernel = np.abs(nodes @ nodes.T) ** 1.3
        rhs = kernel @ sp_star.nu.masses
        p = sp.nu.masses @ rhs
        got_p, got_res = pairing_p(sp, sp_star)
        assert abs(got_p - p) <= 4 * np.spacing(p)
        assert abs(got_res - np.max(np.abs(p * sp.e.values - rhs)) / np.max(sp.e.values)) < 1e-15

    def test_ip_two_resolution_consistency(self, ip, ip_alpha):
        res = {}
        for n in (256, 512):
            grid = build_grid(2, n, "projective")
            ks = KSolver(ip, grid)
            res[n] = pairing_p(ks.point(ip_alpha), ks.star.point(ip_alpha))[1]
        assert res[512] < res[256]
        assert res[256] < 2e-3


def kernel_at(ks, s, x):
    """The tilted kernel (probabilities, normalizer) at one direction x, of
    a one-point chain of ks at s."""
    xs = np.atleast_2d(x)
    chain = TiltedChain(ks, [s], [xs])
    probs, norm, _, _, _ = tilted_probs(ks.ensemble, chain, xs, interpolate(ks.point(s).e, xs))
    return probs[:, 0], norm[0]


class TestTiltedKernel:
    def test_s0_gives_weights(self, ip, grid128):
        ks = KSolver(ip, grid128)
        probs, _ = kernel_at(ks, 0.0, grid128.nodes[3])
        assert np.allclose(probs, ip.weights, atol=1e-10)

    def test_similarity_tilt(self, similarity, grid128):
        ks = KSolver(similarity, grid128)
        probs, norm = kernel_at(ks, 1.0, grid128.nodes[10])
        expected = np.array([0.4 * 2.0, 0.6 / 3.0]) / similarity_k(1.0)
        assert np.allclose(probs, expected, atol=1e-8)
        assert abs(norm - similarity_k(1.0)) < 1e-8

    def test_normalizer_tracks_k(self, ip, ip_solver, ip_alpha):
        sp = ip_solver.point(ip_alpha)
        rng = np.random.default_rng(7)
        for _ in range(16):
            x = rng.standard_normal(2)
            x /= np.linalg.norm(x)
            _, norm = kernel_at(ip_solver, ip_alpha, x)
            assert abs(norm / sp.k - 1.0) < 10 * 1e-3  # interpolation budget


def atomwise_tilted_probs(e, sp, xs, e_xs):
    """Reference kernel: each atom's images from its own act_many."""
    M, d = xs.shape
    images = np.empty((M, e.n_atoms, d))
    lognorms = np.empty((M, e.n_atoms))
    for i, g in enumerate(e.matrices):
        images[:, i], lognorms[:, i] = act_many(g, xs)
    e_img = interpolate(sp.e, images.reshape(-1, d)).reshape(M, e.n_atoms)
    raw = e.weights * np.exp(sp.s * lognorms) * e_img / e_xs[:, None]
    normalizer = raw.sum(axis=1)
    return raw / normalizer[:, None], normalizer, images, lognorms, e_img


@pytest.mark.parametrize("case", ["ip_2d", "odd_n", "affine_3d", "nine_atoms"])
def test_tilted_probs_equals_atomwise_reference(case):
    e = affine_3d().linear_part if case == "affine_3d" else ip_2d()
    if case == "nine_atoms":  # numpy sums 8 or more terms pairwise
        rng = np.random.default_rng(3)
        e = LinearEnsemble(2, 0.8 * rng.standard_normal((9, 2, 2)),
                           np.full(9, 1.0 / 9.0))
    grid = {"ip_2d": build_grid(2, 512, "projective"),
            "odd_n": build_grid(2, 101, "projective"),
            "affine_3d": build_grid(3, 128, "projective"),
            "nine_atoms": build_grid(2, 64, "projective")}[case]
    ks = KSolver(e, grid)
    sp = ks.point(0.9)
    rng = np.random.default_rng(11)
    xs = rng.standard_normal((3000, e.dimension))
    xs = np.vstack([xs / np.linalg.norm(xs, axis=1, keepdims=True), grid.nodes])
    e_xs = interpolate(sp.e, xs)
    chain = TiltedChain(ks, [0.9], [xs])
    fused = tilted_probs(e, chain, xs, e_xs)  # rows last: each reference array transposed
    for got, want in zip(fused, atomwise_tilted_probs(e, sp, xs, e_xs)):
        assert np.array_equal(got, want.T)


@pytest.fixture(scope="module", params=[2, 3], ids=["ip_2d", "affine_3d"])
def chain_case(request):
    """(solver, alpha) in d = 2 and d = 3."""
    if request.param == 2:
        e, grid = ip_2d(), build_grid(2, 128, "projective")
    else:
        e, grid = affine_3d().linear_part, build_grid(3, 64, "projective")
    ks = KSolver(e, grid)
    return ks, solve_alpha(ks)


def assert_log_lr_is_direct(ks, s_values, sizes):
    """sum log w_i - sum log q_k over the chosen atoms is the likelihood
    ratio of the untilted walk against the simulated chain; the kernel of
    each block of rows is that of its own exponent."""
    e = ks.ensemble
    rng = np.random.default_rng(5)
    blocks = []
    for size in sizes:
        x0 = rng.standard_normal((size, e.dimension))
        blocks.append(x0 / np.linalg.norm(x0, axis=1, keepdims=True))
    chain = TiltedChain(ks, s_values, blocks)
    ends = np.cumsum(sizes)
    rows = np.arange(ends[-1])
    direct = np.zeros(ends[-1])
    for _ in range(30):
        # each block's kernel from a one-point chain at the block's rows
        probs = np.concatenate([
            tilted_probs(e, TiltedChain(ks, [s], [chain.x[end - size:end]]),
                         chain.x[end - size:end], chain.e_x[end - size:end])[0]
            for s, size, end in zip(s_values, sizes, ends)], axis=1)
        atom, _ = chain.step(rng.random(ends[-1]))
        direct += np.log(e.weights[atom]) - np.log(probs[atom, rows])
    assert np.max(np.abs(chain.log_lr() - direct)) < 1e-12


class TestTiltedChain:
    def test_log_lr_is_direct_likelihood_ratio(self, chain_case):
        ks, alpha = chain_case
        assert_log_lr_is_direct(ks, [alpha], [40])

    def test_stack_log_lr_is_direct_likelihood_ratio(self, chain_case):
        ks, alpha = chain_case
        assert_log_lr_is_direct(ks, [alpha, 0.5 * alpha, alpha], [7, 20, 13])

    def test_stack_rows_equal_single_point_chains(self, chain_case):
        # a stack steps each block as a chain at its own exponent would
        ks, alpha = chain_case
        s_values = [alpha, 0.5 * alpha]
        rng = np.random.default_rng(8)
        blocks = [np.tile(np.eye(ks.ensemble.dimension)[i], (n, 1))
                  for i, n in ((0, 6), (1, 9))]
        stack = TiltedChain(ks, s_values, blocks)
        singles = [TiltedChain(ks, [s], [b]) for s, b in zip(s_values, blocks)]
        for _ in range(15):
            u = rng.random(15)
            got, _ = stack.step(u)
            want = [c.step(part)[0] for c, part in zip(singles, (u[:6], u[6:]))]
            assert np.array_equal(got, np.concatenate(want))
        for name in ("x", "e_x", "logmag", "lognorm"):
            assert np.array_equal(getattr(stack, name), np.concatenate(
                [getattr(c, name) for c in singles]))
        assert np.array_equal(stack.log_lr(),
                              np.concatenate([c.log_lr() for c in singles]))

    def test_carried_e_is_interpolated_e(self, chain_case):
        ks, alpha = chain_case
        rng = np.random.default_rng(6)
        chain = TiltedChain(ks, [alpha], [np.tile(np.eye(ks.ensemble.dimension)[0], (25, 1))])
        for _ in range(20):
            chain.step(rng.random(25))
            assert np.all(chain.e_x == interpolate(ks.point(alpha).e, chain.x))

    def test_kept_rows_equal_rows_of_full_chain(self, chain_case):
        # rows dropped across both blocks of a stack leave the kept rows
        # stepping, tilting and weighing as in a chain that drops none
        ks, alpha = chain_case
        s_values = [alpha, 0.5 * alpha]
        rng = np.random.default_rng(7)
        blocks = [rng.standard_normal((n, ks.ensemble.dimension)) for n in (6, 9)]
        blocks = [b / np.linalg.norm(b, axis=1, keepdims=True) for b in blocks]
        full, kept = TiltedChain(ks, s_values, blocks), TiltedChain(ks, s_values, blocks)
        drops = {1: [1, 12], 4: [4], 6: [7, 8, 14], 9: [0]}  # rows by first number
        ids = np.arange(15)
        for step in range(12):
            u = rng.random(15)
            full_atom, _ = full.step(u)
            atom, _ = kept.step(u[kept.ids])
            assert np.array_equal(atom, full_atom[ids])
            live = ~np.isin(ids, drops.get(step, []))
            kept.keep(live)
            ids = ids[live]
            assert np.array_equal(kept.ids, ids)
            for name in ("x", "e_x", "logmag", "lognorm"):
                assert np.array_equal(getattr(kept, name), getattr(full, name)[ids])
            assert np.array_equal(kept.log_lr(), full.log_lr()[ids])

    def test_log_lr_at_rows_is_the_full_log_lr_at_those_rows(self, chain_case):
        # on a stack of two exponents, rows in any order and repeated
        ks, alpha = chain_case
        rng = np.random.default_rng(11)
        blocks = [rng.standard_normal((n, ks.ensemble.dimension)) for n in (8, 5)]
        blocks = [b / np.linalg.norm(b, axis=1, keepdims=True) for b in blocks]
        chain = TiltedChain(ks, [alpha, 0.5 * alpha], blocks)
        for _ in range(10):
            chain.step(rng.random(13))
        for rows in (np.arange(13), np.array([12, 0, 7, 8, 8]), np.array([], dtype=np.intp)):
            got, want = chain.log_lr(rows), chain.log_lr()[rows]
            assert got.tobytes() == want.tobytes()

    def test_keep_equals_boolean_indexing(self, chain_case):
        # every row array after keep(mask) is the boolean-indexed one, for a
        # mixed, an all-True and an all-False mask, and the store stays
        # rows last
        ks, alpha = chain_case
        d = ks.ensemble.dimension
        rng = np.random.default_rng(14)
        blocks = [rng.standard_normal((n, d)) for n in (11, 17)]
        blocks = [b / np.linalg.norm(b, axis=1, keepdims=True) for b in blocks]
        chain = TiltedChain(ks, [alpha, 0.5 * alpha], blocks)
        names = ("x", "e_x", "logmag", "lognorm", "ids", "s", "offset")
        for step in range(3):
            chain.step(rng.random(len(chain.ids)))
            n = len(chain.ids)
            mask = (rng.random(n) < 0.5, np.ones(n, bool), np.zeros(n, bool))[step]
            want = {name: getattr(chain, name)[mask] for name in names}
            want_lr = chain.log_lr()[mask]
            chain.keep(mask)
            for name in names:
                assert np.array_equal(getattr(chain, name), want[name]), name
                assert getattr(chain, name).dtype == want[name].dtype, name
            assert np.array_equal(chain.log_lr(), want_lr)
            assert np.all(np.diff(chain.ids) > 0)
            assert chain.x.shape == (mask.sum(), d) and chain.x.T.flags.c_contiguous
        assert chain.ids.size == 0

    def test_rows_last_chain_equals_rows_first_reference(self, chain_case):
        # the chain keeps its rows last and its work arrays across steps;
        # the rows-first chain it replaced reads the same bits, also after
        # compaction below half the first row count
        ks, alpha = chain_case
        s_values = [alpha, 0.5 * alpha]
        rng = np.random.default_rng(12)
        blocks = [rng.standard_normal((n, ks.ensemble.dimension)) for n in (40, 60)]
        blocks = [b / np.linalg.norm(b, axis=1, keepdims=True) for b in blocks]
        chain = TiltedChain(ks, s_values, blocks)
        ref = RowsFirstChain(ks.ensemble, [ks.point(s) for s in s_values], blocks)
        for step in range(64):
            u = rng.random(len(ref.ids))
            atom, ln = chain.step(u)
            ref_atom, ref_ln = ref.step(u)
            assert np.array_equal(atom, ref_atom) and np.array_equal(ln, ref_ln)
            if step in (8, 16, 24, 32):
                live = rng.random(len(ref.ids)) >= 0.3
                chain.keep(live)
                ref.keep(live)
            for name in ("x", "e_x", "logmag", "lognorm", "ids"):
                assert np.array_equal(getattr(chain, name), getattr(ref, name)), name
            assert np.array_equal(chain.log_lr(), ref.log_lr())
        assert len(ref.ids) < 50

    def test_held_arrays_keep_their_values(self, chain_case):
        # step binds new arrays to x, e_x and logmag, so arrays read before
        # a step (dual_walk_simulate's u = chain.x) outlive it unchanged
        ks, alpha = chain_case
        rng = np.random.default_rng(13)
        x0 = rng.standard_normal((30, ks.ensemble.dimension))
        chain = TiltedChain(ks, [alpha], [x0 / np.linalg.norm(x0, axis=1, keepdims=True)])
        chain.step(rng.random(30))
        held = [chain.x, chain.e_x, chain.logmag]
        copies = [a.copy() for a in held]
        for _ in range(2):
            chain.step(rng.random(30))
            assert not np.array_equal(chain.x, copies[0])
            for a, c in zip(held, copies):
                assert np.array_equal(a, c)


def sum_last(a):
    """a.sum(axis=-1) with numpy's order: fewer than 8 terms in order,
    pairwise beyond that."""
    if a.shape[-1] >= 8:
        return a.sum(axis=-1)
    out = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        out += a[..., j]
    return out


class RowsFirstChain:
    """Reference: the tilted chain with its rows first, as it stood before
    the rows-last layout.  Rows are (M, d), the kernel's arrays (M, m) and
    the stencil of the images (M * m, k); every array is new on each step."""

    def __init__(self, e, points, x0):
        counts = [len(b) for b in x0]
        self.e, self.grid = e, points[0].e.grid
        self.values = np.concatenate([p.e.values for p in points])
        self.s = np.repeat([p.s for p in points], counts)
        self.offset = np.repeat(np.arange(len(points)) * self.grid.n_nodes, counts)
        self.x = np.concatenate(x0)
        self.e_x = np.concatenate([interpolate(p.e, b) for p, b in zip(points, x0)])
        self.log_e_x0 = np.log(self.e_x)
        self.logmag = np.zeros(len(self.x))
        self.lognorm = np.zeros(len(self.x))
        self.ids = np.arange(len(self.x))

    def kernel(self):
        e, xs = self.e, self.x
        (M, d), m = xs.shape, e.n_atoms
        gx = (xs @ e.matrices.transpose(2, 0, 1).reshape(d, m * d)).reshape(M, m, d)
        norms = np.sqrt(sum_last(gx * gx))
        images = gx / norms[:, :, None]
        lognorms = np.log(norms)
        idx, w = (a.T for a in interp_stencil(self.grid, images.reshape(M * m, d)))
        terms = self.values.take(idx + np.repeat(self.offset, m)[:, None]) * w
        e_img = sum_last(terms).reshape(M, m)
        probs = np.exp(lognorms * self.s[:, None]) * e.weights * e_img / self.e_x[:, None]
        normalizer = sum_last(probs)
        return probs / normalizer[:, None], normalizer, images, lognorms, e_img

    def step(self, u):
        probs, normalizer, images, lognorms, e_img = self.kernel()
        n, m = lognorms.shape
        atom = np.zeros(n, dtype=np.intp)
        cdf = np.zeros(n)
        for j in range(m - 1):
            cdf += probs[:, j]
            atom += u > cdf
        drawn = np.arange(n) * m + atom
        ln = lognorms.take(drawn)
        self.x = images.reshape(n * m, -1).take(drawn, axis=0)
        self.e_x = e_img.take(drawn)
        self.logmag = self.logmag + ln
        self.lognorm = self.lognorm + np.log(normalizer)
        return atom, ln

    def keep(self, live):
        for name in ("x", "e_x", "log_e_x0", "logmag", "lognorm", "ids", "s", "offset"):
            setattr(self, name, getattr(self, name)[live])

    def log_lr(self):
        return self.log_e_x0 - np.log(self.e_x) - self.s * self.logmag + self.lognorm


class TestOtherDimensions:
    def test_d3_similarity_closed_form(self):
        # block rotation keeps |g x| direction-independent in d=3
        def rot3(t):
            c, s = np.cos(t), np.sin(t)
            return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

        flip = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        e = LinearEnsemble(
            3,
            np.array([2.0 * rot3(1.0), (1.0 / 3.0) * (flip @ rot3(0.5))]),
            np.array([0.4, 0.6]),
        )
        grid = build_grid(3, 600, "projective")
        for s in (0.0, 1.0):
            sp = KSolver(e, grid).point(s)
            exact = 0.4 * 2.0**s + 0.6 / 3.0**s
            assert abs(sp.k - exact) < 1e-8
            assert sp.e.values.std() < 1e-6

    def test_d1_single_node(self, kesten):
        grid = build_grid(1, 2, "projective")
        sp = KSolver(kesten, grid).point(0.5)
        exact = 0.4 * np.sqrt(2.0) + 0.6 / np.sqrt(3.0)
        assert abs(sp.k - exact) < 1e-10
        # one node, so the eigenmeasure is its unit mass
        assert np.array_equal(sp.nu.masses, [1.0])

    def test_d1_sign_flip(self):
        e = LinearEnsemble(1, np.array([[[-2.0]], [[1 / 3]]]),
                           np.array([0.4, 0.6]))
        grid = build_grid(1, 2, "projective")
        sp = KSolver(e, grid).point(1.0)
        assert abs(sp.k - 1.0) < 1e-12  # |a| enters, not the sign


import tracemalloc

import numpy as np
import pytest

from matspec.ensemble import AffineEnsemble, quantile
from matspec.ensembles import (
    affine_3d,
    ip_affine_2d,
    kesten_affine_1d,
    kesten_symmetric_affine_1d,
    positive_affine_2d,
)
from matspec.recursion import (
    TailSampleBank,
    _largest,
    classify_tail_case,
    empirical_tail,
    hill_estimator,
    hill_stability,
    mellin_profile,
    moment_check,
    sample_stationary,
)
from matspec.rng import stream
from matspec.transfer import KSolver


def untruncated_sum(ae, n_steps, n, seed):
    """The backward sums of chunk 0's atoms, every row run to n_steps."""
    rng = stream(seed, 0)
    d = ae.dimension
    prod = np.broadcast_to(np.eye(d), (n, d, d)).copy()
    r = np.zeros((n, d))
    for _ in range(n_steps):
        idx = rng.choice(ae.n_atoms, size=n, p=ae.weights)
        r += np.einsum("nij,nj->ni", prod, ae.translations[idx])
        prod = prod @ ae.matrices[idx]
    return r


def pareto_bank(n, alpha=1.0, seed=0):
    rng = np.random.default_rng(seed)
    samples = rng.random((n, 1)) ** (-1.0 / alpha)  # P(X > t) = t^-alpha, t >= 1
    return TailSampleBank("synthetic", samples, 0, seed, 0.0, 0.0, False)


class TestSampling:
    def test_deterministic_geometric_series(self):
        ae = AffineEnsemble(1, np.array([[[0.5]]]), np.array([[3.0]]),
                            np.array([1.0]), allow_fixed_point=True)
        bank = sample_stationary(ae, 200, 50, seed=1)
        assert np.allclose(bank.samples, 6.0, atol=1e-9)

    def test_zero_translation_gives_zero(self):
        ae = AffineEnsemble(1, np.array([[[0.5]], [[0.25]]]),
                            np.array([[0.0], [0.0]]), np.array([0.5, 0.5]),
                            allow_fixed_point=True)
        bank = sample_stationary(ae, 100, 50, seed=1)
        assert np.all(bank.samples == 0.0)

    def test_kesten_median_positive_mean_critical(self, kesten_bank_small):
        bank = kesten_bank_small
        # E A = 1 exactly: the mean is critical/divergent, the median finite
        assert np.median(bank.samples) > 1.0
        assert np.all(bank.samples > 0)
        assert not bank.under_converged

    def test_reproducible_bit_for_bit(self, kesten_affine):
        b1 = sample_stationary(kesten_affine, 300, 20_000, seed=77)
        b2 = sample_stationary(kesten_affine, 300, 20_000, seed=77)
        assert np.array_equal(b1.samples, b2.samples)
        assert b1.truncation_diag == b2.truncation_diag

    def test_worker_count_never_changes_results(self, kesten_affine):
        b1 = sample_stationary(kesten_affine, 300, 200_000, seed=5, n_workers=1)
        b4 = sample_stationary(kesten_affine, 300, 200_000, seed=5, n_workers=4)
        assert np.array_equal(b1.samples, b4.samples)

    @pytest.mark.parametrize("make, n_steps", [
        (kesten_affine_1d, 400), (ip_affine_2d, 1000), (affine_3d, 1000)])
    def test_retired_rows_match_untruncated_sum(self, make, n_steps):
        ae = make()
        bank = sample_stationary(ae, n_steps, 2000, seed=3)
        ref = untruncated_sum(ae, n_steps, 2000, seed=3)
        got = bank.samples.reshape(2000, -1)
        rel = np.linalg.norm(got - ref, axis=1) / np.linalg.norm(ref, axis=1)
        assert rel.max() <= 1e-12
        assert bank.row_steps < 2000 * bank.last_step  # rows did retire early

    @pytest.mark.parametrize("make", [ip_affine_2d, affine_3d])
    def test_bank_reproducible_for_any_worker_count(self, make):
        ae = make()
        b1 = sample_stationary(ae, 1000, 2000, seed=8, chunk=500)
        again = sample_stationary(ae, 1000, 2000, seed=8, chunk=500)
        b4 = sample_stationary(ae, 1000, 2000, seed=8, chunk=500, n_workers=4)
        assert np.array_equal(b1.samples, again.samples)
        assert np.array_equal(b1.samples, b4.samples)
        assert (b1.truncation_diag, b1.row_steps, b1.last_step) == (
            b4.truncation_diag, b4.row_steps, b4.last_step)

    def test_growing_rows_run_to_n_steps(self):
        ae = AffineEnsemble(1, np.array([[[2.0]], [[1.5]]]),
                            np.array([[1.0], [2.0]]), np.array([0.5, 0.5]))
        bank = sample_stationary(ae, 200, 100, seed=1, lyapunov_negative=True)
        assert bank.last_step == 200
        assert bank.row_steps == 100 * 200
        assert np.array_equal(bank.samples, untruncated_sum(ae, 200, 100, 1))

    @pytest.mark.parametrize("n_steps, n_samples", [(0, 10), (10, 0)])
    def test_empty_bank_rejected(self, kesten_affine, n_steps, n_samples):
        with pytest.raises(ValueError, match="positive"):
            sample_stationary(kesten_affine, n_steps, n_samples, seed=1)

    def test_expanding_recursion_aborts(self):
        # only lyapunov_negative=True, a verified contraction, skips the check
        ae = AffineEnsemble(1, np.array([[[2.0]], [[1.5]]]),
                            np.array([[1.0], [2.0]]), np.array([0.5, 0.5]))
        for given in ({}, {"lyapunov_negative": False}):
            with pytest.raises(RuntimeError, match="Lyapunov"):
                sample_stationary(ae, 200, 100, seed=1, **given)


class TestHill:
    def test_pareto_calibration(self):
        # fixed seed: a 95% CI misses 5% of the time by construction
        bank = pareto_bank(100_000, alpha=1.0, seed=2)
        a_hat, ci = hill_estimator(bank.norms(), k_order=1000)
        assert ci[0] <= 1.0 <= ci[1]

    def test_pareto_alpha_2(self):
        bank = pareto_bank(100_000, alpha=2.0, seed=4)
        a_hat, ci = hill_estimator(bank.norms(), k_order=1000)
        assert ci[0] <= 2.0 <= ci[1]

    def test_bounded_input_flagged(self):
        rng = np.random.default_rng(5)
        stab = hill_stability(rng.random(50_000))
        assert not stab["power_tail"]

    def test_pareto_stability_ok(self):
        bank = pareto_bank(100_000, seed=6)
        assert hill_stability(bank.norms())["power_tail"]

    def test_kesten_hill_near_one(self, kesten_bank_small):
        a_hat, ci = hill_estimator(kesten_bank_small.norms(), k_order=2000)
        assert ci[0] <= 1.0 <= ci[1]
        # spectral truth is alpha = 1; CI must meet [0.9, 1.1]
        assert ci[0] < 1.1 and ci[1] > 0.9

    def test_k_order_too_large(self, kesten_bank_small):
        with pytest.raises(ValueError, match="k_order"):
            hill_estimator(kesten_bank_small.norms(), kesten_bank_small.n_samples)

    def test_directional_statistic_needs_positives(self):
        bank = TailSampleBank("synthetic", -np.ones((100, 1)), 0, 0, 0.0, 0.0, False)
        with pytest.raises(ValueError, match="positive"):
            hill_estimator(bank.directional(np.array([1.0])), k_order=10)


class TestEmpiricalTail:
    def test_pareto_plateau_is_one(self):
        bank = pareto_bank(1_000_000, seed=7)
        res = empirical_tail(bank, np.array([1.0]), alpha=1.0)
        assert abs(res["plateau"] - 1.0) < 0.1
        assert res["ci"][0] < 1.0 < res["ci"][1]

    def test_kesten_positive_at_95(self, kesten_bank_small):
        res = empirical_tail(kesten_bank_small, np.array([1.0]), alpha=1.0)
        assert res["ci"][0] > 0.0
        assert res["plateau"] > 0.0

    def test_insufficient_exceedances(self):
        bank = TailSampleBank("synthetic", np.full((50, 1), 2.0), 0, 0, 0.0, 0.0, False)
        with pytest.raises(ValueError, match="exceedances|degenerate"):
            empirical_tail(bank, np.array([1.0]), alpha=1.0)

    def test_symmetric_case_tails_agree(self):
        bank = sample_stationary(kesten_symmetric_affine_1d(), 400, 400_000,
                                 seed=11)
        plus = empirical_tail(bank, np.array([1.0]), alpha=1.0)
        minus = empirical_tail(bank, np.array([-1.0]), alpha=1.0)
        width = (plus["ci"][1] - plus["ci"][0]) + (minus["ci"][1] - minus["ci"][0])
        assert abs(plus["plateau"] - minus["plateau"]) <= width


class TestMellin:
    def test_pareto_closed_form(self):
        bank = pareto_bank(1_000_000, seed=8)
        res = mellin_profile(bank, np.array([1.0]), alpha=1.0)
        # (1-s) E X^s = 1 for every s < 1, so the limit is exactly c = 1
        assert abs(res["c_estimate"] - 1.0) < 0.15

    def test_zero_samples_give_zero(self):
        bank = TailSampleBank("synthetic", np.zeros((10_000, 1)), 0, 0, 0.0, 0.0,
                              False)
        with pytest.raises(ValueError, match="batch-weighted|positive"):
            mellin_profile(bank, np.array([1.0]), alpha=1.0)

    def test_kesten_consistent_with_plateau(self, kesten_bank_small):
        et = empirical_tail(kesten_bank_small, np.array([1.0]), alpha=1.0)
        mp = mellin_profile(kesten_bank_small, np.array([1.0]), alpha=1.0)
        ci = (et["ci"][1] - et["ci"][0]) / 2 + 1.96 * mp["c_se"]
        assert abs(mp["c_estimate"] - et["plateau"]) <= 0.2 * et["plateau"] + ci


class TestMoments:
    def test_beta_zero_is_one(self, kesten_bank_small, kesten):
        rows = moment_check(kesten_bank_small, [0.0], KSolver(kesten))
        assert rows[0]["mean"] == 1.0
        assert rows[0]["batch_rel_spread"] == 0.0
        # k(0) = 1, yet E|R|^0 = 1 is finite
        assert rows[0]["k_beta"] == 1.0
        assert not rows[0]["expected_divergent"]

    def test_subcritical_stable(self, kesten_bank_small, kesten):
        rows = moment_check(kesten_bank_small, [0.5], KSolver(kesten))
        assert rows[0]["k_beta"] < 1
        assert not rows[0]["expected_divergent"]
        assert rows[0]["batch_rel_spread"] <= 0.10
        assert not rows[0]["empirically_unstable"]

    def test_supercritical_flagged(self, kesten_bank_small, kesten):
        ks = KSolver(kesten)
        rows = moment_check(kesten_bank_small, [1.2], ks)
        assert rows[0]["k_beta"] == ks.k(1.2) > 1
        assert rows[0]["expected_divergent"]
        assert rows[0]["empirically_unstable"]


class TestTailCase:
    # the cone and its attractor centre come from the cone walk of the
    # linear part, at the seed given
    SEEDS = (0, 1, 2301)

    def test_case_I_without_cone(self):
        ae = kesten_symmetric_affine_1d()
        assert [classify_tail_case(ae, seed=s) for s in self.SEEDS] == ["I"] * 3

    def test_positive_translations_charge_one_side(self):
        ae = positive_affine_2d(mixed_signs=False)
        assert [classify_tail_case(ae, seed=s) for s in self.SEEDS] == ["II''"] * 3

    def test_mixed_translations_charge_both(self):
        ae = positive_affine_2d(mixed_signs=True)
        assert [classify_tail_case(ae, seed=s) for s in self.SEEDS] == ["II'"] * 3

    @pytest.mark.parametrize("seed", [2301, 17])
    def test_ip_affine_charges_one_side(self, seed):
        assert classify_tail_case(ip_affine_2d(), seed=seed) == "II''"

    def test_census_memory_is_bounded(self):
        # the default census (d=2, 4096 paths x 200 kept steps) keeps only
        # the 4097 largest magnitudes and their sides; the cone walk before
        # it holds less
        ae = ip_affine_2d()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            label = classify_tail_case(ae, seed=2301)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert label == "II''"
        assert peak < 2e6


# (ties, values dropped into step 7); without ties the last step lies above
# all others, so the selection ends on a re-selection to k
SELECTION_CASES = {"ties": (True, ()), "ties-inf": (True, (np.inf,)),
                   "ties-nan-inf": (True, (np.nan, np.inf)), "distinct": (False, ())}


@pytest.mark.parametrize("q", [0.995, 0.9])
@pytest.mark.parametrize("ties,extra", SELECTION_CASES.values(), ids=SELECTION_CASES.keys())
def test_largest_then_quantile_equals_full_census(ties, extra, q):
    # the selection and quantile(..., n=) give the full quantile and the
    # full >= cut side counts, bit for bit, while holding O(k) values
    rng = np.random.default_rng(31)
    n_steps, width = 60, 500
    mags = rng.standard_exponential((n_steps, width)) * 4
    if ties:
        mags = np.round(mags) / 4
    else:
        mags[-1] += mags.max()
    mags[7, :len(extra)] = extra
    sides = rng.standard_normal((n_steps, width))
    n = mags.size
    k = n - int(np.floor((n - 1) * q))
    m, side = _largest(zip(mags, sides), k)
    assert k <= m.size < 3 * k + width
    cut = quantile(m, q, n=n)
    assert np.asarray(cut).tobytes() == np.asarray(quantile(mags, q)).tobytes()
    want = sides[mags >= cut]
    got = side[m >= cut]
    assert ((got > 0).sum(), (got < 0).sum()) == ((want > 0).sum(), (want < 0).sum())
    assert np.array_equal(np.sort(got), np.sort(want))


class TestD2Bank:
    def test_hill_ci_meets_spectral_window(self, ip_alpha):
        # shipped d=2 heavy-tail example: hill CI must meet [0.9a, 1.1a]
        bank = sample_stationary(ip_affine_2d(), 900, 120_000, seed=99)
        _, ci = hill_estimator(bank.norms(), k_order=1200)
        lo, hi = 0.9 * ip_alpha, 1.1 * ip_alpha
        assert ci[0] <= hi and ci[1] >= lo

    def test_directional_statistic_d2(self):
        bank = sample_stationary(ip_affine_2d(), 600, 60_000, seed=5)
        vals = bank.directional(np.array([1.0, 0.0]))
        assert vals.shape == (60_000,)
        assert (vals > 0).any() and (vals < 0).any()


class TestCaseIProfile:
    def test_d2_case_I_direction_independent_ratio(self, ip_alpha):
        # sign-flipped twin of the d=2 reference: no invariant cone, two-sided
        # tails; C(u)/*e^alpha(u) must be direction-independent up to the
        # engineering budget CV <= 0.25
        from matspec.ensemble import AffineEnsemble
        from matspec.ensembles import ip_flip_2d
        from matspec.projective import build_grid, interp_stencil
        from matspec.recursion import directional_profile
        from matspec.transfer import KSolver

        lin = ip_flip_2d()
        ae = AffineEnsemble(2, lin.matrices.copy(),
                            np.array([[1.0, 0.3], [-0.5, 0.8]]),
                            lin.weights.copy())
        grid = build_grid(2, 256, "projective")
        ks = KSolver(lin, grid)
        bank = sample_stationary(ae, 1000, 600_000, seed=321, n_workers=2)
        ths = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        dirs = np.column_stack([np.cos(ths), np.sin(ths)])
        tables = []
        for u in dirs:
            try:
                tables.append(empirical_tail(bank, u, ip_alpha))
            except ValueError:  # too few exceedances: the profile skips u
                tables.append(None)
        prof = directional_profile(tables, ks, ip_alpha, dirs)
        assert prof["cv"] <= 0.25
        # each ratio divides by *e^alpha(u) summed over the stencil in order
        idx, w = interp_stencil(grid, dirs)
        e_values = np.sum(ks.star.point(ip_alpha).e.values[idx] * w, axis=0)
        keys = [tuple(np.round(u, 6)) for u in dirs]
        assert prof["ratios"].tolist() == [prof["constants"][k][0] / ev
                                           for k, ev in zip(keys, e_values)
                                           if k in prof["constants"]]

    def test_ratios_divide_by_the_transposed_eigenfunction(self):
        # ip_shear_2d is not self-transposed: over these directions e^alpha_*
        # / e^alpha spans a factor of 2.2, so plateaus proportional to
        # e^alpha_* give equal ratios only when the profile divides by it
        from matspec.ensembles import ip_shear_2d
        from matspec.projective import build_grid, interpolate
        from matspec.recursion import directional_profile
        from matspec.spectrum import solve_alpha

        ks = KSolver(ip_shear_2d(), build_grid(2, 256, "projective"))
        alpha = solve_alpha(ks)
        ths = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        dirs = np.column_stack([np.cos(ths), np.sin(ths)])
        e_star = interpolate(ks.star.point(alpha).e, dirs)
        tables = [{"plateau": 0.7 * v, "ci": (0.6 * v, 0.8 * v)} for v in e_star]
        assert directional_profile(tables, ks, alpha, dirs)["cv"] <= 1e-12

import json
from pathlib import Path

import numpy as np
import pytest

from matspec.ensemble import (
    AffineEnsemble,
    EnsembleError,
    LinearEnsemble,
    apply_atoms,
    check_nonarithmetic_1d,
    check_proximality,
    check_strong_irreducibility,
    classify_cone_case,
    ensemble_hash,
    load_ensemble,
    median,
    quantile,
    save_ensemble,
    transpose,
    validate_linear,
)
from matspec.ensembles import (
    affine_3d,
    diag_only_2d,
    kesten_1d,
    positive_2d,
    rotation,
    rotations_2d,
)


def test_validate_kesten_gammas(kesten):
    evidence = validate_linear(kesten)
    assert evidence["structural"]
    # gamma = max(|a|, 1/|a|) evaluated directly
    assert evidence["atom_gammas"] == [2.0, 3.0]


def test_identity_only_ensemble():
    e = LinearEnsemble(2, np.array([np.eye(2)]), np.array([1.0]))
    evidence = validate_linear(e)
    assert evidence["structural"]
    assert evidence["atom_gammas"] == [1.0]


def test_weights_must_sum_to_one():
    with pytest.raises(EnsembleError, match="sum"):
        LinearEnsemble(1, np.array([[[2.0]], [[0.5]]]), np.array([0.5, 0.4]))


def test_weights_must_be_positive():
    with pytest.raises(EnsembleError, match="positive"):
        LinearEnsemble(1, np.array([[[2.0]], [[0.5]]]), np.array([1.1, -0.1]))


def test_singular_matrix_rejected():
    with pytest.raises(EnsembleError, match="singular"):
        LinearEnsemble(2, np.array([[[1.0, 1.0], [1.0, 1.0]]]), np.array([1.0]))


def test_transpose_involution(kesten, ip):
    for e in (kesten, ip):
        back = transpose(transpose(e))
        assert np.array_equal(back.matrices, e.matrices)
        assert np.array_equal(back.weights, e.weights)


def test_transpose_of_upper_triangular():
    e = LinearEnsemble(2, np.array([[[2.0, 1.0], [0.0, 0.5]]]), np.array([1.0]))
    t = transpose(e)
    assert np.array_equal(t.matrices[0], np.array([[2.0, 0.0], [1.0, 0.5]]))


def test_proximality_diag_witness():
    verdict, ev = check_proximality(diag_only_2d())
    assert verdict == "pass"
    assert ev["witness_word"] == [0]


def test_proximality_rotations_inconclusive():
    verdict, _ = check_proximality(rotations_2d())
    assert verdict == "inconclusive"


def test_proximality_mixed_pass():
    e = LinearEnsemble(
        2, np.array([np.diag([2.0, 0.5]), rotation(1.0)]), np.array([0.5, 0.5])
    )
    verdict, ev = check_proximality(e)
    assert verdict == "pass"
    assert ev["relative_gap"] > 1e-6


def test_strong_irreducibility_diag_fails():
    verdict, ev = check_strong_irreducibility(diag_only_2d())
    assert verdict == "fail"
    assert ev["cardinality"] >= 2  # the two coordinate axes


def test_strong_irreducibility_mixed_passes():
    e = LinearEnsemble(
        2, np.array([np.diag([2.0, 0.5]), rotation(1.0)]), np.array([0.5, 0.5])
    )
    assert check_strong_irreducibility(e)[0] == "pass"


def test_strong_irreducibility_d1_vacuous(kesten):
    assert check_strong_irreducibility(kesten)[0] == "pass"


def test_cone_case_positive_entries_all_seeds():
    e = positive_2d()
    for seed in range(10):
        verdict, _ = classify_cone_case(e, seed=seed)
        assert verdict == "II"


def test_cone_case_minus_identity_forces_symmetry():
    base = positive_2d()
    mats = np.concatenate([base.matrices, [-base.matrices[0]]])
    e = LinearEnsemble(2, mats, np.array([0.4, 0.4, 0.2]))
    assert classify_cone_case(e, seed=1)[0] == "I"


def test_cone_case_ip_is_II(ip):
    verdict, ev = classify_cone_case(ip, seed=0)
    assert verdict == "II"
    assert "attractor_center" in ev


def same_bits(a, b):
    """Equal shapes and bytes (so -0.0 and 0.0 differ)."""
    return a.shape == b.shape and (np.ascontiguousarray(a).tobytes()
                                   == np.ascontiguousarray(b).tobytes())


@pytest.mark.parametrize("n", [1, 64, 4096])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_apply_atoms_equals_gathered_einsum(d, n):
    rng = np.random.default_rng(10 * d + n)
    mats, shift = rng.standard_normal((5, d, d)), rng.standard_normal((5, d))
    idx = rng.integers(0, 5, n)
    v, w = rng.standard_normal((2, n, d))
    gv = np.einsum("nij,nj->ni", mats[idx], v)
    gw = np.einsum("nij,nj->ni", mats[idx], w)
    assert same_bits(apply_atoms(mats, idx, v.T), gv.T)
    assert same_bits(apply_atoms(mats, idx, v.T, shift), (gv + shift[idx]).T)
    # v and w of a row in one call, rows last (d, 2, n)
    vw = np.stack([v.T, w.T], axis=1)
    assert same_bits(apply_atoms(mats, idx, vw), np.stack([gv.T, gw.T], axis=1))
    assert same_bits(apply_atoms(mats, idx, vw, shift),
                     np.stack([(gv + shift[idx]).T, (gw + shift[idx]).T], axis=1))


def test_nonarithmetic_cases():
    assert check_nonarithmetic_1d(kesten_1d())[0] == "pass"  # log2/log3 irrational
    lattice = LinearEnsemble(1, np.array([[[2.0]], [[0.5]]]), np.array([0.5, 0.5]))
    assert check_nonarithmetic_1d(lattice)[0] == "fail"  # ratio -1
    powers = LinearEnsemble(1, np.array([[[4.0]], [[2.0]]]), np.array([0.5, 0.5]))
    assert check_nonarithmetic_1d(powers)[0] == "fail"  # both powers of 2


def test_affine_common_fixed_point_rejected():
    with pytest.raises(EnsembleError, match="fixed point"):
        AffineEnsemble(
            1, np.array([[[0.5]], [[2.0]]]), np.array([[1.0], [-2.0]]),
            np.array([0.5, 0.5]),
        )
    # B = 0 is the canonical degenerate case
    with pytest.raises(EnsembleError, match="fixed point"):
        AffineEnsemble(
            1, np.array([[[2.0]], [[1 / 3]]]), np.array([[0.0], [0.0]]),
            np.array([0.4, 0.6]),
        )


def test_affine_3d_is_the_benchmark_ensemble():
    # the benchmark freezes its d=3 ensemble as a file; it must stay this one
    path = Path(__file__).parents[1] / "bench" / "ensembles" / "affine_3d.json"
    bench, ref = load_ensemble(path), affine_3d()
    assert np.array_equal(bench.matrices, ref.matrices)
    assert np.array_equal(bench.translations, ref.translations)
    assert np.array_equal(bench.weights, ref.weights)


def test_ensemble_file_roundtrip(tmp_path, kesten_affine):
    path = tmp_path / "ens.json"
    save_ensemble(kesten_affine, path)
    back = load_ensemble(path)
    assert isinstance(back, AffineEnsemble)
    assert np.array_equal(back.matrices, kesten_affine.matrices)
    assert np.array_equal(back.translations, kesten_affine.translations)
    assert ensemble_hash(back) == ensemble_hash(kesten_affine)


def test_malformed_matrix_row_names_atom(tmp_path):
    doc = {
        "dimension": 2,
        "atoms": [
            {"matrix": [1.0, 0.0, 0.0, 1.0], "weight": 0.5},
            {"matrix": [1.0, 0.0, 0.0], "weight": 0.5},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(EnsembleError, match="atom 1"):
        load_ensemble(path)


def test_validate_is_deterministic(kesten):
    assert validate_linear(kesten) == validate_linear(kesten)


QUANTILE_CASES = {
    "n=1": np.array([2.5]),
    "odd": np.random.default_rng(1).standard_normal(101),
    "even": np.random.default_rng(2).standard_exponential(64) ** 3,
    "ties": np.array([3.0, 1.0, 1.0, -0.0, 0.0, 3.0, 1.0, 2.0]),
    "nan": np.array([1.0, np.nan, 0.5, 2.0, -1.0]),
    "2-d": np.random.default_rng(3).standard_normal((7, 9)),
}


@pytest.mark.parametrize("values", QUANTILE_CASES.values(), ids=QUANTILE_CASES.keys())
def test_quantile_and_median_equal_numpy_bit_for_bit(values):
    def bits(x):
        x = np.asarray(x)
        return x.shape, x.dtype, x.tobytes()

    for q in (0.0, 0.5, 0.9, 0.995, 1.0, np.float64(0.3), [0.025, 0.975]):
        assert bits(quantile(values, q)) == bits(np.quantile(values, q)), q
    assert bits(median(values)) == bits(np.median(values))

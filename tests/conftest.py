import numpy as np
import pytest

from matspec.ensemble import LinearEnsemble
from matspec.ensembles import ip_2d, kesten_1d, kesten_affine_1d, similarity_2d
from matspec.projective import PROJECTIVE, build_grid
from matspec.rng import draw_atoms, stream as _rng
from matspec.spectrum import KSolver, solve_alpha


def finite_diff_L(ks: KSolver, s: float) -> float:
    """Reference L(s) = (log k)'(s) from differences of the solver's k:
    Richardson-extrapolated central differences, or one-sided differences
    at s = 0, whose leading error is O(h), not O(h^2)."""
    h = 1e-3
    hh = min(h, s / 2) if s > 0 else h

    def central(step: float) -> float:
        if s - step < 0:
            return (np.log(ks.k(s + step)) - np.log(ks.k(s))) / step
        return (np.log(ks.k(s + step)) - np.log(ks.k(s - step))) / (2 * step)

    c1 = central(hh)
    c2 = central(hh / 2)
    if s == 0.0:
        return float(2.0 * c2 - c1)
    return float((4.0 * c2 - c1) / 3.0)


def k_mc_oracle(
    e: LinearEnsemble,
    s: float,
    n: int,
    n_samples: int,
    seed: int,
    chunk: int = 1 << 15,
) -> tuple[float, float]:
    """Independent Monte Carlo oracle for k(s): (mean |S_n|^s)^{1/n} over
    n_samples products of n i.i.d. atoms, with a delta-method stderr.

    The running product is renormalized (Frobenius) every step with a log
    accumulator; the exact operator 2-norm enters once at the end, so there
    is no overflow for any n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if s == 0.0:
        return 1.0, 0.0
    d = e.dimension
    total = 0.0
    total_sq = 0.0
    done = 0
    chunk_idx = 0
    while done < n_samples:
        size = min(chunk, n_samples - done)
        rng = _rng(seed, chunk_idx)
        mats = np.broadcast_to(np.eye(d), (size, d, d)).copy()
        logs = np.zeros(size)
        for _ in range(n):
            idx = draw_atoms(rng, e.weights, size)
            mats = np.matmul(e.matrices[idx], mats)
            fro = np.linalg.norm(mats, axis=(1, 2))
            mats /= fro[:, None, None]
            logs += np.log(fro)
        sv1 = np.linalg.svd(mats, compute_uv=False)[:, 0]
        lognorm = logs + np.log(sv1)
        w = np.exp(s * lognorm)
        total += w.sum()
        total_sq += (w * w).sum()
        done += size
        chunk_idx += 1
    m1 = total / n_samples
    var = max(total_sq / n_samples - m1 * m1, 0.0)
    se_m1 = np.sqrt(var / n_samples)
    k_hat = m1 ** (1.0 / n)
    se_k = k_hat * se_m1 / (n * m1)
    return float(k_hat), float(se_k)


@pytest.fixture(scope="session")
def kesten():
    return kesten_1d()


@pytest.fixture(scope="session")
def kesten_affine():
    return kesten_affine_1d()


@pytest.fixture(scope="session")
def similarity():
    return similarity_2d()


@pytest.fixture(scope="session")
def ip():
    return ip_2d()


@pytest.fixture(scope="session")
def ip_solver(ip):
    """Shared 256-node solver for the d=2 reference ensemble."""
    return KSolver(ip, build_grid(2, 256, PROJECTIVE))


@pytest.fixture(scope="session")
def ip_alpha(ip_solver):
    return solve_alpha(ip_solver)


@pytest.fixture(scope="session")
def kesten_bank_small():
    from matspec.recursion import sample_stationary

    return sample_stationary(kesten_affine_1d(), 400, 200_000, seed=20240601)

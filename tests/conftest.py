import numpy as np
import pytest

from matspec.ensembles import ip_2d, kesten_1d, kesten_affine_1d, similarity_2d
from matspec.projective import PROJECTIVE, build_grid
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

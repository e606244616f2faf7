"""Reference ensembles shipped with the package.

These are the fixtures exercised by the test and acceptance suites; the
constants are frozen, so downstream expected values stay valid.
"""

from __future__ import annotations

import numpy as np

from .ensemble import AffineEnsemble, LinearEnsemble

__all__ = [
    "kesten_1d",
    "kesten_affine_1d",
    "kesten_symmetric_affine_1d",
    "similarity_2d",
    "ip_2d",
    "ip_flip_2d",
    "ip_affine_2d",
    "ip_shear_2d",
    "ip_shear_affine_2d",
    "expanding_1d_deterministic",
    "expanding_1d_arithmetic",
    "rotations_2d",
    "diag_only_2d",
    "positive_2d",
    "positive_affine_2d",
    "affine_3d",
]


def rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def kesten_1d() -> LinearEnsemble:
    """{2 w.p. 0.4, 1/3 w.p. 0.6}: k(1) = 0.4*2 + 0.6/3 = 1, so alpha = 1."""
    return LinearEnsemble(
        1,
        np.array([[[2.0]], [[1.0 / 3.0]]]),
        np.array([0.4, 0.6]),
        label="kesten-1d",
    )


def kesten_affine_1d() -> AffineEnsemble:
    """Same linear part, unit translations: heavy-tailed fixed point, alpha = 1."""
    return AffineEnsemble(
        1,
        np.array([[[2.0]], [[1.0 / 3.0]]]),
        np.array([[1.0], [1.0]]),
        np.array([0.4, 0.6]),
        label="kesten-affine-1d",
    )


def kesten_symmetric_affine_1d() -> AffineEnsemble:
    """A in {-2, 1/3}: same |A|-law as the reference (alpha = 1) but the sign
    flip leaves no invariant half-line, so the stationary tail is two-sided
    and symmetric at infinity (case I)."""
    return AffineEnsemble(
        1,
        np.array([[[-2.0]], [[1.0 / 3.0]]]),
        np.array([[1.0], [1.0]]),
        np.array([0.4, 0.6]),
        label="kesten-symmetric-affine-1d",
    )


def similarity_2d() -> LinearEnsemble:
    """Similarities r*R(theta) with radii {2, 1/3}, weights {0.4, 0.6} and
    irrational rotation angles: |g x| = r for every direction, so
    k(s) = 0.4*2^s + 0.6*(1/3)^s exactly and e^s is constant."""
    return LinearEnsemble(
        2,
        np.array([2.0 * rotation(1.0), (1.0 / 3.0) * rotation(np.sqrt(2.0))]),
        np.array([0.4, 0.6]),
        label="similarity-2d",
    )


IP_2D_A = 2.0
IP_2D_C = 0.75
IP_2D_THETA = 1.5


def ip_2d() -> LinearEnsemble:
    """Strongly irreducible + proximal pair: c*diag(a, 1/a) and its rotation
    by theta, equal weights; tuned so the Lyapunov exponent at s=0 is
    negative (~ -0.099) while some product has spectral radius c*a > 1, so
    the tail index exists (alpha ~ 1.2065 at resolution 512).  Preserves a
    convex cone (sphere case II)."""
    h = IP_2D_C * np.diag([IP_2D_A, 1.0 / IP_2D_A])
    r = rotation(IP_2D_THETA)
    return LinearEnsemble(
        2,
        np.array([h, r @ h @ r.T]),
        np.array([0.5, 0.5]),
        label="ip-2d",
    )


def ip_flip_2d() -> LinearEnsemble:
    """ip_2d with the second atom negated: |(-g)x| = |gx| so every projective
    object (k-curve, alpha, eigenfunction) is identical, but the sign flip
    destroys the invariant cone (sphere case I)."""
    base = ip_2d()
    mats = base.matrices.copy()
    mats[1] = -mats[1]
    return LinearEnsemble(2, mats, base.weights.copy(), label="ip-flip-2d")


def ip_affine_2d() -> AffineEnsemble:
    """ip_2d linear part with generic translations (no common fixed point)."""
    lin = ip_2d()
    return AffineEnsemble(
        2,
        lin.matrices.copy(),
        np.array([[1.0, 0.3], [-0.5, 0.8]]),
        lin.weights.copy(),
        label="ip-affine-2d",
    )


def ip_shear_2d() -> LinearEnsemble:
    """ip_2d with a sheared first atom, c*[[a, 0.3], [0, 1/a]]: no atom is
    symmetric, so ks.star differs from ks and p(s) pairs e^s with the
    transposed eigenmeasure *nu^s, not nu^s.  L(0) ~ -0.111 and
    alpha ~ 1.0694 at resolution 512; sphere case I."""
    h = IP_2D_C * np.array([[IP_2D_A, 0.3], [0.0, 1.0 / IP_2D_A]])
    r = rotation(IP_2D_THETA)
    return LinearEnsemble(
        2,
        np.array([h, r @ h @ r.T]),
        np.array([0.5, 0.5]),
        label="ip-shear-2d",
    )


def ip_shear_affine_2d() -> AffineEnsemble:
    """ip_shear_2d's atoms with ip_affine_2d's translations: an affine walk
    whose dual walk runs on ks.star, a different operator from ks."""
    lin = ip_shear_2d()
    return AffineEnsemble(2, lin.matrices.copy(), ip_affine_2d().translations.copy(),
                          lin.weights.copy(), label="ip-shear-affine-2d")


def expanding_1d_deterministic() -> LinearEnsemble:
    """Single atom a = 2: deterministic geometric walk, L = log 2."""
    return LinearEnsemble(1, np.array([[[2.0]]]), np.array([1.0]),
                          label="expanding-1d-det")


def expanding_1d_arithmetic() -> LinearEnsemble:
    """{2 w.p. 0.6, 1/2 w.p. 0.4}: arithmetic lattice walk with
    L = 0.2 * log 2 > 0; used only with wide tolerances and a caveat."""
    return LinearEnsemble(
        1,
        np.array([[[2.0]], [[0.5]]]),
        np.array([0.6, 0.4]),
        label="expanding-1d-arith",
    )


def rotations_2d() -> LinearEnsemble:
    """Pure rotations: isometries, no proximal element."""
    return LinearEnsemble(
        2,
        np.array([rotation(1.0), rotation(np.sqrt(3.0))]),
        np.array([0.5, 0.5]),
        label="rotations-2d",
    )


def diag_only_2d() -> LinearEnsemble:
    """diag(2, 1/2) only: proximal but reducible (axes invariant)."""
    return LinearEnsemble(
        2, np.array([np.diag([2.0, 0.5])]), np.array([1.0]), label="diag-2d"
    )


def positive_2d() -> LinearEnsemble:
    """Entrywise positive atoms: the positive quadrant cone is preserved."""
    return LinearEnsemble(
        2,
        np.array([[[0.5, 0.2], [0.1, 0.4]], [[1.2, 0.3], [0.4, 0.9]]]),
        np.array([0.5, 0.5]),
        label="positive-2d",
    )


def positive_affine_2d(mixed_signs: bool = False) -> AffineEnsemble:
    """Affine ensemble over positive_2d; positive translations charge only the
    positive cone (case II''), mixed-sign translations charge both (case II')."""
    lin = positive_2d()
    if mixed_signs:
        trans = np.array([[1.0, 0.5], [-1.0, -0.6]])
    else:
        trans = np.array([[1.0, 0.5], [0.7, 0.6]])
    return AffineEnsemble(2, lin.matrices.copy(), trans, lin.weights.copy(),
                          label="positive-affine-2d")


def affine_3d() -> AffineEnsemble:
    """Contracting d=3 affine ensemble: 0.59 R diag(2, 1, 1/2) R^T for three
    rotations R (rotation vectors below), equal weights, generic
    translations; alpha is about 2.7.  The one routine of the package that
    needs scipy (the ``test`` extra), for its rotations."""
    from scipy.spatial.transform import Rotation

    rots = Rotation.from_rotvec([[0.0, 0.0, 0.0], [1.1, 0.4, -0.3],
                                 [-0.5, 1.3, 0.7]]).as_matrix()
    mats = 0.59 * rots @ np.diag([2.0, 1.0, 0.5]) @ rots.swapaxes(1, 2)
    return AffineEnsemble(
        3,
        mats,
        np.array([[1.0, 0.3, -0.2], [-0.5, 0.8, 0.1], [0.2, -0.4, 0.9]]),
        np.full(3, 1.0 / 3.0),
        label="affine-3d",
    )

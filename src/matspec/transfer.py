"""Discretized transfer operators and their dominant eigen-objects.

For a finite-support measure mu on GL(d) and s >= 0, the weighted operator

    (P^s f)(x) = sum_i w_i |g_i x|^s f(g_i . x)

acts on functions over the direction grid; interpolation closes the action
on grid values.  A TransferOperator computes the s-independent part once per
(ensemble, grid): per atom, the interpolation stencil S_i of g_i.x and
log|g_i x|.  Any P^s = sum_i w_i diag(|g_i x|^s) S_i (complex s for the
oscillatory diagnostic) and its derivative in s are then one sparse CSR
matrix; the adjoint is exactly its transpose, so grid duality
<P^s f, sigma> = <f, (P^s)* sigma> holds by construction.  Alternating power
iteration on the pair, started cold or from the eigen-pair of a nearby s,
produces the dominant eigenvalue k(s), the positive eigenfunction e^s and
the eigenmeasure nu^s, normalized so that nu^s has mass 1 and
nu^s(e^s) = 1.  That normalization pins the rank-one projector
nu^s (x) e^s uniquely.

One KSolver per (ensemble, grid) owns that operator family, the solver of
the transposed ensemble on the same grid, and every solved point of both:
it is the only place that builds a TransferOperator or runs power
iteration, and p(s) pairs its eigenmeasure with the transposed one.

The one-step tilted Markov kernel

    q^s(x, g_i) = w_i |g_i x|^s e^s(g_i.x) / (e^s(x) c(x)),

with c(x) its exact normalizer (k(s) up to discretization), is the sampling
device of every rare-event and Lyapunov routine downstream; TiltedChain
runs it on many paths at once and keeps the likelihood ratio of each path
against the untilted walk.  A tilted step forms every atom's image of every
path in one matrix product and interpolates e^s at all of them in one
stencil call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .ensemble import LinearEnsemble, transpose
from .projective import (
    PROJECTIVE,
    SPHERE,
    DirectionGrid,
    GridFunction,
    GridMeasure,
    act_many,
    build_grid,
    interp_stencil,
    interpolate,
)

__all__ = [
    "SpectralPoint",
    "TransferOperator",
    "KSolver",
    "power_iterate",
    "pairing_p",
    "k_closed_form_1d",
    "k_prime_closed_form_1d",
    "cross_check_es",
    "tilted_probs",
    "TiltedChain",
    "sphere_extremal_measures",
    "ExtremalPair",
    "complex_radius_ratio",
]

DEFAULT_RESOLUTION = 512


@dataclass
class SpectralPoint:
    """Solved eigen-problem of P^s at one exponent s.

    e is strictly positive at every node; nu has total mass 1 and
    nu(e) = 1 within 1e-8.  residual_e is the relative sup-norm residual of
    the eigen-equation, residual_nu the relative l1 residual of the adjoint.
    """

    s: float
    k: float
    e: GridFunction
    nu: GridMeasure
    p: float | None
    iterations: int
    residual_e: float
    residual_nu: float
    mode: str
    converged: bool = True

    @property
    def pi(self) -> np.ndarray:
        """Stationary law pi^s = e^s nu^s of the tilted chain (probability)."""
        m = self.e.values * self.nu.masses
        return m / m.sum()


class TransferOperator:
    """The s-independent part of P^s on one (ensemble, grid).

    Row j of every assembled matrix holds the stencil entries of atom 0 at
    g_0 . x_j, then those of atom 1, and so on; duplicate columns are summed
    by the sparse products.
    """

    def __init__(self, e: LinearEnsemble, grid: DirectionGrid):
        self.ensemble = e
        self.grid = grid
        idx, weights, lognorms = [], [], []
        for g, wi in zip(e.matrices, e.weights):
            images, ln = act_many(g, grid.nodes)
            i, w = interp_stencil(grid, images)
            idx.append(i)
            weights.append(wi * w)
            lognorms.append(np.repeat(ln[:, None], w.shape[1], axis=1))
        row_len = e.n_atoms * idx[0].shape[1]
        self._indices = np.concatenate(idx, axis=1).ravel()
        self._indptr = np.arange(0, grid.n_nodes * row_len + 1, row_len)
        self._weights = np.concatenate(weights, axis=1).ravel()
        self._lognorms = np.concatenate(lognorms, axis=1).ravel()

    def _csr(self, data: np.ndarray) -> sparse.csr_matrix:
        n = self.grid.n_nodes
        return sparse.csr_matrix((data, self._indices, self._indptr), shape=(n, n))

    def matrix(self, s: complex) -> sparse.csr_matrix:
        """P^s as an (N, N) CSR matrix; .T is its exact adjoint.  A complex
        s = sigma + it gives the oscillatory operator P^{sigma+it}."""
        if np.real(s) < 0:
            raise ValueError("negative exponents are not supported")
        return self._csr(self._weights * np.exp(s * self._lognorms))

    def derivative(self, s: float) -> sparse.csr_matrix:
        """dP^s/ds = sum_i w_i diag(log|g_i x| |g_i x|^s) S_i."""
        return self._csr(self._weights * self._lognorms * np.exp(s * self._lognorms))


class KSolver:
    """Every k(s) evaluation and eigen-solve of one ensemble on one grid.

    k is in closed form in d=1 and from the grid elsewhere.  The solver owns
    the operator family of the ensemble (``op``) and, through ``star``, the
    solver of the transposed ensemble on the same grid; both are built on
    first use.  Solved points are cached by s, and a new s starts from the
    cached point nearest to it.
    """

    def __init__(
        self,
        e: LinearEnsemble,
        grid: DirectionGrid | None = None,
        tol: float = 1e-11,
        max_iter: int = 20000,
    ):
        self.ensemble = e
        self.tol = tol
        self.max_iter = max_iter
        if e.dimension == 1:
            self.grid = grid or build_grid(1, 1, PROJECTIVE)
        else:
            self.grid = grid or build_grid(e.dimension, DEFAULT_RESOLUTION, PROJECTIVE)
        self._op: TransferOperator | None = None
        self._star: KSolver | None = None
        self._points: dict[float, SpectralPoint] = {}

    @property
    def op(self) -> TransferOperator:
        if self._op is None:
            self._op = TransferOperator(self.ensemble, self.grid)
        return self._op

    @property
    def star(self) -> "KSolver":
        """The solver of the transposed ensemble on the same grid."""
        if self._star is None:
            self._star = KSolver(transpose(self.ensemble), self.grid,
                                 tol=self.tol, max_iter=self.max_iter)
        return self._star

    def k(self, s: float) -> float:
        if s < 0:
            raise ValueError("negative exponents are not supported")
        if self.ensemble.dimension == 1:
            return k_closed_form_1d(self.ensemble, s)
        return self.point(s).k

    def k_prime(self, s: float) -> float:
        """k'(s) = nu^s(P'^s e^s) (nu^s(e^s) = 1); closed form in d=1."""
        if self.ensemble.dimension == 1:
            return k_prime_closed_form_1d(self.ensemble, s)
        sp = self.point(s)
        return float(sp.nu.masses @ (self.op.derivative(s) @ sp.e.values))

    def point(self, s: float, compute_p: bool = False) -> SpectralPoint:
        """The solved eigen-problem at s; with compute_p, also p(s) against
        the transposed ensemble's eigenmeasure at s."""
        key = float(s)
        sp = self._points.get(key)
        if sp is None:
            nearest = min(self._points, key=lambda t: abs(t - key), default=None)
            sp = power_iterate(self.op, key, self.tol, self.max_iter,
                               start=self._points.get(nearest))
            self._points[key] = sp
        if compute_p and sp.p is None:
            sp.p = pairing_p(sp, self.star.point(key))
        return sp


def k_closed_form_1d(e: LinearEnsemble, s: float) -> float:
    """d=1 bypass: k(s) = sum_i w_i |a_i|^s (exactly 1 at s=0)."""
    if e.dimension != 1:
        raise ValueError("closed form requires d = 1")
    if s == 0.0:
        return 1.0
    a = np.abs(e.matrices[:, 0, 0])
    return float(np.sum(e.weights * a**s))


def k_prime_closed_form_1d(e: LinearEnsemble, s: float) -> float:
    """d=1 derivative: k'(s) = sum_i w_i |a_i|^s log|a_i|."""
    if e.dimension != 1:
        raise ValueError("closed form requires d = 1")
    a = np.abs(e.matrices[:, 0, 0])
    return float(np.sum(e.weights * a**s * np.log(a)))


def power_iterate(
    op: TransferOperator,
    s: float,
    tol: float,
    max_iter: int,
    start: SpectralPoint | None = None,
) -> SpectralPoint:
    """Alternating normalized power iteration for (k(s), e^s, nu^s) of the
    operator family op; KSolver.point is its one caller in the package.

    k is the Rayleigh quotient <P^s e, nu>/<e, nu>; iteration stops when the
    eigenfunction and eigenmeasure residuals both fall below tol, and
    ``converged`` records whether they did within max_iter.  start is a
    solved point of the same family whose (e, nu) seed the iteration in place
    of (1, quadrature weights).  Without irreducibility + proximality the
    limit pair need not be unique.  p is left unset: it needs the transposed
    ensemble's eigenmeasure (KSolver.point with compute_p).
    """
    grid = op.grid
    P = op.matrix(s)
    PT = P.T
    if start is None:
        f = np.ones(grid.n_nodes)
        sigma = grid.quadrature_weights.copy()
    else:
        f = start.e.values.copy()
        sigma = start.nu.masses.copy()
    k_est = 1.0
    res_e = res_nu = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        f_new = P @ f
        sig_new = PT @ sigma
        k_est = float((f_new @ sigma) / (f @ sigma))
        res_e = float(np.max(np.abs(f_new - k_est * f)) / np.max(np.abs(f)))
        res_nu = float(
            np.sum(np.abs(sig_new - k_est * sigma)) / (abs(k_est) * sigma.sum())
        )
        f = f_new / f_new.max()
        sigma = sig_new / sig_new.sum()
        if res_e < tol and res_nu < tol:
            break
    converged = res_e < tol and res_nu < tol
    if s == 0.0:
        k_est = 1.0  # P^0 is a Markov operator: dominant eigenvalue is 1
    # normalize: nu total mass 1 (already), nu(e) = 1
    sigma = sigma / sigma.sum()
    f = f / np.sum(f * sigma)
    return SpectralPoint(
        s=float(s),
        k=k_est,
        e=GridFunction(grid, f),
        nu=GridMeasure(grid, sigma),
        p=None,
        iterations=it,
        residual_e=res_e,
        residual_nu=res_nu,
        mode=grid.mode,
        converged=converged,
    )


def pairing_p(sp: SpectralPoint, sp_star: SpectralPoint) -> float:
    """p(s) = sum_{x,y} |<x,y>|^s nu^s(x) *nu^s(y) on the grid."""
    dots = np.abs(sp.nu.grid.nodes @ sp_star.nu.grid.nodes.T)
    if sp.s == 0.0:
        kernel = np.ones_like(dots)
    else:
        kernel = dots**sp.s
    return float(sp.nu.masses @ kernel @ sp_star.nu.masses)


def cross_check_es(sp: SpectralPoint, sp_star: SpectralPoint) -> float:
    """Structural residual of the integral identity
    p(s) e^s(x) = integral |<x,y>|^s d *nu^s(y), in sup norm relative to
    max e^s.  Independent of the power-iteration path that produced e^s.
    """
    if sp.s != sp_star.s:
        raise ValueError("both spectral points must share the same exponent s")
    p = sp.p if sp.p is not None else pairing_p(sp, sp_star)
    dots = np.abs(sp.e.grid.nodes @ sp_star.nu.grid.nodes.T)
    kernel = np.ones_like(dots) if sp.s == 0.0 else dots**sp.s
    rhs = kernel @ sp_star.nu.masses
    return float(np.max(np.abs(p * sp.e.values - rhs)) / np.max(sp.e.values))


def tilted_probs(
    e: LinearEnsemble, sp: SpectralPoint, xs: np.ndarray, e_xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized one-step tilted kernel at unit rows xs (M, d), where
    e_xs (M,) holds e^s at xs.

    Returns (probs (M, m), normalizer (M,), images (M, m, d),
    lognorms (M, m), e^s at the images (M, m)); probs rows are normalized,
    and normalizer / k(s) ~ 1 up to discretization.  Every atom's image
    comes from one product and e^s at all m images from one stencil call.
    """
    m = e.n_atoms
    M, d = xs.shape
    # column block i of [g_0^T ... g_{m-1}^T] maps xs to xs @ g_i^T
    gx = (xs @ e.matrices.transpose(2, 0, 1).reshape(d, m * d)).reshape(M, m, d)
    norms = np.sqrt(_sum_last(gx * gx))
    if np.any(norms < 1e-300):
        raise FloatingPointError("`|gx|` underflow: numerically degenerate atom")
    images = gx
    images /= norms[:, :, None]
    lognorms = np.log(norms)
    e_img = interpolate(sp.e, images.reshape(M * m, d)).reshape(M, m)
    # w_i e^{s log|g_i x|} e^s(g_i.x) / e^s(x), one operation at a time in place
    probs = np.multiply(lognorms, sp.s)
    np.exp(probs, out=probs)
    probs *= e.weights
    probs *= e_img
    probs /= e_xs[:, None]
    normalizer = _sum_last(probs)
    probs /= normalizer[:, None]
    return probs, normalizer, images, lognorms, e_img


def _sum_last(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=-1), bit for bit.  numpy adds fewer than 8 terms in order
    (pairwise beyond that), and adding the slices in that order avoids its
    slow short-axis reduction."""
    if a.shape[-1] >= 8:
        return a.sum(axis=-1)
    out = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        out += a[..., j]
    return out


class TiltedChain:
    """M paths of the s-tilted chain, each carrying its state.

    Started at the unit rows x0 (M, d), a path holds its direction x, e^s at
    x (e_x), logmag = log|S_n x0| and lognorm, the sum of the log one-step
    normalizers of the kernel it was drawn from.  Each step draws one
    uniform per path and inverts the cumulative kernel row; e^s at the new
    direction is the image value the kernel already interpolated.
    """

    def __init__(self, e: LinearEnsemble, sp: SpectralPoint, x0: np.ndarray):
        self.ensemble = e
        self.sp = sp
        self.x = np.array(x0, dtype=float, ndmin=2)
        self.e_x = interpolate(sp.e, self.x)
        self._log_e_x0 = np.log(self.e_x)
        self.logmag = np.zeros(len(self.x))
        self.lognorm = np.zeros(len(self.x))

    def step(self, rng: np.random.Generator,
             rows=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """Advance the selected paths one step; returns (atom, log|g x|)."""
        # take gathers index rows far faster than fancy indexing does
        x = self.x[rows] if isinstance(rows, slice) else self.x.take(rows, axis=0)
        probs, normalizer, images, lognorms, e_img = tilted_probs(
            self.ensemble, self.sp, x, self.e_x[rows])
        n, m = lognorms.shape
        u = rng.random(n)
        # the atom is the count of running sums below u; the sums rise, so
        # counting the first m - 1 caps it at the last atom
        atom = np.zeros(n, dtype=np.intp)
        cdf = np.zeros(n)
        for j in range(m - 1):
            cdf += probs[:, j]
            atom += u > cdf
        drawn = np.arange(n) * m + atom  # each row's atom, (row, atom) flattened
        ln = lognorms.take(drawn)
        self.x[rows] = images.reshape(n * m, -1).take(drawn, axis=0)
        self.e_x[rows] = e_img.take(drawn)
        self.logmag[rows] += ln
        self.lognorm[rows] += np.log(normalizer)
        return atom, ln

    def log_lr(self, rows=slice(None)) -> np.ndarray:
        """log e^s(x0) - log e^s(x_n) - s log|S_n x0| + sum of log
        normalizers: the exact log likelihood ratio of the untilted path
        against the simulated chain."""
        return (self._log_e_x0[rows] - np.log(self.e_x[rows])
                - self.sp.s * self.logmag[rows] + self.lognorm[rows])


@dataclass
class ExtremalPair:
    """Case-II sphere objects: the two extremal stationary pairs.

    point_plus / point_minus package each side as a SpectralPoint with mode
    "sphere-cone-restricted"; their k must agree with the projective one.
    """

    pi_plus: GridMeasure
    pi_minus: GridMeasure
    nu_plus: GridMeasure
    nu_minus: GridMeasure
    e_plus: GridFunction
    e_minus: GridFunction
    point_plus: SpectralPoint | None = None
    point_minus: SpectralPoint | None = None


def _antipode_map(grid: DirectionGrid) -> np.ndarray:
    """Index map sending each node to the node nearest to its antipode."""
    dots = (-grid.nodes) @ grid.nodes.T
    return np.argmax(dots, axis=1)


def sphere_extremal_measures(
    e: LinearEnsemble,
    s: float,
    grid: DirectionGrid,
    attractor_points: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 20000,
) -> ExtremalPair:
    """Extremal stationary pairs on the sphere when a proper convex cone is
    preserved (cone case II).

    The eigenmeasure nu_+^s comes from adjoint iteration masked to the grid
    nodes on the attractor side (images leak across only through
    interpolation and are zeroed); pi_- is the exact antipodal reflection of
    pi_+.  e_+^s is recovered from the transposed-ensemble cone eigenmeasure
    through the half-space pairing p(s) e_+^s(u) = integral <u,u'>_+^s
    d *nu_+^s(u'), and e_+ + e_- should reproduce the projective
    eigenfunction lifted to the sphere.
    """
    if grid.mode != SPHERE:
        raise ValueError("extremal measures live on a sphere-mode grid")
    attractor_points = np.atleast_2d(attractor_points)
    if attractor_points.size == 0:
        raise ValueError("attractor cone not identified: no points supplied")
    plus_mask = _attractor_side(grid.nodes, attractor_points)
    if not plus_mask.any() or plus_mask.all():
        raise ValueError("attractor cone does not separate the grid")
    ks = KSolver(e, grid, tol, max_iter)
    nu_plus, k_est, res_nu, iters = _cone_eigenmeasure(ks.op, s, plus_mask, tol,
                                                       max_iter)
    amap = _antipode_map(grid)
    nu_minus = np.bincount(amap, weights=nu_plus, minlength=grid.n_nodes)

    # transposed-ensemble cone data for the e_+ transform
    star_attr = _cone_attractor(ks.star.ensemble, attractor_points, seed=0)
    star_mask = _attractor_side(grid.nodes, star_attr)
    # e_+ is built from tau, so tau's residual is the one of e_+
    tau, _, res_e, _ = _cone_eigenmeasure(ks.star.op, s, star_mask, tol, max_iter)
    # p(s) from the projective eigen-problem (pairing normalization)
    proj_grid = build_grid(grid.dimension, grid.n_nodes // 2 or 1, PROJECTIVE)
    p_s = KSolver(e, proj_grid, tol=tol).point(s, compute_p=True).p or 1.0

    dots = grid.nodes @ grid.nodes.T
    plus_kernel = np.maximum(dots, 0.0) ** s if s > 0 else (dots > 0).astype(float)
    e_plus_vals = (plus_kernel @ tau) / p_s
    tau_minus = np.bincount(amap, weights=tau, minlength=grid.n_nodes)
    e_minus_vals = (plus_kernel @ tau_minus) / p_s

    pi_plus = nu_plus * np.maximum(e_plus_vals, 0.0)
    pi_minus = nu_minus * np.maximum(e_minus_vals, 0.0)
    mode = "sphere-cone-restricted"

    def _restricted_point(e_vals, nu_masses):
        return SpectralPoint(
            s=float(s), k=float(k_est),
            e=GridFunction(grid, np.maximum(e_vals, 0.0)),
            nu=GridMeasure(grid, nu_masses), p=p_s,
            iterations=iters, residual_e=float(res_e), residual_nu=float(res_nu),
            mode=mode, converged=bool(res_e < tol and res_nu < tol),
        )

    return ExtremalPair(
        pi_plus=GridMeasure(grid, pi_plus / max(pi_plus.sum(), 1e-300)),
        pi_minus=GridMeasure(grid, pi_minus / max(pi_minus.sum(), 1e-300)),
        nu_plus=GridMeasure(grid, nu_plus),
        nu_minus=GridMeasure(grid, nu_minus),
        e_plus=GridFunction(grid, e_plus_vals),
        e_minus=GridFunction(grid, e_minus_vals),
        point_plus=_restricted_point(e_plus_vals, nu_plus),
        point_minus=_restricted_point(e_minus_vals, nu_minus),
    )


def _cone_eigenmeasure(
    op: TransferOperator, s: float, mask: np.ndarray, tol: float, max_iter: int
) -> tuple[np.ndarray, float, float, int]:
    """Adjoint power iteration of P^s with the mass off mask zeroed after
    every push: (eigenmeasure, eigenvalue, l1 residual, iterations)."""
    PT = op.matrix(s).T
    sigma = np.where(mask, op.grid.quadrature_weights, 0.0)
    sigma /= sigma.sum()
    k_est = 1.0
    res = np.inf
    iters = 0
    for iters in range(1, max_iter + 1):
        sig_new = PT @ sigma
        sig_new[~mask] = 0.0
        mass = sig_new.sum()
        k_est = mass / sigma.sum()
        res = np.sum(np.abs(sig_new - k_est * sigma)) / mass
        sigma = sig_new / mass
        if res < tol:
            break
    return sigma, k_est, res, iters


def _min_chord(nodes: np.ndarray, points: np.ndarray) -> np.ndarray:
    dots = nodes @ points.T
    return np.sqrt(np.maximum(0.0, 2.0 - 2.0 * dots.max(axis=1)))


def _attractor_side(nodes: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Mask of the nodes closer to the points than to their antipodes."""
    return _min_chord(nodes, points) < _min_chord(nodes, -points)


def _cone_attractor(e: LinearEnsemble, hint: np.ndarray, seed: int) -> np.ndarray:
    """Late-time sphere directions of the e-chain, sign-aligned to a hint."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((32, e.dimension))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    for _ in range(200):
        idx = rng.integers(0, e.n_atoms, size=x.shape[0])
        x = np.einsum("nij,nj->ni", e.matrices[idx], x)
        x /= np.linalg.norm(x, axis=1, keepdims=True)
    center = hint.mean(axis=0)
    sign = np.where(x @ center >= 0, 1.0, -1.0)
    return x * sign[:, None]


def complex_radius_ratio(
    e: LinearEnsemble,
    s: float,
    t: float,
    grid: DirectionGrid,
    n_iter: int = 300,
    seed: int = 0,
) -> float:
    """Diagnostic estimate of r(P^{s+it}) / k(s) via normalized iteration.

    The oscillatory operator P^z f(x) = sum_i w_i |g_i x|^s e^{i t log|g_i x|}
    f(g_i.x) has spectral radius strictly below k(s) when t != 0 (for
    ensembles with the standing hypotheses); no complex eigen-pair is
    extracted, only the growth-rate ratio.
    """
    ks = KSolver(e, grid, tol=1e-10)
    Pz = ks.op.matrix(s + 1j * t)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(grid.n_nodes) + 1j * rng.standard_normal(grid.n_nodes)
    growths = []
    for it in range(n_iter):
        out = Pz @ f
        norm = np.abs(out).max()
        if norm < 1e-300:
            return 0.0
        growths.append(np.log(norm))
        f = out / norm
    tail = growths[n_iter // 2:]
    return float(np.exp(np.mean(tail)) / ks.k(s))

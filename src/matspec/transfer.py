"""Discretized transfer operators and their dominant eigen-objects.

For a finite-support measure mu on GL(d) and s >= 0, the weighted operator

    (P^s f)(x) = sum_i w_i |g_i x|^s f(g_i . x)

acts on functions over the direction grid; interpolation closes the action
on grid values.  A TransferOperator computes the s-independent part once per
(ensemble, grid): per atom, the interpolation stencil S_i of g_i.x and
log|g_i x|.  Every row of P^s = sum_i w_i diag(|g_i x|^s) S_i and of its
derivative in s then holds the same number of entries, atoms times stencil
width, so either is a pair of (N, L) arrays of columns and values with numpy
mat-vecs; the adjoint is exactly its transpose, so grid duality
<P^s f, sigma> = <f, (P^s)* sigma> holds by construction.
Explicitly restarted Arnoldi (Saad, Numerical Methods for Large Eigenvalue
Problems, ch. 6) on P^s and on its adjoint, started cold or from the
eigen-pair of a nearby s, produces the dominant eigenvalue k(s), the
positive eigenfunction e^s and the eigenmeasure nu^s, normalized so that
nu^s has mass 1 and nu^s(e^s) = 1.  That normalization pins the rank-one
projector nu^s (x) e^s uniquely.  The spectral gap of P^s makes k(s) simple
and isolated, which a Krylov solve exploits where power iteration converges
only at the rate |lambda_2 / k(s)|.

One KSolver per (ensemble, grid) owns that operator family, the solver of
the transposed ensemble on the same grid, and every solved point of both:
it is the only place that builds a TransferOperator or runs an eigen-solve,
in every dimension; pairing_p pairs its point at s with the point of star
at s into p(s).
The d=1 grid is a single node, where P^s is the 1 x 1 Mellin sum
sum_i w_i |a_i|^s and the solve returns it as k(s).

The one-step tilted Markov kernel

    q^s(x, g_i) = w_i |g_i x|^s e^s(g_i.x) / (e^s(x) c(x)),

with c(x) its exact normalizer (k(s) up to discretization), is the sampling
device of every rare-event and Lyapunov routine downstream; TiltedChain
runs it on many paths at once and keeps the likelihood ratio of each path
against the untilted walk.  A chain is built from a KSolver and a stack of
exponents, one exponent being a stack of one, so its kernel and every e^s
it reads come from one solver: each row keeps its exponent, reads e^s from
that exponent's block of one stacked table and tilts by that s, so walks
at many exponents share every kernel call.  The chain is also the
kernel's one state object: each row's exponent and offset into that
table, the table, the atoms' operands and the work buffers.  tilted_probs,
the kernel, reads them all from the chain, and runs only inside
TiltedChain.step, which passes the chain itself.  A tilted step forms every
atom's image of every path in one matrix product and interpolates e^s at
all of them in one stencil call; step takes its uniforms from the caller
so that each row keeps the random stream it was drawn from.  A chain holds
only live rows: a walk retires finished paths with TiltedChain.keep, which
compacts them out, and reads each kept row's number in the chain as built
from ids.

The kernel stores rows last, images (d, m, M) and probabilities (m, M)
for M rows and m atoms, so every elementwise operation runs along one
contiguous axis; its sums add in the order of numpy's sum over a short last
axis, which keeps the numbers of the rows-first kernel bit for bit.  Its
arrays live in work buffers a chain reuses on every step, while x, e_x and
logmag are new arrays after each step, so a caller may hold them across one.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .ensemble import LinearEnsemble, transpose
from .projective import (
    PROJECTIVE,
    DirectionGrid,
    GridFunction,
    GridMeasure,
    act_many,
    build_grid,
    interp_stencil,
    interpolate,
    stencil_sum,
)

__all__ = [
    "SpectralPoint",
    "TransferOperator",
    "KSolver",
    "power_iterate",
    "pairing_p",
    "tilted_probs",
    "TiltedChain",
]

DEFAULT_RESOLUTION = 512
KRYLOV_DIM = 20  # most Arnoldi steps in one cycle of an eigen-solve
MAX_ITER = 20000  # most mat-vecs of one eigen-solve
TOL = 1e-11  # bound on both residuals of a converged eigen-solve


@dataclass
class SpectralPoint:
    """Solved eigen-problem of P^s at one exponent s.

    e is strictly positive at every node; nu has total mass 1 and
    nu(e) = 1 within 1e-8.  residual_e is the relative sup-norm residual of
    the eigen-equation, residual_nu the relative l1 residual of the adjoint;
    iterations counts the mat-vecs of the solve, with P^s and its adjoint.
    """

    s: float
    k: float
    e: GridFunction
    nu: GridMeasure
    iterations: int
    residual_e: float
    residual_nu: float
    converged: bool = True

    @property
    def pi(self) -> np.ndarray:
        """Stationary law pi^s = e^s nu^s of the tilted chain (probability)."""
        m = self.e.values * self.nu.masses
        return m / m.sum()


class TransferOperator:
    """The s-independent part of P^s on one (ensemble, grid).

    Row j of every assembled matrix holds the stencil entries of atom 0 at
    g_0 . x_j, then those of atom 1, and so on; a column that repeats within
    a row adds once per entry.
    """

    def __init__(self, e: LinearEnsemble, grid: DirectionGrid):
        self.ensemble = e
        self.grid = grid
        idx, weights, lognorms = [], [], []
        for g, wi in zip(e.matrices, e.weights):
            images, ln = act_many(g, grid.nodes)
            i, w = interp_stencil(grid, images)
            idx.append(i.T)
            weights.append(wi * w.T)
            lognorms.append(np.repeat(ln[:, None], len(w), axis=1))
        self._indices = np.concatenate(idx, axis=1)
        self._indices_t = np.ascontiguousarray(self._indices.T)
        self._weights = np.concatenate(weights, axis=1)
        self._lognorms = np.concatenate(lognorms, axis=1)

    def matrix(self, s: float) -> _RowMatrix:
        """P^s as an (N, N) operator with ``@``; .T is its exact adjoint.
        Every eigen-solve builds P^s here, so this alone rejects s < 0."""
        if s < 0:
            raise ValueError("negative exponents are not supported")
        return _RowMatrix(self, self._weights * np.exp(s * self._lognorms))

    def derivative(self, s: float) -> _RowMatrix:
        """dP^s/ds = sum_i w_i diag(log|g_i x| |g_i x|^s) S_i."""
        return _RowMatrix(self, self._weights * self._lognorms * np.exp(s * self._lognorms))


class _RowMatrix:
    """An (N, N) matrix of an operator family whose row j holds data[j, l]
    at column op._indices[j, l], l < L.

    ``@`` adds each row's L terms in order from 0, as scipy's CSR mat-vec
    does; ``.T @`` adds each entry's term into its column in (row, entry)
    order from 0, as the mat-vec of the CSC transpose does.  Both products
    therefore equal the sparse ones bit for bit.
    """

    def __init__(self, op: TransferOperator, data: np.ndarray):
        self._op = op
        self._data = data
        self._data_t = np.ascontiguousarray(data.T)

    def __matmul__(self, f: np.ndarray) -> np.ndarray:
        # the (L, N) layout makes each add a contiguous pass over the rows
        terms = f.take(self._op._indices_t)
        terms *= self._data_t
        return np.add.reduce(terms, axis=0, initial=0.0)

    @property
    def T(self) -> _Adjoint:
        return _Adjoint(self)


class _Adjoint:
    """The transpose of a _RowMatrix, for ``@`` only."""

    def __init__(self, m: _RowMatrix):
        self._m = m

    def __matmul__(self, sigma: np.ndarray) -> np.ndarray:
        m = self._m
        n, row_len = m._data.shape
        # bincount adds its weights in order, (row, entry) flattened
        terms = sigma.repeat(row_len)
        terms *= m._data.ravel()
        return np.bincount(m._op._indices.ravel(), terms, n)


class KSolver:
    """Every k(s) evaluation and eigen-solve of one ensemble on one grid.

    k and k' come from the grid in every dimension; on the single node of
    d=1, k(s) is the Mellin sum sum_i w_i |a_i|^s itself.  The solver owns
    the operator family of the ensemble (``op``) and, through ``star``, the
    solver of the transposed ensemble on the same grid (itself in d=1);
    both are built on first use.  Solved points are cached by s, and a new
    s starts from the cached point nearest to it.  Every solve runs
    power_iterate, to TOL in both residuals within MAX_ITER mat-vecs.
    """

    def __init__(self, e: LinearEnsemble, grid: DirectionGrid | None = None):
        self.ensemble = e
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
        """The solver of the transposed ensemble on the same grid; in d=1,
        where a 1 x 1 atom is its own transpose, the solver itself."""
        if self.ensemble.dimension == 1:
            return self
        if self._star is None:
            self._star = KSolver(transpose(self.ensemble), self.grid)
        return self._star

    def k(self, s: float) -> float:
        return self.point(s).k

    def solved(self) -> list[SpectralPoint]:
        """Every point solved so far, and those of star if it was built."""
        star = self._star._points.values() if self._star else ()
        return [*self._points.values(), *star]

    def k_prime(self, s: float) -> float:
        """k'(s) = nu^s(P'^s e^s) (nu^s(e^s) = 1), the Hellmann-Feynman
        derivative of the discretized k."""
        sp = self.point(s)
        return float(sp.nu.masses @ (self.op.derivative(s) @ sp.e.values))

    def point(self, s: float) -> SpectralPoint:
        """The solved eigen-problem at s."""
        key = float(s)
        sp = self._points.get(key)
        if sp is None:
            nearest = min(self._points, key=lambda t: abs(t - key), default=None)
            sp = power_iterate(self.op, key, start=self._points.get(nearest))
            self._points[key] = sp
        return sp


def power_iterate(
    op: TransferOperator, s: float, start: SpectralPoint | None = None
) -> SpectralPoint:
    """(k(s), e^s, nu^s) of the operator family op by explicitly restarted
    Arnoldi on P^s for e^s and on its adjoint for nu^s; KSolver.point is its
    one caller in the package.

    Each round runs one Arnoldi cycle on each side (_perron_cycle), clips
    the Ritz vectors' negative entries to 0 and takes one alternating power
    step, which gives the residuals and the normalization.  k is the
    Rayleigh quotient <P^s e, nu>/<e, nu> of that step; rounds stop when the
    eigenfunction and eigenmeasure residuals both fall below TOL, and
    ``converged`` records whether they did within MAX_ITER mat-vecs
    (``iterations`` counts the mat-vecs of both sides).  start is a solved
    point of the same family whose (e, nu) start the cycles in place of
    (1, quadrature weights).  Without irreducibility + proximality the
    dominant pair need not be unique.  bench/tracer.py times the solve
    under this name.
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
    matvecs = 0
    # np.max and np.sum without their Python wrappers, which cost about as
    # much as the reductions themselves on a few hundred nodes
    amax, total = np.maximum.reduce, np.add.reduce
    while True:
        steps = max(1, min(KRYLOV_DIM, (MAX_ITER - matvecs - 2) // 2))
        f, n_f = _perron_cycle(P, f, steps, np.inf)
        sigma, n_sigma = _perron_cycle(PT, sigma, steps, 1)
        # Ritz vectors carry rounding-level negative entries
        np.maximum(f, 0.0, out=f)
        np.maximum(sigma, 0.0, out=sigma)
        f_new = P @ f
        sig_new = PT @ sigma
        matvecs += n_f + n_sigma + 2
        k_est = float((f_new @ sigma) / (f @ sigma))
        res_e = float(amax(np.abs(f_new - k_est * f)) / amax(np.abs(f)))
        res_nu = float(total(np.abs(sig_new - k_est * sigma)) / (abs(k_est) * total(sigma)))
        f = f_new / amax(f_new)
        sigma = sig_new / total(sig_new)
        converged = res_e < TOL and res_nu < TOL
        if converged or matvecs >= MAX_ITER:
            break
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
        iterations=matvecs,
        residual_e=res_e,
        residual_nu=res_nu,
        converged=converged,
    )


def _perron_cycle(A, v: np.ndarray, steps: int, ord: float) -> tuple[np.ndarray, int]:
    """One Arnoldi cycle of at most `steps` steps (one mat-vec each) on A
    from v: the Ritz vector x of the real Ritz value theta of largest real
    part, the Perron root, signed to a positive sum, and the steps taken.

    The cycle ends early once the residual A x - theta x = H[j+1, j] y_j
    v_{j+1} (y the Ritz pair's eigenvector of the Hessenberg block) meets
    the stop rule of power_iterate: in ord = inf, its sup norm over that
    of x (the e side); in ord = 1, its l1 norm over |theta| times that of x
    (the nu side), each below TOL.  A test is a dense eigen-solve, as dear
    as a few steps, so the first comes after 2 steps and each later one
    where the residual, falling geometrically at its last rate, would meet
    the bound.
    """
    V = np.empty((steps + 1, v.size))  # orthonormal basis, one row a vector
    H = np.zeros((steps + 1, steps))
    V[0] = v / np.linalg.norm(v)
    test, last = 2, None
    for j in range(1, steps + 1):
        w = A @ V[j - 1]
        basis = V[:j]
        h = basis @ w  # classical Gram-Schmidt, applied twice (CGS2)
        w -= h @ basis
        h2 = basis @ w
        w -= h2 @ basis
        H[:j, j - 1] = h + h2
        H[j, j - 1] = beta = np.linalg.norm(w)
        if j >= test or j == steps or beta == 0.0:
            vals, vecs = np.linalg.eig(H[:j, :j])
            i = np.where(vals.imag == 0.0, vals.real, -np.inf).argmax()
            x = vecs[:, i].real @ basis
            # A x - theta x = y_j w: the Ritz residual in the stop rule's norm
            est = abs(vecs[-1, i].real) * np.linalg.norm(w, ord) / np.linalg.norm(x, ord)
            bound = TOL * (abs(vals[i]) if ord == 1 else 1.0)
            if est <= bound or j == steps:
                break
            rate = (est / last[1]) ** (1.0 / (j - last[0])) if last else 1.0
            test = j + (int(np.ceil(np.log(bound / est) / np.log(rate))) if rate < 1.0 else 2)
            last = (j, est)
        V[j] = w / beta
    return (x if x.sum() >= 0.0 else -x), j


def pairing_p(sp: SpectralPoint, sp_star: SpectralPoint) -> tuple[float, float]:
    """p(s) = sum_{x,y} |<x,y>|^s nu^s(x) *nu^s(y) on the grid, and the
    residual of the identity p(s) e^s(x) = integral |<x,y>|^s d *nu^s(y) in
    sup norm relative to max e^s, which checks e^s independently of the
    eigen-solve that produced it.  Both points share the grid and s.  The
    kernel |<x,y>|^s is formed a block of rows at a time, so memory stays
    bounded in the grid size.
    """
    nodes = sp.nu.grid.nodes
    rows = max(1, 2**18 // len(nodes))  # bounds each block of the kernel
    rhs = np.empty(len(nodes))
    for lo in range(0, len(nodes), rows):
        kernel = nodes[lo:lo + rows] @ nodes.T
        np.abs(kernel, out=kernel)
        kernel **= sp.s
        rhs[lo:lo + rows] = kernel @ sp_star.nu.masses
    p = float(sp.nu.masses @ rhs)
    return p, float(np.max(np.abs(p * sp.e.values - rhs)) / np.max(sp.e.values))


def tilted_probs(
    e: LinearEnsemble,
    chain: TiltedChain,
    xs: np.ndarray,
    e_xs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized one-step tilted kernel of chain's rows at unit rows xs
    (M, d), where e_xs (M,) holds e^s at xs.

    Row r tilts by chain.s[r] and reads e^s at node j from
    chain.values[chain.offset[r] + j], bit for bit projective.interpolate
    on its point's e^s; the atoms' operands and the work arrays are the
    chain's too.  Returns, rows last, (probs (m, M), normalizer (M,),
    images (d, m, M), lognorms (m, M), e^s at the images (m, M)); each
    column of probs is normalized, and normalizer / k(s) ~ 1 up to
    discretization.  Every atom's image comes from one product and e^s at
    all m images from one stencil call.  xs may be the transposed view of
    rows stored last.  The probs, images and lognorms returned live in the
    chain's buffers until its next call.
    """
    M, d = xs.shape
    m = e.n_atoms
    images = np.matmul(chain._g, xs.T, out=chain._buffer("images", (d * m, M))).reshape(d, m, M)
    norms = chain._buffer("lognorms", (m, M))
    probs = chain._buffer("probs", (m, M))
    np.multiply(images[0], images[0], out=norms)
    for c in range(1, d):
        norms += np.multiply(images[c], images[c], out=probs)
    np.sqrt(norms, out=norms)
    if np.any(norms < 1e-300):
        raise FloatingPointError("`|gx|` underflow: numerically degenerate atom")
    images /= norms
    lognorms = np.log(norms, out=norms)
    k = chain.grid.stencil_width
    idx, w = interp_stencil(chain.grid, images.reshape(d, m * M).T,
                            out=(chain._buffer("idx", (k, m * M), np.intp),
                                 chain._buffer("w", (k, m * M))))
    if chain.stacked:  # a chain at one exponent reads offset 0 on every row
        idx.reshape(k, m, M)[...] += chain.offset
    e_img = stencil_sum(chain.values, idx, w).reshape(m, M)
    # w_i e^{s log|g_i x|} e^s(g_i.x) / e^s(x), one operation at a time in place
    np.multiply(lognorms, chain.s, out=probs)
    np.exp(probs, out=probs)
    probs *= chain._weights
    probs *= e_img
    probs /= e_xs
    # numpy adds 8 or more terms of a contiguous row pairwise
    normalizer = probs.sum(axis=0) if m < 8 else np.ascontiguousarray(probs.T).sum(axis=1)
    probs /= normalizer
    return probs, normalizer, images, lognorms, e_img


class TiltedChain:
    """Paths of the tilted chain of one KSolver's ensemble at a stack of
    exponents, each path carrying its state.

    s_values is a sequence of S exponents and x0 a sequence of S blocks of
    unit start rows, block p (M_p, d) starting the paths at s_values[p];
    the chain's rows are the blocks in order, and each row keeps its point
    ks.point(s_values[p]).  A chain at one exponent is a stack of one.  A
    path holds its direction x, e^s at x (e_x), logmag = log|S_n x0| and
    lognorm, the sum of the log one-step normalizers of the kernel it was
    drawn from.  Each step inverts each path's cumulative kernel row at one
    given uniform; e^s at the new direction is the image value the kernel
    already interpolated.  Rows of every exponent share one kernel call per
    step.  keep retires paths by dropping their rows, and ids holds each
    remaining row's number in the chain as built.

    The chain is the kernel's one state: each row's exponent s and its
    offset, the first index of its point's e^s in values, which stacks e^s
    of every point on grid, point after point (stacked is False for a chain
    at one exponent, whose offsets are all 0 and go unread); the atoms'
    operands, where row (c, i) of _g is row c of atom i, so that _g @ x puts
    component c of every image in block c; and the kernel's work buffers.
    The chain stores its directions rows last, (d, rows), and x is the
    transposed view.  step binds new arrays to x, e_x and logmag, so a
    caller may hold the arrays it read before a step; lognorm is updated in
    place, and the work buffers are reused on every step.
    """

    def __init__(self, ks: KSolver, s_values: Sequence[float], x0: Sequence[np.ndarray]):
        if len(s_values) != len(x0):
            raise ValueError("a stack needs one row block per exponent")
        e = self.ensemble = ks.ensemble
        self.grid = ks.grid
        points = [ks.point(s) for s in s_values]
        blocks = [np.array(b, dtype=float, ndmin=2) for b in x0]
        counts = [len(b) for b in blocks]
        self.values = np.concatenate([p.e.values for p in points])
        self.s = np.repeat([p.s for p in points], counts)
        self.offset = np.repeat(np.arange(len(points)) * self.grid.n_nodes, counts)
        self.stacked = len(points) > 1
        self._g = e.matrices.swapaxes(0, 1).reshape(e.dimension * e.n_atoms, e.dimension)
        self._weights = e.weights[:, None]
        self._flat: dict[str, np.ndarray] = {}
        self._xt = np.concatenate(blocks).T.copy()  # (d, rows): rows last
        self.e_x = np.concatenate([interpolate(p.e, b) for p, b in zip(points, blocks)])
        self._log_e_x0 = np.log(self.e_x)
        self.logmag = np.zeros(len(self.e_x))
        self.lognorm = np.zeros(len(self.e_x))
        self.ids = np.arange(len(self.e_x))

    @property
    def x(self) -> np.ndarray:
        """Each path's direction (rows, d), a view of the rows-last store."""
        return self._xt.T

    def _buffer(self, name: str, shape: tuple[int, ...], dtype=float) -> np.ndarray:
        """A C-contiguous prefix of the flat work buffer name, allocated at
        the first, largest request; a chain's rows only shrink, so it serves
        every later step.  Arrays this size allocated afresh each step are
        faulted in again whenever the allocator has returned the heap top to
        the system, which depends on the heap layout."""
        size = math.prod(shape)
        buf = self._flat.get(name)
        if buf is None or buf.size < size:
            buf = self._flat[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)

    def step(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Advance every path one step, path i at the uniform u[i]; returns
        (atom, log|g x|)."""
        probs, normalizer, images, lognorms, e_img = tilted_probs(
            self.ensemble, self, self.x, self.e_x)
        m, n = lognorms.shape
        # the atom is the count of running sums below u; the sums rise, so
        # counting the first m - 1 caps it at the last atom
        atom = np.zeros(n, dtype=np.intp)
        cdf = np.zeros(n)
        for j in range(m - 1):
            cdf += probs[j]
            atom += u > cdf
        drawn = atom * n + np.arange(n)  # each row's atom, (atom, row) flattened
        ln = lognorms.take(drawn)
        self._xt = images.reshape(len(images), -1).take(drawn, axis=1)
        self.e_x = e_img.take(drawn)
        self.logmag = self.logmag + ln
        self.lognorm += np.log(normalizer)
        return atom, ln

    def keep(self, live: np.ndarray) -> None:
        """Drop the rows where the boolean live is False, by one gather; the
        kept rows keep their order and the store stays rows last."""
        if live.all():
            return
        rows = np.flatnonzero(live)
        self._xt = self._xt.take(rows, axis=1)
        for name in ("e_x", "_log_e_x0", "logmag", "lognorm", "ids", "s", "offset"):
            setattr(self, name, getattr(self, name).take(rows))

    def log_lr(self) -> np.ndarray:
        """log e^s(x0) - log e^s(x_n) - s log|S_n x0| + sum of log
        normalizers: the exact log likelihood ratio of the untilted path
        against the simulated chain."""
        return (self._log_e_x0 - np.log(self.e_x)
                - self.s * self.logmag + self.lognorm)

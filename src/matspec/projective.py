"""Discretized unit sphere / projective space, group action, interpolation.

Grids for d in {1, 2, 3}; Monte Carlo code elsewhere works in any d.  A
projective grid stores one representative per antipodal pair, and every
operation that takes unit vectors accepts arbitrary representatives (the
projective stencils fold signs).  Interpolation is linear in angle for
d = 2 and inverse-distance over the 3 nearest nodes for d = 3; both are
exact at nodes.  The eigenfunctions this package interpolates are Holder
continuous, so low-order interpolation suffices; it is the dominant but
controlled discretization error source.

A d = 3 grid carries a KD-tree over its nodes, and over their antipodes too
when projective; a stencil lists each node once, nearest first, with equal
distances broken towards the lower node index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "DirectionGrid",
    "GridFunction",
    "GridMeasure",
    "build_grid",
    "act_many",
    "interpolate",
    "interp_stencil",
    "stencil_sum",
]

SPHERE = "sphere"
PROJECTIVE = "projective"


@dataclass(frozen=True)
class DirectionGrid:
    """Node set on S^{d-1} (mode "sphere") or P^{d-1} (mode "projective").

    quadrature_weights approximate the rotation-invariant measure and sum
    to 1; tree is the d = 3 nearest-node index (None for d < 3), whose
    point p is node p mod N.
    """

    dimension: int
    mode: str
    nodes: np.ndarray            # (N, d), unit rows
    quadrature_weights: np.ndarray  # (N,), positive, sums to 1
    tree: cKDTree | None = field(default=None, repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def angle_span(self) -> float:
        return np.pi if self.mode == PROJECTIVE else 2.0 * np.pi


@dataclass
class GridFunction:
    """One value per grid node."""

    grid: DirectionGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (self.grid.n_nodes,):
            raise ValueError(f"values shape {v.shape} != ({self.grid.n_nodes},)")
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite values in GridFunction")
        self.values = v


@dataclass
class GridMeasure:
    """Nonnegative mass per node."""

    grid: DirectionGrid
    masses: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float)
        if m.shape != (self.grid.n_nodes,):
            raise ValueError(f"masses shape {m.shape} != ({self.grid.n_nodes},)")
        if np.any(m < 0):
            raise ValueError("negative mass in GridMeasure")
        self.masses = m


def build_grid(d: int, resolution: int, mode: str = PROJECTIVE) -> DirectionGrid:
    """Construct a grid: two points (d=1 sphere), uniform circle angles
    (d=2, exactly `resolution` nodes), Fibonacci lattice (d=3).

    Projective grids keep one representative per antipodal pair: half-circle
    angles for d=2, an upper-hemisphere Fibonacci lattice for d=3.
    """
    if mode not in (SPHERE, PROJECTIVE):
        raise ValueError(f"unknown mode {mode!r}")
    if d == 1:
        if mode == SPHERE:
            nodes = np.array([[1.0], [-1.0]])
            weights = np.array([0.5, 0.5])
        else:
            nodes = np.array([[1.0]])
            weights = np.array([1.0])
        return DirectionGrid(d, mode, nodes, weights)
    if d == 2:
        n = int(resolution)
        if n < 2:
            raise ValueError("resolution must be >= 2 for d = 2")
        span = 2.0 * np.pi if mode == SPHERE else np.pi
        theta = span * np.arange(n) / n
        nodes = np.column_stack([np.cos(theta), np.sin(theta)])
        weights = np.full(n, 1.0 / n)
        return DirectionGrid(d, mode, nodes, weights)
    if d == 3:
        n = int(resolution)
        if n < 4:
            raise ValueError("resolution must be >= 4 for d = 3")
        k = np.arange(n)
        golden = np.pi * (3.0 - np.sqrt(5.0))
        if mode == SPHERE:
            z = 1.0 - (2.0 * k + 1.0) / n
        else:
            z = (k + 0.5) / n  # open upper hemisphere, one rep per pair
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        phi = golden * k
        nodes = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
        nodes /= np.linalg.norm(nodes, axis=1, keepdims=True)
        weights = np.full(n, 1.0 / n)
        tree = cKDTree(np.vstack([nodes, -nodes]) if mode == PROJECTIVE else nodes)
        return DirectionGrid(d, mode, nodes, weights, tree)
    raise ValueError(f"unsupported dimension {d}; grid path covers d in {{1,2,3}}")


def act_many(g: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projective action y = gx/|gx| of g on the rows of xs (M, d), with the
    norm cocycle: returns (M, d) images and (M,) log|gx|."""
    gx = xs @ g.T
    norms = np.linalg.norm(gx, axis=1)
    if np.any(norms < 1e-300):
        raise FloatingPointError("`|gx|` underflow: numerically degenerate atom")
    return gx / norms[:, None], np.log(norms)


def interp_stencil(grid: DirectionGrid, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interpolation stencil for unit queries xs (M, d).

    Returns (idx, w) of shape (M, k) so that interpolate(f, xs) equals
    sum_j w[:, j] * f.values[idx[:, j]].  Weights are a partition of unity
    and the stencil reproduces node values exactly.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    d = grid.dimension
    n = grid.n_nodes
    if d == 1:
        if grid.mode == PROJECTIVE:
            idx = np.zeros((xs.shape[0], 1), dtype=np.intp)
        else:
            idx = (xs[:, 0] < 0).astype(np.intp)[:, None]
        return idx, np.ones_like(idx, dtype=float)
    if d == 2:
        # theta % span without the slow float fmod: arctan2 lies in
        # [-pi, pi], so pi itself wraps to +0 on the projective half circle
        # and every other angle wraps only when negative
        span = grid.angle_span
        theta = np.arctan2(xs[:, 1], xs[:, 0])
        theta[theta >= span] = 0.0
        pos = np.where(theta < 0, theta + span, theta)
        pos /= span / n
        fl = np.floor(pos)
        idx = np.empty((len(pos), 2), dtype=np.intp)
        idx[:, 0] = fl
        idx[:, 1] = idx[:, 0] + 1
        idx[idx >= n] -= n  # pos lies in [0, n]: node n is node 0
        w = np.empty((len(pos), 2))
        np.subtract(pos, fl, out=w[:, 1])
        np.subtract(1.0, w[:, 1], out=w[:, 0])
        return idx, w
    # d = 3: inverse-distance weights over the 3 nearest nodes.  A projective
    # tree holds node x and -x, at distances d <= sqrt(2) <= sqrt(4 - d^2)
    # from the query; with at least 4 nodes both copies can only be among
    # the 3 nearest points when 3 nodes are orthogonal to the query, so the
    # stencil's nodes are distinct.  The 4th point exposes a tie at the 3rd
    # place, and the tree orders equal distances arbitrarily: re-sorting by
    # (distance, node index) orders ties by node index.
    k = 3
    dist, hit = grid.tree.query(xs, k=k + 1)
    node = hit % n
    order = np.lexsort((node, dist), axis=1)
    idx = np.take_along_axis(node, order, axis=1)[:, :k]
    dist = np.take_along_axis(dist, order, axis=1)[:, :k]
    w = 1.0 / np.maximum(dist, 1e-30)
    w[dist[:, 0] < 1e-12] = np.eye(k)[0]  # a node hit is the nearest node
    # numpy sums a row this short in order; the column adds are that sum
    return idx, w / (w[:, 0] + w[:, 1] + w[:, 2])[:, None]


def interpolate(f: GridFunction, x: np.ndarray) -> float | np.ndarray:
    """Evaluate a grid function at unit vector(s) x; exact at grid nodes."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    out = stencil_sum(f.values, *interp_stencil(f.grid, x))
    return out[0] if single else out


def stencil_sum(values: np.ndarray, idx: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_j w[:, j] * values[idx[:, j]], adding the short rows in order as
    numpy does, so that every caller reads the same bits."""
    terms = values.take(idx) * w
    out = terms[:, 0]
    for j in range(1, idx.shape[1]):
        out = out + terms[:, j]
    return out


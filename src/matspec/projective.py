"""Discretized projective space, group action, interpolation.

Grids for d in {1, 2, 3}; Monte Carlo code elsewhere works in any d.  A grid
stores one representative per antipodal pair, and every operation that
takes unit vectors accepts either representative: the stencils fold signs.
Interpolation is linear in angle for d = 2 and bilinear in angle on a cube
sphere for d = 3.  Both stencils have nonnegative weights that sum to 1,
are exact at nodes and are continuous.  The eigenfunctions this package
interpolates are Holder continuous, so low-order interpolation suffices; it
is the dominant but controlled discretization error source.

The d = 3 grid is an equiangular gnomonic cube sphere (Ronchi, Iacono &
Paolucci, J. Comput. Phys. 124, 1996).  A point x lies on face
2a + (x_a < 0) of its largest |component| a (the first on ties), at face
coordinates (u, v) = (x_{a+1}, x_{a+2}) / |x_a| (axes mod 3) and face angles
(arctan u, arctan v) in [-pi/4, pi/4]^2.  Each face is cut into R x R cells
of equal angle, and the nodes are the cell vertices.  Vertex (I0, I1, I2)
of the lattice {0..R}^3 lies at (t_I0, t_I1, t_I2), t_i the tangent of
-pi/4 + i pi / (2R); its antipode is (R - I0, R - I1, R - I2).  A vertex
shared by faces is one node, and so is a vertex with its antipode, keyed by
the smaller of the pair: an even R gives 3R^2 + 1 nodes, the axes among
them.  A query's stencil is its cell's 4 corners with bilinear weights in
the two face angles; on a face edge the faces on both sides weigh the
edge's vertices alike.  The grid of 2R holds every node of the grid of R.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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

PROJECTIVE = "projective"


@dataclass(frozen=True)
class DirectionGrid:
    """Node set on P^{d-1}, one representative per antipodal pair.

    quadrature_weights approximate the rotation-invariant measure and sum
    to 1; corners (d = 3, else None) holds the node of every cube-sphere
    vertex (face, i, j), shape (6, R + 1, R + 1).
    """

    dimension: int
    mode: str
    nodes: np.ndarray            # (N, d), unit rows
    quadrature_weights: np.ndarray  # (N,), positive, sums to 1
    corners: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def stencil_width(self) -> int:
        """The number of nodes k in each query's interp_stencil."""
        return 4 if self.dimension == 3 else self.dimension


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
    """Construct a projective grid: the single node in d=1, `resolution`
    equal angles on the half circle in d=2, and in d=3 the cube sphere of
    the smallest even R with 3R^2 + 1 >= resolution nodes (128 gives R = 8
    and 193 nodes, 512 gives R = 14 and 589 nodes)."""
    if mode != PROJECTIVE:
        raise ValueError(f"unknown mode {mode!r}: every grid is projective")
    if d == 1:
        return DirectionGrid(d, mode, np.array([[1.0]]), np.array([1.0]))
    if d == 2:
        n = int(resolution)
        if n < 2:
            raise ValueError("resolution must be >= 2 for d = 2")
        theta = np.pi * np.arange(n) / n
        nodes = np.column_stack([np.cos(theta), np.sin(theta)])
        return DirectionGrid(d, mode, nodes, np.full(n, 1.0 / n))
    if d == 3:
        n = int(resolution)
        if n < 4:
            raise ValueError("resolution must be >= 4 for d = 3")
        r = 2
        while 3 * r * r + 1 < n:
            r += 2
        return _cube_sphere(r)
    raise ValueError(f"unsupported dimension {d}; grid path covers d in {{1,2,3}}")


def _cube_sphere(r: int) -> DirectionGrid:
    """The projective cube sphere of r x r cells a face, r even."""
    # the vertex tangents, exactly odd about r/2 and +-1 at the ends
    t = np.tan(np.pi / 4 * (2.0 * np.arange(r + 1) / r - 1.0))
    t = (t - t[::-1]) / 2
    t[0], t[r] = -1.0, 1.0
    # vertex (face, i, j) has I_a = r on face 2a and 0 on face 2a + 1,
    # I_{a+1} = i and I_{a+2} = j; its key is I read in base r + 1, and its
    # antipode's key is (r + 1)^3 - 1 - key
    lattice = (r + 1,) * 3
    i, j = np.meshgrid(np.arange(r + 1), np.arange(r + 1), indexing="ij")
    keys = np.empty((6, r + 1, r + 1), dtype=np.intp)
    for face in range(6):
        a = face // 2
        digit = [0, 0, 0]
        digit[a], digit[(a + 1) % 3], digit[(a + 2) % 3] = r * (1 - face % 2), i, j
        keys[face] = np.ravel_multi_index(np.broadcast_arrays(*digit), lattice)
    keys = np.minimum(keys, (r + 1) ** 3 - 1 - keys)
    node_keys = np.flatnonzero(np.bincount(keys.ravel()))  # sorted, each once
    corners = np.searchsorted(node_keys, keys)
    nodes = t[np.column_stack(np.unravel_index(node_keys, lattice))]
    nodes /= np.linalg.norm(nodes, axis=1, keepdims=True)
    # each cell's solid angle F(u1, v1) - F(u0, v1) - F(u1, v0) + F(u0, v0),
    # F(u, v) = arctan(u v / sqrt(1 + u^2 + v^2)), in equal shares to its
    # 4 corners
    u, v = np.meshgrid(t, t, indexing="ij")
    f = np.arctan(u * v / np.sqrt(1.0 + u * u + v * v))
    cell = np.broadcast_to(f[1:, 1:] - f[:-1, 1:] - f[1:, :-1] + f[:-1, :-1], (6, r, r))
    weights = sum(np.bincount(corners[:, di:di + r, dj:dj + r].ravel(), cell.ravel(),
                              len(nodes)) for di in (0, 1) for dj in (0, 1))
    return DirectionGrid(3, PROJECTIVE, nodes, weights / weights.sum(), corners)


def act_many(g: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projective action y = gx/|gx| of g on the rows of xs (M, d), with the
    norm cocycle: returns (M, d) images and (M,) log|gx|."""
    gx = xs @ g.T
    norms = np.linalg.norm(gx, axis=1)
    if np.any(norms < 1e-300):
        raise FloatingPointError("`|gx|` underflow: numerically degenerate atom")
    return gx / norms[:, None], np.log(norms)


# the next axis mod 3
_NEXT = np.array([1, 2, 0])


def interp_stencil(grid: DirectionGrid, xs: np.ndarray,
                   out: tuple[np.ndarray, np.ndarray] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Interpolation stencil for unit queries xs (M, d).

    Returns (idx, w) of shape (k, M), queries last (k the grid's
    stencil_width), so that interpolate(f, xs) equals
    sum_j w[j] * f.values[idx[j]].  Weights are nonnegative, sum to 1 and
    reproduce node values exactly.  xs may be the transposed view of
    queries stored last, (d, M); each component is then read as one
    contiguous row.  out, a C-contiguous (k, M) intp array and float array,
    receives the stencil in place of new arrays.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    d = grid.dimension
    n = grid.n_nodes
    if out is None:
        out = (np.empty((grid.stencil_width, len(xs)), dtype=np.intp),
               np.empty((grid.stencil_width, len(xs))))
    idx, w = out
    if d == 1:
        idx.fill(0)
        w.fill(1.0)
        return idx, w
    if d == 2:
        # theta % pi with neither the slow float fmod nor a branch: arctan2
        # lies in [-pi, pi], so pi itself wraps to +0, a negative angle adds
        # pi, and -0.0 turns +0.0 (pos - floor(pos) is +0.0 either way)
        theta = np.arctan2(xs[:, 1], xs[:, 0])
        theta[theta >= np.pi] = 0.0
        pos = theta + np.pi * (theta < 0)
        pos /= np.pi / n
        fl = np.floor(pos)
        idx[0] = fl
        np.add(idx[0], 1, out=idx[1])
        idx[idx >= n] -= n  # pos lies in [0, n]: node n is node 0
        np.subtract(pos, fl, out=w[1])
        np.subtract(1.0, w[1], out=w[0])
        return idx, w
    # d = 3: corners (i, j), (i, j + 1), (i + 1, j), (i + 1, j + 1) of the
    # query's cell (face, i, j), bilinear in the face angles
    r = grid.corners.shape[1] - 1
    xt = xs.T
    m = xt.shape[1]
    # the face axis: the largest |component|, the first on ties as argmax
    # picks it, by two comparisons rather than a strided argmax
    ax = np.abs(xt)
    a = (ax[1] > ax[0]).astype(np.intp)
    a[ax[2] > np.maximum(ax[0], ax[1])] = 2
    flat = xt.ravel()  # component c of query q at c * m + q
    base = np.arange(m)
    xa = flat.take(a * m + base)
    b = _NEXT.take(a)
    pos = np.empty((2, m))
    pos[0] = flat.take(b * m + base)
    pos[1] = flat.take(_NEXT.take(b) * m + base)
    pos /= np.abs(xa)
    # the cell coordinate (arctan + pi/4) r / (pi/2) lies in [0, r] up to
    # rounding, which the clip removes; r belongs to the last cell
    np.arctan(pos, out=pos)
    pos *= 2 * r / np.pi
    pos += r / 2
    np.clip(pos, 0.0, r, out=pos)
    cell = pos.astype(np.intp)
    np.minimum(cell, r - 1, out=cell)
    pos -= cell  # the fractions s (along i) and t (along j), in [0, 1]
    first = ((2 * a + (xa < 0)) * (r + 1) + cell[0]) * (r + 1) + cell[1]
    # the corner positions sit in w until the weights overwrite them, so no
    # step allocates a (4, M) array.  They are in range by construction (the
    # largest is 6r^2 + 12r + 5 of 6(r + 1)^2), so mode="clip" only skips the
    # buffer that mode="raise" gathers through; a NaN query clips to corner
    # 0, and its NaN weights keep its value NaN
    corners = np.add(np.array([[0], [1], [r + 1], [r + 2]]), first, out=w.view(np.int64))
    grid.corners.take(corners, out=idx, mode="clip")
    s, t = pos
    np.subtract(1.0, pos, out=w[2:])  # 1 - s, 1 - t
    np.multiply(w[2], w[3], out=w[0])
    np.multiply(w[2], t, out=w[1])
    np.multiply(s, w[3], out=w[2])
    np.multiply(s, t, out=w[3])
    return idx, w


def interpolate(f: GridFunction, x: np.ndarray) -> float | np.ndarray:
    """Evaluate a grid function at unit vector(s) x; exact at grid nodes."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    out = stencil_sum(f.values, *interp_stencil(f.grid, x))
    return out[0] if single else out


def stencil_sum(values: np.ndarray, idx: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_j w[j] * values[idx[j]] over a stencil (k, M), adding the k terms
    in order as numpy's sum over a short axis does, so that every caller
    reads the same bits."""
    terms = values.take(idx)
    terms *= w
    out = terms[0]
    for j in range(1, len(terms)):
        out += terms[j]
    return out

"""Discretized unit sphere / projective space, group action, interpolation.

Grids for d in {1, 2, 3}; Monte Carlo code elsewhere works in any d.  A
projective grid stores one representative per antipodal pair, and every
operation that takes unit vectors accepts arbitrary representatives (the
projective stencils fold signs).  Interpolation is linear in angle for
d = 2 and inverse-distance over the 3 nearest nodes for d = 3; both are
exact at nodes.  The eigenfunctions this package interpolates are Holder
continuous, so low-order interpolation suffices; it is the dominant but
controlled discretization error source.

A d = 3 grid carries a cube-map bucket index over its nodes, and over their
antipodes too when projective: each cell of the cube map lists every point
that can be among the 4 nearest of a query in the cell, so a query measures
its distance to a dozen points or so.  A stencil lists its nodes nearest
first, with equal distances broken towards the lower node index.
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

SPHERE = "sphere"
PROJECTIVE = "projective"


@dataclass(frozen=True)
class DirectionGrid:
    """Node set on S^{d-1} (mode "sphere") or P^{d-1} (mode "projective").

    quadrature_weights approximate the rotation-invariant measure and sum
    to 1; index is the d = 3 nearest-node index (None for d < 3), whose
    point p is node p mod N.
    """

    dimension: int
    mode: str
    nodes: np.ndarray            # (N, d), unit rows
    quadrature_weights: np.ndarray  # (N,), positive, sums to 1
    index: _CubeIndex | None = field(default=None, repr=False, compare=False)

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
        points = np.vstack([nodes, -nodes]) if mode == PROJECTIVE else nodes
        return DirectionGrid(d, mode, nodes, weights, _CubeIndex(points, n))
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
    # d = 3: inverse-distance weights over the 3 nearest nodes, ordered by
    # (distance, node).  A projective index holds node x and -x, at
    # distances d <= sqrt(2) <= sqrt(4 - d^2) from the query; with at least
    # 4 nodes both copies can only be among the 3 nearest points when 3
    # nodes are orthogonal to the query, so the stencil's nodes are distinct.
    k = 3
    idx, dist = grid.index.nearest(xs, k)
    w = 1.0 / np.maximum(dist, 1e-30)
    w[dist[:, 0] < 1e-12] = np.eye(k)[0]  # a node hit is the nearest node
    # numpy sums a row this short in order; the column adds are that sum
    return idx, w / (w[:, 0] + w[:, 1] + w[:, 2])[:, None]


# radians: covers the rounding of the cell lookup, the dot products and the
# angles of the build, and queries off the unit sphere by a few ulps
_CAP_MARGIN = 1e-9
# the padding point of a short cell list, farther from a unit query than any
# point on the sphere
_FAR = 4.0
# the next axis mod 3
_NEXT = np.array([1, 2, 0])


class _CubeIndex:
    """Nearest points on the unit sphere from a cube-map bucket table.

    The sphere is split like the faces of the cube [-1, 1]^3: a point lies
    on face 2a + (x_a < 0) of its largest |component| a (the first on ties),
    at gnomonic coordinates (u, v) = (x_{a+1}, x_{a+2}) / |x_a| (axes mod
    3).  Each face is cut into R x R cells by equal steps in u and v, so
    every cell edge is a great-circle arc, and r_c, the largest angle from
    the cell's centre c to one of its corners, bounds the angle from c to
    any point of the cell.  If theta_4(c) is the angle from c to its 4th
    nearest point, a query q in the cell has 4 points within
    theta_4(c) + r_c, so each of its 4 nearest points, ties included, lies
    within theta_4(c) + 2 r_c of c.  The cell lists every such point,
    ordered by (node, point), and pads its list with a far point.

    A query measures its distance to every point of its cell's list as a
    KD-tree does, sqrt(d0^2 + d1^2 + d2^2) added in that order, and takes
    the nearest points by (distance, node).
    """

    def __init__(self, points: np.ndarray, n_nodes: int):
        n_points = len(points)
        # point order (node, point): node p mod N, then its copy or -copy
        order = np.lexsort((np.arange(n_points), np.arange(n_points) % n_nodes))
        far = np.vstack([points[order], np.full((1, 3), _FAR)])
        # about one cell per point, so that a cell lists a dozen points; the
        # cells nest 4 x 4 in those of a coarse table that narrows the build
        r0 = int(np.ceil(np.sqrt(n_points) / 4))
        r = self._r = 4 * r0
        centre0, radius0 = _cube_cells(r0)
        centre, radius = _cube_cells(r)
        # the 16 fine cells (face, 4 i0 + di, 4 j0 + dj) of coarse cell (face, i0, j0)
        child = (np.arange(len(centre)).reshape(6, r0, 4, r0, 4)
                 .transpose(0, 1, 3, 2, 4).reshape(len(centre0), 16))
        # a fine cell c inside the coarse cell c0 lies within r_c0 of c0, so
        # theta_4(c) <= theta_4(c0) + r_c0 and its list lies within
        # theta_4(c0) + 2 (r_c0 + r_c) of c0
        grow0 = 2.0 * (radius0 + radius[child].max(axis=1))
        coarse = _cap_table(centre0[:, None], grow0[:, None],
                            np.arange(len(centre0))[:, None], far, np.arange(n_points)[None])
        # every child of a coarse cell measures the coarse cell's list
        table = _cap_table(centre[child], 2.0 * radius[child], child, far, coarse)
        self._width = table.shape[1]
        self._xyz = np.ascontiguousarray(np.moveaxis(far[table], 2, 0))  # (3, cells, width)
        self._node = np.append(order % n_nodes, 0).take(table).ravel()

    def _cells(self, xs: np.ndarray) -> np.ndarray:
        """The cell of each row of xs (M, 3)."""
        a = np.abs(xs).argmax(axis=1)
        flat = xs.ravel()
        base = np.arange(len(xs)) * 3
        xa = flat.take(base + a)
        b = _NEXT.take(a)
        m = np.abs(xa)
        r = self._r
        # u and v lie in [-1, 1]; 1 belongs to the last cell
        i = ((flat.take(base + b) / m + 1.0) * (r / 2)).astype(np.intp)
        j = ((flat.take(base + _NEXT.take(b)) / m + 1.0) * (r / 2)).astype(np.intp)
        np.minimum(i, r - 1, out=i)
        np.minimum(j, r - 1, out=j)
        return ((2 * a + (xa < 0)) * r + i) * r + j

    def nearest(self, xs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The nodes (M, k) of the k <= 4 nearest points to each row of xs
        (M, 3) and their distances, nearest first, equal distances ordered
        by node."""
        cells = self._cells(xs)
        d = self._xyz.take(cells, axis=1)  # (3, M, width)
        np.subtract(xs.T[:, :, None], d, out=d)
        d *= d
        dist = d[0] + d[1]
        dist += d[2]
        np.sqrt(dist, out=dist)
        rows = np.arange(len(xs)) * self._width
        slots = cells * self._width
        node = np.empty((len(xs), k), dtype=np.intp)
        best = np.empty((len(xs), k))
        flat = dist.ravel()
        for col in range(k):
            # argmin takes the first of equal distances: the lowest node
            at = dist.argmin(axis=1)
            best[:, col] = flat.take(rows + at)
            node[:, col] = self._node.take(slots + at)
            flat[rows + at] = np.inf
        return node, best


def _cube_cells(r: int) -> tuple[np.ndarray, np.ndarray]:
    """Centres (6 r^2, 3) and radii r_c of the cells of an r x r cube map,
    cell (face, i, j) in row (face r + i) r + j."""
    edges = np.linspace(-1.0, 1.0, r + 1)
    centre = _face_points((edges[:-1] + edges[1:]) / 2).reshape(-1, 3)
    corners = _face_points(edges)
    radius = np.zeros(len(centre))
    for di in (0, 1):
        for dj in (0, 1):
            corner = corners[:, di:di + r, dj:dj + r].reshape(-1, 3)
            # the angle, accurate when small
            angle = np.arctan2(np.linalg.norm(np.cross(centre, corner), axis=1),
                               np.sum(centre * corner, axis=1))
            np.maximum(radius, angle, out=radius)
    return centre, radius


def _face_points(t: np.ndarray) -> np.ndarray:
    """The unit points at u = t[i], v = t[j] of every face, (6, i, j, 3)."""
    u, v = np.meshgrid(t, t, indexing="ij")
    out = np.stack([np.roll(np.stack([np.full_like(u, 1.0 - 2.0 * (face % 2)), u, v],
                                     axis=-1), face // 2, axis=-1)
                    for face in range(6)])
    return out / np.linalg.norm(out, axis=-1, keepdims=True)


def _cap_table(centres: np.ndarray, grow: np.ndarray, cells: np.ndarray,
               points: np.ndarray, lists: np.ndarray) -> np.ndarray:
    """The ids of every point within theta_4(c) + grow of each centre c, as
    a table with one row per cell, padded with the far point, the last row
    of points; theta_4(c) is the angle from c to its 4th nearest point.

    centres (G, k, 3), grow and cells (G, k) come in G groups of k; group
    g measures the candidate ids lists[g], or lists[0] when lists has one
    row, which must hold its centres' 4 nearest points and ascend, as each
    table row then does.
    """
    pad = len(points) - 1
    shared = len(lists) == 1
    block = max(1, 2**18 // lists[0].size // cells.shape[1])  # bounds the dots
    rows, ids = [], []
    for lo in range(0, len(cells), block):
        cand = lists if shared else lists[lo:lo + block]
        dots = centres[lo:lo + block] @ points[cand].transpose(0, 2, 1)  # (groups, k, W)
        dots[np.broadcast_to((cand == pad)[:, None], dots.shape)] = -np.inf
        cos4 = np.partition(dots, -4, axis=2)[:, :, -4]
        cap = np.arccos(np.clip(cos4, -1.0, 1.0)) + grow[lo:lo + block] + _CAP_MARGIN
        g, m, col = np.nonzero(dots >= np.where(cap < np.pi, np.cos(cap), -2.0)[:, :, None])
        rows.append(cells[lo + g, m])
        ids.append(cand[0 if shared else g, col])
    rows, ids = np.concatenate(rows), np.concatenate(ids)
    order = np.argsort(rows, kind="stable")  # by cell, each cell's ids in order
    rows, ids = rows[order], ids[order]
    counts = np.bincount(rows, minlength=cells.size)
    table = np.full((cells.size, counts.max()), pad)
    table[rows, np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)] = ids
    return table


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


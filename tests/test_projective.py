import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

from matspec.ensemble import LinearEnsemble
from matspec.ensembles import affine_3d
from matspec.projective import (
    GridFunction,
    act_many,
    build_grid,
    interp_stencil,
    interpolate,
    stencil_sum,
)
from matspec.spectrum import solve_alpha
from matspec.transfer import KSolver

unit_angle = st.floats(0.0, 2 * np.pi - 1e-9)


def unit2(theta):
    return np.array([np.cos(theta), np.sin(theta)])


def act(g, x):
    """The action on one direction, through act_many on a one-row batch."""
    y, ln = act_many(g, x[None])
    return y[0], ln[0]


def well_conditioned_2x2(draw_entries):
    m = np.array(draw_entries).reshape(2, 2)
    return m if abs(np.linalg.det(m)) > 0.05 else None


matrix_entries = st.lists(
    st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
    min_size=4, max_size=4,
)


class TestGrids:
    def test_d2_projective_uniform_angles(self):
        g = build_grid(2, 8, "projective")
        assert g.n_nodes == 8
        expected = np.pi * np.arange(8) / 8
        got = np.arctan2(g.nodes[:, 1], g.nodes[:, 0])
        assert np.allclose(got, expected, atol=1e-12)
        assert np.allclose(np.linalg.norm(g.nodes, axis=1), 1.0, atol=1e-12)

    def test_d1_projective_single_node(self):
        g = build_grid(1, 5, "projective")
        assert g.n_nodes == 1

    def test_d3_cube_unit_norm(self):
        g = build_grid(3, 1000, "projective")
        assert g.n_nodes == 3 * 20**2 + 1
        assert np.allclose(np.linalg.norm(g.nodes, axis=1), 1.0, atol=1e-12)
        assert np.all(g.quadrature_weights > 0)
        assert abs(g.quadrature_weights.sum() - 1.0) < 1e-12

    def test_projective_one_rep_per_pair(self):
        # a cube node is keyed by the smaller of its lattice key and its
        # antipode's, so its first nonzero component is negative
        g = build_grid(3, 200, "projective")
        first = g.nodes[np.arange(g.n_nodes), (np.abs(g.nodes) > 1e-12).argmax(axis=1)]
        assert np.all(first < 0)
        dots = np.abs(g.nodes @ g.nodes.T)
        np.fill_diagonal(dots, 0.0)
        assert dots.max() < 1.0 - 1e-6  # no node twice, nor with its antipode
        g2 = build_grid(2, 16, "projective")
        ang = np.arctan2(g2.nodes[:, 1], g2.nodes[:, 0]) % np.pi
        assert len(np.unique(np.round(ang, 12))) == 16

    @pytest.mark.parametrize("resolution,nodes", [(4, 13), (13, 13), (14, 49), (128, 193),
                                                  (512, 589)])
    def test_d3_resolution_rule(self, resolution, nodes):
        # the smallest even R with 3 R^2 + 1 >= resolution
        assert build_grid(3, resolution, "projective").n_nodes == nodes

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError, match="unsupported"):
            build_grid(4, 100, "projective")


class TestAction:
    def test_identity(self):
        x = unit2(0.3)
        y, ln = act(np.eye(2), x)
        assert np.allclose(y, x)
        assert abs(ln) < 1e-15

    def test_eigenvector(self):
        y, ln = act(np.diag([2.0, 0.5]), np.array([1.0, 0.0]))
        assert np.allclose(y, [1.0, 0.0])
        assert abs(ln - np.log(2.0)) < 1e-15

    def test_diagonal_on_diagonal_direction(self):
        x = np.array([1.0, 1.0]) / np.sqrt(2)
        y, ln = act(np.diag([2.0, 0.5]), x)
        # |gx|^2 = (4 + 1/4)/2 = 17/8
        assert abs(ln - 0.5 * np.log(17.0 / 8.0)) < 1e-14
        expected = np.array([2.0, 0.5]) / np.sqrt(2)
        assert np.allclose(y, expected / np.linalg.norm(expected))

    def test_lognorm_bounded_by_gamma(self):
        g = np.array([[2.0, 1.0], [0.3, 0.8]])
        sv = np.linalg.svd(g, compute_uv=False)
        lg = np.log(max(sv[0], 1.0 / sv[-1]))  # gamma = max(|g|, |g^-1|)
        rng = np.random.default_rng(3)
        xs = rng.standard_normal((64, 2))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        _, lns = act_many(g, xs)
        assert np.all(lns <= lg + 1e-12)
        assert np.all(lns >= -lg - 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(matrix_entries, matrix_entries, unit_angle)
    def test_cocycle_additivity(self, e1, e2, theta):
        g1 = well_conditioned_2x2(e1)
        g2 = well_conditioned_2x2(e2)
        if g1 is None or g2 is None:
            return
        x = unit2(theta)
        y, ln_first = act(g1, x)
        _, ln_second = act(g2, y)
        _, ln_total = act(g2 @ g1, x)
        assert abs(ln_total - (ln_first + ln_second)) < 1e-10


class TestInterpolation:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 31), st.integers(0, 1000))
    def test_exact_at_nodes(self, node, fseed):
        g = build_grid(2, 32, "projective")
        rng = np.random.default_rng(fseed)
        f = GridFunction(g, rng.standard_normal(32))
        assert abs(interpolate(f, g.nodes[node]) - f.values[node]) < 1e-12

    def test_exact_at_nodes_d3(self):
        # 300 asks for R = 10, which has 301 nodes
        g = build_grid(3, 300, "projective")
        assert g.n_nodes == 301
        rng = np.random.default_rng(5)
        f = GridFunction(g, rng.standard_normal(g.n_nodes))
        for j in (0, 101, 300):
            assert abs(interpolate(f, g.nodes[j]) - f.values[j]) < 1e-12

    def test_constant_reproduced_anywhere(self):
        for d, res in ((2, 64), (3, 500)):
            g = build_grid(d, res, "projective")
            f = GridFunction(g, np.full(g.n_nodes, 2.5))
            rng = np.random.default_rng(1)
            xs = rng.standard_normal((50, d))
            xs /= np.linalg.norm(xs, axis=1, keepdims=True)
            assert np.allclose(interpolate(f, xs), 2.5, atol=1e-12)

    def test_midpoint_linear(self):
        g = build_grid(2, 8, "projective")
        vals = np.zeros(8)
        vals[1] = 1.0
        f = GridFunction(g, vals)
        mid = unit2(np.pi * 0.5 / 8)  # halfway between node 0 and node 1
        assert abs(interpolate(f, mid) - 0.5) < 1e-12

    def test_stencil_partition_of_unity(self):
        for d, res in ((2, 32), (3, 200)):
            g = build_grid(d, res, "projective")
            rng = np.random.default_rng(2)
            xs = rng.standard_normal((40, d))
            xs /= np.linalg.norm(xs, axis=1, keepdims=True)
            _, w = interp_stencil(g, xs)
            assert np.allclose(w.sum(axis=0), 1.0, atol=1e-12)


def modulo_stencil_2d(grid, xs):
    """Reference d=2 stencil: the angle reduced with theta % pi."""
    n = grid.n_nodes
    pos = (np.arctan2(xs[:, 1], xs[:, 0]) % np.pi) / (np.pi / n)
    j = np.floor(pos).astype(np.intp) % n
    t = pos - np.floor(pos)
    return np.stack([j, (j + 1) % n]), np.stack([1.0 - t, t])


# pi and -pi, signed zeros, and angles a hair off pi and off 0
EDGE_ROWS_2D = [[-1.0, 0.0], [-1.0, -0.0], [1.0, -0.0], [1.0, 0.0],
                [-1.0, 1e-17], [-1.0, -1e-17], [1.0, -1e-17], [0.0, -1.0]]


def fold_queries(xs, flip):
    """The queries with the rows where flip holds negated."""
    return np.where(flip[:, None], -xs, xs)


# the query modes: "sphere" queries lie anywhere on the sphere, and
# "projective" ones are folded to the grid's own representatives first

# 25 nodes: pi / (pi / 25) != 25, so the angle pi does not land on node 25
@pytest.mark.parametrize("mode", ["projective", "sphere"])
@pytest.mark.parametrize("n", [2, 7, 25, 512])
def test_d2_stencil_equals_modulo_reference(mode, n):
    g = build_grid(2, n, "projective")
    rng = np.random.default_rng(n)
    xs = rng.standard_normal((4000, 2))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    xs = np.vstack([xs, EDGE_ROWS_2D, g.nodes, -g.nodes])
    if mode == "projective":  # d=2 nodes lie at y > 0, or at y = 0 and x > 0
        xs = fold_queries(xs, (xs[:, 1] < 0) | ((xs[:, 1] == 0) & (xs[:, 0] < 0)))
    idx, w = interp_stencil(g, xs)
    ref_idx, ref_w = modulo_stencil_2d(g, xs)
    assert np.array_equal(idx, ref_idx)
    assert np.array_equal(w, ref_w)


def cube_edge_queries(rng, count):
    """Unit queries on the edges and corners of the cube map, where two or
    three |components| tie, and on the axes and face mid-lines, where some
    are 0; every order of the components and every sign."""
    a = rng.uniform(0.05, 1.0, count)
    b = a * rng.uniform(0.0, 1.0, count)
    zero = np.zeros(count)
    shapes = [np.column_stack(c) for c in ((a, a, b), (a, a, a), (a, b, zero),
                                           (a, zero, zero), (a, a, zero))]
    out = []
    for q in shapes:
        for perm in ([0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 2, 1]):
            for signs in np.array(np.meshgrid([1, -1], [1, -1], [1, -1])).T.reshape(-1, 3):
                out.append(q[:, perm] * signs)
    out = np.vstack(out)
    return out / np.linalg.norm(out, axis=1, keepdims=True)


def kdtree_cube_stencil(grid, xs):
    """Reference d=3 stencil: the face, cell and bilinear weights with the
    package's arithmetic, and the node of each cell corner found by a
    KD-tree over the nodes and their antipodes (point p is node p mod N)."""
    r = grid.corners.shape[1] - 1
    rows = np.arange(len(xs))
    a = np.abs(xs).argmax(axis=1)
    b, c = (a + 1) % 3, (a + 2) % 3
    xa = xs[rows, a]
    pos = np.arctan(np.stack([xs[rows, b], xs[rows, c]]) / np.abs(xa))
    pos = np.clip(pos * (2 * r / np.pi) + r / 2, 0.0, r)
    cell = np.minimum(np.floor(pos), r - 1)
    s, t = pos - cell
    tree = cKDTree(np.vstack([grid.nodes, -grid.nodes]))
    idx = np.empty((4, len(xs)), dtype=np.intp)
    for k, (di, dj) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        corner = np.empty((len(xs), 3))
        corner[rows, a] = np.where(xa < 0, -1.0, 1.0)
        corner[rows, b] = np.tan((cell[0] + di) / r * (np.pi / 2) - np.pi / 4)
        corner[rows, c] = np.tan((cell[1] + dj) / r * (np.pi / 2) - np.pi / 4)
        _, hit = tree.query(corner / np.linalg.norm(corner, axis=1, keepdims=True))
        idx[k] = hit % grid.n_nodes
    w = np.stack([(1.0 - s) * (1.0 - t), (1.0 - s) * t, s * (1.0 - t), s * t])
    return idx, w


class TestCubeIndexMatchesKdTree:
    """The cube-sphere cell lookup gives a KD-tree reference's nodes and
    weights bit for bit, for queries in either mode."""

    @pytest.mark.parametrize("mode", ["sphere", "projective"])
    @pytest.mark.parametrize("n", [4, 5, 7, 128, 512])
    def test_bit_for_bit(self, mode, n):
        g = build_grid(3, n, "projective")
        rng = np.random.default_rng(n)
        random = rng.standard_normal((20000, 3))
        random /= np.linalg.norm(random, axis=1, keepdims=True)
        edges = cube_edge_queries(rng, 20)
        # three shapes of five tie the two largest |components| exactly
        top = np.sort(np.abs(edges), axis=1)
        assert np.mean(top[:, 2] == top[:, 1]) == pytest.approx(0.6)
        xs = np.vstack([random, g.nodes, -g.nodes, edges,
                        random[:2000] * (1 + 1e-15), random[:2000] * (1 - 1e-15),
                        g.nodes * (1 + 1e-15), -g.nodes * (1 - 1e-15)])
        if mode == "projective":  # d=3 nodes have a negative first nonzero component
            first = xs[np.arange(len(xs)), (xs != 0).argmax(axis=1)]
            xs = fold_queries(xs, first > 0)
        idx, w = interp_stencil(g, xs)
        ref_idx, ref_w = kdtree_cube_stencil(g, xs)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(w.view(np.int64), ref_w.view(np.int64))


def reference_cube_weights(grid, xs):
    """Reference d=3 stencil as a dense (M, N) weight matrix: each query's
    face from its largest |component|, its face angles from arctan2, and the
    node of each cell corner found as the node or antipode nearest to the
    corner's direction."""
    r = grid.corners.shape[1] - 1
    out = np.zeros((len(xs), grid.n_nodes))
    for row, x in enumerate(xs):
        a = int(np.argmax(np.abs(x)))
        b, c = (a + 1) % 3, (a + 2) % 3
        xi = np.array([np.arctan2(x[b], abs(x[a])), np.arctan2(x[c], abs(x[a]))])
        pos = np.clip((xi / (np.pi / 2) + 0.5) * r, 0.0, r)
        cell = np.minimum(np.floor(pos), r - 1)
        s, t = pos - cell
        for di, dj, w in ((0, 0, (1 - s) * (1 - t)), (0, 1, (1 - s) * t),
                          (1, 0, s * (1 - t)), (1, 1, s * t)):
            corner = np.empty(3)
            corner[a] = np.sign(x[a]) or 1.0
            corner[b], corner[c] = np.tan((cell + (di, dj)) / r * (np.pi / 2) - np.pi / 4)
            node = np.argmax(np.abs(grid.nodes @ (corner / np.linalg.norm(corner))))
            out[row, node] += w
    return out


def dense_weights(grid, xs):
    idx, w = interp_stencil(grid, xs)
    out = np.zeros((len(xs), grid.n_nodes))
    np.add.at(out, (np.tile(np.arange(len(xs)), len(idx)), idx.ravel()), w.ravel())
    return out


def rotated_affine_3d():
    """The linear part of affine_3d conjugated by a fixed rotation, so that
    no atom's fixed direction lies on a cube axis; alpha is unchanged."""
    lin = affine_3d().linear_part
    q = Rotation.from_rotvec([0.3, -0.7, 0.5]).as_matrix()
    return LinearEnsemble(3, q @ lin.matrices @ q.T, lin.weights)


class TestCubeStencil:
    """The d=3 stencil: the 4 corners of the query's cube-sphere cell,
    bilinear in the face angles."""

    @pytest.mark.parametrize("n", [4, 5, 7, 128, 257, 512])
    def test_matches_reference(self, n):
        g = build_grid(3, n, "projective")
        rng = np.random.default_rng(n)
        random = rng.standard_normal((300, 3))
        random /= np.linalg.norm(random, axis=1, keepdims=True)
        xs = np.vstack([random, -random, cube_edge_queries(rng, 2)])
        assert np.max(np.abs(dense_weights(g, xs) - reference_cube_weights(g, xs))) < 1e-12

    @pytest.mark.parametrize("n", [4, 128, 512, 3073])
    def test_weights_nonnegative_and_sum_to_one(self, n):
        g = build_grid(3, n, "projective")
        rng = np.random.default_rng(n)
        xs = rng.standard_normal((20000, 3))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        xs = np.vstack([xs, cube_edge_queries(rng, 20), g.nodes, -g.nodes,
                        xs[:2000] * (1 + 1e-15), xs[:2000] * (1 - 1e-15)])
        idx, w = interp_stencil(g, xs)
        assert idx.shape == w.shape == (4, len(xs))
        assert np.all(w >= 0.0)
        total = stencil_sum(np.ones(g.n_nodes), idx, w)  # in the callers' order
        assert np.max(np.abs(total - 1.0)) <= 1e-15

    @pytest.mark.parametrize("n", [4, 128, 512])
    def test_exact_at_nodes_and_antipodes(self, n):
        g = build_grid(3, n, "projective")
        f = GridFunction(g, np.random.default_rng(n).standard_normal(g.n_nodes))
        for xs in (g.nodes, -g.nodes, g.nodes * (1 + 1e-15), -g.nodes * (1 - 1e-15)):
            assert np.max(np.abs(interpolate(f, xs) - f.values)) < 1e-12

    def test_continuous_across_face_edge_and_corner(self):
        g = build_grid(3, 128, "projective")
        f = GridFunction(g, np.random.default_rng(4).standard_normal(g.n_nodes))
        # points on the edge x0 = x1 and at the cube corner, and a step of
        # 1e-9 to either face across them
        along = np.linspace(-0.9, 0.9, 37)
        points = np.vstack([np.column_stack([np.ones_like(along), np.ones_like(along), along]),
                            [[1.0, 1.0, 1.0], [1.0, -1.0, 1.0]]])
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        for step in np.eye(3):
            for sign in (1.0, -1.0):
                near = points + sign * 1e-9 * step
                near /= np.linalg.norm(near, axis=1, keepdims=True)
                assert np.max(np.abs(interpolate(f, near) - interpolate(f, points))) < 1e-6
        # both faces of the edge give the same value, to rounding
        side0 = interpolate(f, points[:37] * [1.0, 1.0 - 1e-15, 1.0])
        side1 = interpolate(f, points[:37] * [1.0 - 1e-15, 1.0, 1.0])
        assert np.max(np.abs(side0 - side1)) < 1e-12

    def test_alpha_second_order_in_r(self):
        # R = 8, 16, 32: each doubling cuts the change of alpha by about 4
        e = rotated_affine_3d()
        alphas = [solve_alpha(KSolver(e, build_grid(3, 3 * r * r + 1, "projective")))
                  for r in (8, 16, 32)]
        ratio = (alphas[0] - alphas[1]) / (alphas[1] - alphas[2])
        assert 3.0 <= ratio <= 5.0


class TestQuadrature:
    def test_circle_harmonic_convergence_rate(self):
        # quadrature of smooth harmonics converges ~ O(R^-2) or better
        def err(res):
            g = build_grid(2, res, "projective")
            theta = np.arctan2(g.nodes[:, 1], g.nodes[:, 0])
            f1 = np.cos(theta) ** 2  # average 1/2
            f2 = np.sin(2 * theta) + 1.0  # average 1
            e1 = abs(np.sum(f1 * g.quadrature_weights) - 0.5)
            e2 = abs(np.sum(f2 * g.quadrature_weights) - 1.0)
            return max(e1, e2)

        # uniform circle rule integrates low harmonics exactly
        assert err(16) < 1e-14
        assert err(64) < 1e-14



@pytest.mark.parametrize("n", [4, 128])
def test_cube_face_ties_pick_the_first_axis(n):
    # the face axis is argmax's: on the axes, (1, 1, 0)/sqrt(2) and
    # (1, 1, 1)/sqrt(3), in every order and sign, the first largest
    # |component|; a rows-last store gives the same stencil
    g = build_grid(3, n, "projective")
    ties = [np.eye(3), np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]]) / np.sqrt(2),
            np.ones((1, 3)) / np.sqrt(3)]
    signs = np.array(np.meshgrid([1, -1], [1, -1], [1, -1])).T.reshape(-1, 1, 3)
    xs = np.vstack([(t * signs).reshape(-1, 3) for t in ties])
    ref_idx, ref_w = kdtree_cube_stencil(g, xs)
    for queries in (xs, np.ascontiguousarray(xs.T).T):
        idx, w = interp_stencil(g, queries)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(w.view(np.int64), ref_w.view(np.int64))

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from matspec.projective import (
    GridFunction,
    act_many,
    build_grid,
    interp_stencil,
    interpolate,
)

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
    def test_d2_sphere_uniform_angles(self):
        g = build_grid(2, 8, "sphere")
        assert g.n_nodes == 8
        expected = 2 * np.pi * np.arange(8) / 8
        got = np.arctan2(g.nodes[:, 1], g.nodes[:, 0]) % (2 * np.pi)
        assert np.allclose(got, expected, atol=1e-12)
        assert np.allclose(np.linalg.norm(g.nodes, axis=1), 1.0, atol=1e-12)

    def test_d1_projective_single_node(self):
        g = build_grid(1, 5, "projective")
        assert g.n_nodes == 1

    def test_d3_fibonacci_unit_norm(self):
        g = build_grid(3, 1000, "sphere")
        assert g.n_nodes == 1000
        assert np.allclose(np.linalg.norm(g.nodes, axis=1), 1.0, atol=1e-12)
        assert abs(g.quadrature_weights.sum() - 1.0) < 1e-12

    def test_projective_one_rep_per_pair(self):
        g = build_grid(3, 200, "projective")
        assert np.all(g.nodes[:, 2] > 0)  # upper hemisphere convention
        g2 = build_grid(2, 16, "projective")
        ang = np.arctan2(g2.nodes[:, 1], g2.nodes[:, 0]) % np.pi
        assert len(np.unique(np.round(ang, 12))) == 16

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError, match="unsupported"):
            build_grid(4, 100, "sphere")


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
        g = build_grid(3, 300, "projective")
        rng = np.random.default_rng(5)
        f = GridFunction(g, rng.standard_normal(300))
        for j in (0, 101, 299):
            assert abs(interpolate(f, g.nodes[j]) - f.values[j]) < 1e-12

    def test_constant_reproduced_anywhere(self):
        for d, res in ((2, 64), (3, 500)):
            g = build_grid(d, res, "sphere")
            f = GridFunction(g, np.full(g.n_nodes, 2.5))
            rng = np.random.default_rng(1)
            xs = rng.standard_normal((50, d))
            xs /= np.linalg.norm(xs, axis=1, keepdims=True)
            assert np.allclose(interpolate(f, xs), 2.5, atol=1e-12)

    def test_midpoint_linear(self):
        g = build_grid(2, 8, "sphere")
        vals = np.zeros(8)
        vals[1] = 1.0
        f = GridFunction(g, vals)
        mid = unit2(2 * np.pi * 0.5 / 8)  # halfway between node 0 and node 1
        assert abs(interpolate(f, mid) - 0.5) < 1e-12

    def test_stencil_partition_of_unity(self):
        for d, res, mode in ((2, 32, "projective"), (3, 200, "sphere")):
            g = build_grid(d, res, mode)
            rng = np.random.default_rng(2)
            xs = rng.standard_normal((40, d))
            xs /= np.linalg.norm(xs, axis=1, keepdims=True)
            _, w = interp_stencil(g, xs)
            assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)


def modulo_stencil_2d(grid, xs):
    """Reference d=2 stencil: the angle reduced with theta % span."""
    span, n = grid.angle_span, grid.n_nodes
    pos = (np.arctan2(xs[:, 1], xs[:, 0]) % span) / (span / n)
    j = np.floor(pos).astype(np.intp) % n
    t = pos - np.floor(pos)
    return np.column_stack([j, (j + 1) % n]), np.column_stack([1.0 - t, t])


# pi and -pi, signed zeros, and angles a hair off pi and off 0
EDGE_ROWS_2D = [[-1.0, 0.0], [-1.0, -0.0], [1.0, -0.0], [1.0, 0.0],
                [-1.0, 1e-17], [-1.0, -1e-17], [1.0, -1e-17], [0.0, -1.0]]


# 25 nodes: pi / (pi / 25) != 25, so the angle pi does not land on node 25
@pytest.mark.parametrize("mode", ["projective", "sphere"])
@pytest.mark.parametrize("n", [2, 7, 25, 512])
def test_d2_stencil_equals_modulo_reference(mode, n):
    g = build_grid(2, n, mode)
    rng = np.random.default_rng(n)
    xs = rng.standard_normal((4000, 2))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    xs = np.vstack([xs, EDGE_ROWS_2D, g.nodes, -g.nodes])
    idx, w = interp_stencil(g, xs)
    ref_idx, ref_w = modulo_stencil_2d(g, xs)
    assert np.array_equal(idx, ref_idx)
    assert np.array_equal(w, ref_w)


def brute_force_stencil(grid, xs):
    """Reference d=3 stencil from every node distance: the 3 nearest nodes
    by (chordal distance, node index), inverse-distance weighted, exact at
    nodes."""
    dist = np.linalg.norm(xs[:, None, :] - grid.nodes[None, :, :], axis=2)
    if grid.mode == "projective":
        dist = np.minimum(
            dist, np.linalg.norm(xs[:, None, :] + grid.nodes[None, :, :], axis=2))
    index = np.broadcast_to(np.arange(grid.n_nodes), dist.shape)
    idx = np.lexsort((index, dist), axis=1)[:, :3]
    d3 = np.take_along_axis(dist, idx, axis=1)
    exact = d3 < 1e-12
    w = np.where(exact.any(axis=1, keepdims=True), exact.astype(float),
                 1.0 / np.maximum(d3, 1e-30))
    return idx, w / w.sum(axis=1, keepdims=True)


class TestKdTreeStencil:
    # 5 projective nodes: the 4th candidate is often a far copy
    @pytest.mark.parametrize("mode,n", [("projective", 257), ("sphere", 257),
                                        ("projective", 5)])
    def test_matches_brute_force(self, mode, n):
        g = build_grid(3, n, mode)
        rng = np.random.default_rng(8)
        xs = rng.standard_normal((5000, 3))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        xs = np.vstack([xs, g.nodes, -g.nodes])
        idx, w = interp_stencil(g, xs)
        ref_idx, ref_w = brute_force_stencil(g, xs)
        assert np.all(np.sort(idx, axis=1)[:, 1:] != np.sort(idx, axis=1)[:, :-1])
        mine, ref = np.argsort(idx, axis=1), np.argsort(ref_idx, axis=1)
        assert np.array_equal(np.take_along_axis(idx, mine, axis=1),
                              np.take_along_axis(ref_idx, ref, axis=1))
        assert np.max(np.abs(np.take_along_axis(w, mine, axis=1)
                             - np.take_along_axis(ref_w, ref, axis=1))) < 1e-10

    def test_node_hits_and_ties(self):
        # on a 4-node projective grid a query orthogonal to a node is as far
        # from it as from its antipode: the node still appears once
        g = build_grid(3, 4, "projective")
        xs = np.vstack([g.nodes, np.cross(g.nodes[0], g.nodes[1])])
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        idx, w = interp_stencil(g, xs)
        assert np.array_equal(idx[:4, 0], np.arange(4))
        assert np.array_equal(w[:4], np.tile([1.0, 0.0, 0.0], (4, 1)))
        assert all(len(set(row)) == 3 for row in idx)
        # a query equidistant from two nodes lists the lower index first
        mid = g.nodes[2] + g.nodes[3]
        idx, _ = interp_stencil(g, mid / np.linalg.norm(mid))
        assert list(idx[0, :2]) == [2, 3]


def kdtree_stencil(grid, xs):
    """Reference d=3 stencil from a KD-tree over the grid's points (nodes,
    and their antipodes when projective; point p is node p mod N): the 4
    nearest points re-sorted by (distance, node), the first 3 kept, with
    the package's weight arithmetic."""
    n = grid.n_nodes
    points = np.vstack([grid.nodes, -grid.nodes]) if grid.mode == "projective" else grid.nodes
    dist, hit = cKDTree(points).query(xs, k=4)
    node = hit % n
    order = np.lexsort((node, dist), axis=1)
    idx = np.take_along_axis(node, order, axis=1)[:, :3]
    dist = np.take_along_axis(dist, order, axis=1)[:, :3]
    w = 1.0 / np.maximum(dist, 1e-30)
    w[dist[:, 0] < 1e-12] = np.eye(3)[0]
    return idx, w / (w[:, 0] + w[:, 1] + w[:, 2])[:, None]


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


class TestCubeIndexMatchesKdTree:
    """The d=3 stencil gives the KD-tree's nodes and weights bit for bit."""

    @pytest.mark.parametrize("mode", ["sphere", "projective"])
    @pytest.mark.parametrize("n", [4, 5, 7, 128, 512])
    def test_bit_for_bit(self, mode, n):
        g = build_grid(3, n, mode)
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
        idx, w = interp_stencil(g, xs)
        ref_idx, ref_w = kdtree_stencil(g, xs)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(w.view(np.int64), ref_w.view(np.int64))


class TestQuadrature:
    def test_circle_harmonic_convergence_rate(self):
        # quadrature of smooth harmonics converges ~ O(R^-2) or better
        def err(res):
            g = build_grid(2, res, "sphere")
            theta = np.arctan2(g.nodes[:, 1], g.nodes[:, 0])
            f1 = np.cos(theta) ** 2  # average 1/2
            f2 = np.sin(3 * theta) + 1.0  # average 1
            e1 = abs(np.sum(f1 * g.quadrature_weights) - 0.5)
            e2 = abs(np.sum(f2 * g.quadrature_weights) - 1.0)
            return max(e1, e2)

        # uniform circle rule integrates low harmonics exactly
        assert err(16) < 1e-14
        assert err(64) < 1e-14


import numpy as np
import pytest

from matspec.rng import draw_atoms, draw_buffers, stream

WEIGHTS = [
    [1.0],
    [0.4, 0.6],
    [0.2, 0.0, 0.8],
    list(np.random.default_rng(1).dirichlet(np.ones(8))),
    list(np.random.default_rng(2).dirichlet(np.ones(37))),
]


@pytest.mark.parametrize("weights", WEIGHTS, ids=lambda w: f"m{len(w)}")
@pytest.mark.parametrize("size", [10_000, (300, 7)], ids=["1d", "2d"])
def test_draw_atoms_is_choice(weights, size):
    w = np.asarray(weights)
    r1, r2 = stream(5), stream(5)
    assert np.array_equal(draw_atoms(r1, w, size),
                          r2.choice(len(w), size=size, p=w))
    assert r1.random() == r2.random()  # the same uniforms were consumed



@pytest.mark.parametrize("weights", WEIGHTS, ids=lambda w: f"m{len(w)}")
def test_draw_atoms_rows_looks_up_only_those_rows(weights):
    # both branches: a comparison per atom (m <= 8) and searchsorted (m > 8)
    w = np.asarray(weights)
    size = 10_000
    rows = np.flatnonzero(stream(9).random(size) < 0.43)
    r1, r2 = stream(5), stream(5)
    assert np.array_equal(draw_atoms(r1, w, size, rows),
                          draw_atoms(r2, w, size)[rows])
    assert r1.random() == r2.random()  # all size uniforms were consumed


@pytest.mark.parametrize("weights", WEIGHTS, ids=lambda w: f"m{len(w)}")
@pytest.mark.parametrize("looked_up", ["all", "rows"])
def test_draw_atoms_buffer_path_is_the_unbuffered_draw(weights, looked_up):
    # both branches (m <= 8 and m > 8), with and without rows, over three
    # draws into one set of buffers longer than the draws
    w = np.asarray(weights)
    size = 10_000
    work = draw_buffers(size + 7)
    r1, r2 = stream(5), stream(5)
    for live in (0.9, 0.43, 0.05):
        rows = np.flatnonzero(stream(9).random(size) < live) if looked_up == "rows" else None
        got = draw_atoms(r1, w, size, rows, work)
        assert np.array_equal(got, draw_atoms(r2, w, size, rows))
        assert got.dtype == np.intp
        if len(w) <= 8:  # the atoms are the buffer's prefix: no allocation
            assert np.shares_memory(got, work[2])
    assert r1.random() == r2.random()  # the same uniforms were consumed


def test_stream_pads_its_entropy_with_zero_words():
    # SeedSequence reads (seed, *path) as 32-bit words padded with zeros:
    # trailing zeros and a seed's high word name streams that look distinct
    def same(a, b):
        return np.array_equal(a.random(8), b.random(8))

    assert same(stream(12345), stream(12345, 0))
    assert same(stream(7, 3), stream(7, 3, 0))
    assert same(stream(2**32 + 5, 9), stream(5, 1, 9))
    assert not same(stream(7, 3), stream(7, 3, 1))
    assert not same(stream(7, 0, 3), stream(7, 3))

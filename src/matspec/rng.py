"""Deterministic RNG streams.

Every stochastic routine derives its generator from (seed, *path) through a
SeedSequence, so distinct consumers and distinct chunks get independent
streams and results are a pure function of (inputs, seed) regardless of
chunking or worker count.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream", "draw_atoms", "draw_buffers"]


def stream(seed: int, *path: int) -> np.random.Generator:
    """The generator of (seed, *path).  SeedSequence splits each entry into
    32-bit words and pads the entropy with zero words, so a path that only
    adds trailing zeros names the same stream, stream(s, p) is stream(s, p,
    0), and a seed of 2**32 + a is the words (a, 1): stream(2**32 + a, b)
    is stream(a, 1, b).  Distinct consumers need paths that differ in more
    than trailing zeros."""
    return np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, *path])


def draw_buffers(size: int) -> tuple[np.ndarray, ...]:
    """Work buffers for draw_atoms(..., work=) of up to size uniforms: flat
    float, float, intp and bool arrays of size entries."""
    return np.empty(size), np.empty(size), np.empty(size, np.intp), np.empty(size, bool)


def draw_atoms(rng: np.random.Generator, weights, size, rows=None, work=None) -> np.ndarray:
    """Atom indices by inverse CDF, bit for bit rng.choice(len(weights), size,
    p=weights) without its validation of p on every call.

    With rows, all size uniforms are still drawn, but only u[rows] are
    looked up: bit for bit draw_atoms(rng, weights, size)[rows], with the
    generator left in the same state.

    With work, draw_buffers(n) for some n >= size, an integer size and rows
    within range, the uniforms, the looked-up ones, the atoms and the
    comparison scratch are prefixes of work's buffers, and the atoms
    returned are a prefix of its third: a draw allocates nothing at its
    size, except above 8 atoms, where the lookup allocates the atoms.  The
    atoms and the generator state are bit for bit those without work."""
    cdf = np.cumsum(weights, dtype=float)
    cdf /= cdf[-1]
    if work is None:
        u = rng.random(size)
        if rows is not None:
            u = u[rows]
        atoms = scratch = None
    else:
        uniforms, looked_up, atoms, scratch = work
        u = rng.random(out=uniforms[:size])
        if rows is not None:  # mode="raise" would buffer the gather
            u = np.take(u, rows, out=looked_up[: rows.size], mode="clip")
        atoms, scratch = atoms[: u.size], scratch[: u.size]
    if cdf.size > 8:
        return cdf.searchsorted(u, side="right")
    # the count of cdf values <= u, as searchsorted(side="right"); faster for few atoms
    if atoms is None:
        atoms = (u >= cdf[0]).astype(np.intp)
    else:
        np.greater_equal(u, cdf[0], out=atoms)
    for c in cdf[1:-1]:
        atoms += np.greater_equal(u, c, out=scratch)
    return atoms

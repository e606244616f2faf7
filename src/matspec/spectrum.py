"""The k(s) curve, the tail index alpha, and Lyapunov-type diagnostics.

k(s) is the dominant eigenvalue of the s-weighted transfer operator,
equivalently lim (E|S_n|^s)^{1/n} for the product S_n of n i.i.d. atoms;
log k is convex, k(0) = 1, and the tail index alpha is the positive root
of k(alpha) = 1.  The Lyapunov exponent of the s-tilted path measure is
k'(s)/k(s) and is computed by two routes that must agree: grid quadrature
and tilted Monte Carlo.  Quadrature is the discrete Hellmann-Feynman
derivative nu^s(P'^s e^s)/k(s) of the discretized k; it needs no solve
beyond the one at s, so every run path takes L(0) and L(alpha) from it.
Tilted Monte Carlo is independent of the grid eigen-problem, so it is the
check on the discretization.  In d=1 the grid is one node, k(s) is the
Mellin sum sum_i w_i |a_i|^s, and both routes run on it as in every other
dimension.

Every routine here takes the run's transfer.KSolver, reads its ensemble
from it and builds each tilted chain from it and the exponents it walks
at; solve_alpha also takes an ensemble, which it solves on a new KSolver of
the given grid.  compute_curve pairs each of its points with the point of
ks.star at the same s into p(s) (transfer.pairing_p).  The solver holds
every solve of an (ensemble, grid) pair and of its transpose, each
warm-started from the nearest solved exponent; solve_alpha runs Newton on
log k with that k'(s), safeguarded by a verified bracket.

Tilted sampling realizes the s-tilted path measure through its Markov-chain
disintegration (the paths of transfer.TiltedChain) rather than by
importance weights on the untilted law, whose weights degenerate
exponentially in the path length.  The walks are batched: compute_curve's
tilted Monte Carlo runs the paths of every s in one chain over the stack of
those exponents, and lyapunov_gap and contraction_rate each run all their
probe pairs in one chain, whose drawn atoms act on the pairs' vectors
through ensemble.apply_atoms.  Each s and each pair still draws its
start rows and uniforms from the stream and in the order it would alone, so
the batched numbers equal those of one chain per s or per pair bit for bit.

The tilted_mc route starts its paths from pi^s, so it needs no long path to
forget its start, and its stderr comes from independent chain means.  Its
default shape is wide and short, 512 paths of 550 steps per s: it keeps as
many path-steps after burn-in as 64 paths of 4000 steps, for the same
stderr, in 550 kernel calls in place of 4000, each on eight times the rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ensemble import HypothesisError, LinearEnsemble, apply_atoms
from .rng import draw_atoms, stream as _rng
from .projective import DirectionGrid
from .transfer import KSolver, SpectralPoint, TiltedChain, pairing_p

__all__ = [
    "SpectralCurve",
    "KSolver",
    "solve_alpha",
    "lyapunov",
    "lyapunov_gap",
    "contraction_rate",
    "compute_curve",
]

# paths per s and steps per path of the tilted_mc route: wide and short,
# since per-call overhead dominates a kernel call on few rows.  With burn-in
# max(100, T // 10) they keep 512 x 450 = 230,400 path-steps per s, as
# many as 64 x 4000 did, so the stderr over chain means is the same.
_MC_CHAINS = 512
_MC_STEPS = 550

# solve_alpha's start bracket, its bound on |k(alpha) - 1| and the largest
# exponent its bracket expands to, which also bounds every run's s-grid
_BRACKET = (0.1, 2.0)
_ALPHA_TOL = 1e-10
S_CAP = 64.0


@dataclass
class SpectralCurve:
    """Sampled k(s) curve with the derived scalars; pairings holds each
    point's (p(s), residual) from transfer.pairing_p."""

    s_values: np.ndarray
    points: list[SpectralPoint]
    pairings: list[tuple[float, float]] = field(default_factory=list)
    alpha: float | None = None
    k_prime_alpha: float | None = None
    lyapunov_table: dict = field(default_factory=dict)

    def __post_init__(self):
        s = np.asarray(self.s_values, dtype=float)
        if np.any(np.diff(s) <= 0):
            raise ValueError("s values must be strictly increasing")
        self.s_values = s


def solve_alpha(ks: KSolver | LinearEnsemble, grid: DirectionGrid | None = None) -> float:
    """Positive root of k(alpha) = 1 by safeguarded Newton on log k, with
    k and k' from the solver ks, or from a new KSolver of the ensemble ks
    on grid (the default grid without one).

    The bracket (0.1, 2) is verified (k(lo) < 1 < k(hi)) and expanded
    geometrically where it fails: lo halves, at most 60 times, and hi
    doubles up to S_CAP.  No sign change within those bounds raises
    HypothesisError: that happens exactly when every product keeps spectral
    radius <= 1 or the walk is not contracting at s = 0.  Newton starts at
    hi, where the convexity of log k makes its steps fall monotonically to
    the root; a step that leaves the bracket, which shrinks with every
    evaluation, is replaced by bisection.  A refinement that stalls with
    |k(alpha) - 1| above 1e-10 is a numerical failure and raises
    RuntimeError.
    """
    if isinstance(ks, LinearEnsemble):
        ks = KSolver(ks, grid)
    elif grid is not None:
        raise ValueError("a grid goes with an ensemble; a solver has its own")
    lo, hi = _BRACKET
    tries = 0
    while ks.k(lo) >= 1.0 and tries < 60:
        lo /= 2.0
        tries += 1
    while ks.k(hi) <= 1.0 and hi < S_CAP:
        hi = min(2.0 * hi, S_CAP)
    if not (ks.k(lo) < 1.0 < ks.k(hi)):
        raise HypothesisError(
            "no root: k(s) - 1 has no sign change on the expanded bracket; "
            "a root needs a contracting walk (Lyapunov exponent < 0 at s=0) "
            "and some atom product with spectral radius > 1"
        )
    alpha = hi
    for _ in range(100):
        k_alpha = ks.k(alpha)
        if k_alpha == 1.0:
            break
        if k_alpha < 1.0:
            lo = alpha
        else:
            hi = alpha
        step = np.log(k_alpha) * k_alpha / ks.k_prime(alpha)
        nxt = alpha - step if lo < alpha - step < hi else 0.5 * (lo + hi)
        if abs(nxt - alpha) <= 1e-13 + 4e-16 * alpha:
            break
        alpha = nxt
    if abs(ks.k(alpha) - 1.0) > _ALPHA_TOL:
        raise RuntimeError(
            f"root refinement stalled: |k(alpha)-1| = {abs(ks.k(alpha)-1.0):.3e} > {_ALPHA_TOL}"
        )
    return float(alpha)


def _sample_pi_nodes(
    sp: SpectralPoint, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw start directions from the stationary law pi^s (node masses)."""
    idx = draw_atoms(rng, sp.pi, size)
    return sp.e.grid.nodes[idx]


def lyapunov(
    ks: KSolver,
    s: float,
    method: str,
    n_chains: int = _MC_CHAINS,
    n_steps: int = _MC_STEPS,
    seed: int = 0,
) -> tuple[float, float | None]:
    """Lyapunov exponent of the s-tilted walk, equal to k'(s)/k(s).

    quadrature: the pi^s-average of the tilted kernel's mean log|g x|.  On
    the grid that average is nu^s(P'^s e^s)/k(s) up to the eigen-solve
    tolerance, and it is computed as KSolver.k_prime(s)/k(s), at no solve
    beyond the one at s; in d=1 it is the exact derivative of the Mellin sum.
    tilted_mc: long-run average of log|g x| along the tilted chain, stderr
    from independent chains; burn-in is 10% of the path, at least 100 steps.
    """
    if method == "quadrature":
        return ks.k_prime(s) / ks.k(s), None
    if method == "tilted_mc":
        return _tilted_mc(ks, [s], seed, n_chains, n_steps)[0]
    raise ValueError(f"unknown method {method!r}")


def _tilted_mc(
    ks: KSolver,
    s_values,
    seed: int,
    n_chains: int,
    n_steps: int,
) -> list[tuple[float, float]]:
    """(L, stderr) of the tilted_mc route at each s of s_values.

    The i-th s of s_values draws from its own stream _rng(seed, 101, i):
    its start directions from pi^s, then one uniform per chain and step.
    One TiltedChain carries the n_chains paths of every s, s after s, in
    every dimension.
    """
    burn = max(100, n_steps // 10)
    rngs = [_rng(seed, 101, i) for i in range(len(s_values))]
    starts = [_sample_pi_nodes(ks.point(s), n_chains, rng) for s, rng in zip(s_values, rngs)]
    chain = TiltedChain(ks, s_values, starts)
    u = np.empty((len(s_values), n_chains))
    sums = np.zeros((len(s_values), n_chains))
    for step in range(n_steps):
        for rng, block in zip(rngs, u):
            rng.random(out=block)
        _, ln = chain.step(u.reshape(-1))
        if step >= burn:
            sums += ln.reshape(sums.shape)
    means = sums / (n_steps - burn)
    return [(float(m.mean()), float(m.std(ddof=1) / np.sqrt(n_chains))) for m in means]


def _wedge_operators(e: LinearEnsemble) -> np.ndarray:
    """Per-atom action on 2-vectors, as a stack of matrices: the 1 x 1 det
    (d=2) or the cofactor matrix (d=3)."""
    dets = np.linalg.det(e.matrices)[:, None, None]
    if e.dimension == 2:
        return dets
    if e.dimension == 3:
        return dets * np.linalg.inv(e.matrices).swapaxes(1, 2)
    raise ValueError("pair contraction diagnostics cover d in {2, 3}")


def _pair_logs(
    ks: KSolver,
    s: float,
    rng: np.random.Generator,
    n: int,
    n_pairs: int,
    paths: int,
) -> np.ndarray:
    """log of the sine-distance ratio after n tilted steps, (n_pairs, paths),
    of probe pairs all run in one chain of ks at s.

    Pair after pair, the stream serves three normal start rows made unit
    (x0, v, w) and then its (n, paths) uniforms, row t for step t.  Works
    in log space through the wedge cocycle
    log sin(angle(S v, S w)) = log|S (v^w)| - log|S v| - log|S w|,
    so arbitrarily strong contraction never underflows.  The drawn atoms
    act on v and w, rows last, in one apply_atoms call, and on v^w through
    _wedge_operators; in d=2 v^w is a 1-vector of sign +-1 whose norm grows
    by exactly |det g| a step.
    """
    e = ks.ensemble
    starts, blocks = [], []
    for _ in range(n_pairs):
        x = rng.standard_normal((3, e.dimension))
        starts.append(x / np.linalg.norm(x, axis=1, keepdims=True))
        blocks.append(rng.random((n, paths)))
    x0, v, w = np.repeat(np.stack(starts, axis=1), paths, axis=1)
    wedge_ops = _wedge_operators(e)
    chain = TiltedChain(ks, [s], [x0])
    vw_dir = np.ascontiguousarray(np.stack([v.T, w.T], axis=1))  # (d, 2, M)
    vw_log = np.zeros((2, len(v)))
    if e.dimension == 2:
        cr = (v[:, 0] * w[:, 1] - v[:, 1] * w[:, 0])[:, None]
    else:
        cr = np.cross(v, w)
    nrm = np.linalg.norm(cr, axis=1)
    wedge_dir, wedge_log = (cr / nrm[:, None]).T, np.log(nrm)
    sin0 = wedge_log.copy()  # v, w are unit: log sin = wedge log
    for u_step in np.concatenate(blocks, axis=1):
        choice, _ = chain.step(u_step)
        y = apply_atoms(e.matrices, choice, vw_dir)
        ny = np.linalg.norm(y, axis=0)
        vw_dir = y / ny
        vw_log += np.log(ny)
        y = apply_atoms(wedge_ops, choice, wedge_dir)
        ny = np.linalg.norm(y, axis=0)
        wedge_dir = y / ny
        wedge_log += np.log(ny)
    sin_n = wedge_log - vw_log[0] - vw_log[1]
    return (sin_n - sin0).reshape(n_pairs, paths)


def lyapunov_gap(
    ks: KSolver,
    s: float,
    n: int = 40,
    n_pairs: int = 24,
    n_paths: int = 64,
    seed: int = 0,
) -> tuple[float, float]:
    """Estimated difference of the two leading Lyapunov exponents: the
    per-step tilted-mean log contraction of direction pairs, maximized over
    sampled (x, v, v'); strictly negative when the dominant exponent is
    simple.  Returns (gap estimate, stderr of the maximizing pair).
    """
    if ks.ensemble.dimension < 2:
        raise ValueError("the pair-contraction gap needs d >= 2")
    best = -np.inf
    best_se = np.nan
    for pair_logs in _pair_logs(ks, s, _rng(seed, 202), n, n_pairs, n_paths):
        ratios = pair_logs / n
        m = float(ratios.mean())
        se = float(ratios.std(ddof=1) / np.sqrt(n_paths))
        if m > best:
            best, best_se = m, se
    return best, best_se


def contraction_rate(
    ks: KSolver,
    s: float,
    eps: float,
    n: int = 30,
    seed: int = 0,
    n_pairs: int = 16,
    n_paths: int = 32,
) -> float:
    """n-th root of sup over probe pairs of the tilted mean of
    (distance ratio)^eps; below 1 in the Doeblin-Fortet regime.

    The sup is approximated by the largest mean over n_pairs probe pairs,
    each a pseudo-random normal draw made unit and run on n_paths paths.
    The sine distance stands in for the chordal one: identical exponential
    rate, bounded multiplicative deviation that the n-th root washes out.
    """
    eps_max = 1.0 if s == 0.0 else min(1.0, s)
    if not 0.0 < eps <= eps_max:
        raise ValueError("eps must lie in (0, min(1, s)] (Holder range)")
    if ks.ensemble.dimension < 2:
        raise ValueError("contraction diagnostics need d >= 2")
    logs = _pair_logs(ks, s, _rng(seed, 303), n, n_pairs, n_paths)
    sup_ratio = max(float(np.mean(np.exp(eps * pair_logs))) for pair_logs in logs)
    return float(sup_ratio ** (1.0 / n))


def compute_curve(
    ks: KSolver,
    s_values: np.ndarray,
    seed: int = 0,
) -> SpectralCurve:
    """Solve the eigen-problem along an s-grid, each point and then its
    pairing with ks.star, and attach alpha, k'(alpha) and the Lyapunov table
    (quadrature and tilted_mc routes).  The solver keeps every point solved
    here for its later callers."""
    s_values = np.asarray(sorted(float(s) for s in s_values))
    curve = SpectralCurve(s_values=s_values, points=[])
    for s in s_values:
        curve.points.append(ks.point(s))
        curve.pairings.append(pairing_p(curve.points[-1], ks.star.point(s)))
    table: dict[str, list[float]] = {"quadrature": [], "tilted_mc": [],
                                     "tilted_mc_se": []}
    for s in s_values:
        table["quadrature"].append(lyapunov(ks, s, "quadrature")[0])
    for L, se in _tilted_mc(ks, s_values, seed, _MC_CHAINS, _MC_STEPS):
        table["tilted_mc"].append(L)
        table["tilted_mc_se"].append(se)
    curve.lyapunov_table = table
    try:
        curve.alpha = solve_alpha(ks)
        curve.k_prime_alpha = ks.k_prime(curve.alpha)
    except HypothesisError:
        curve.alpha = None
    return curve

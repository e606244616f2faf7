"""Finite-support matrix and affine ensembles, with hypothesis diagnostics.

A linear ensemble is a finitely supported probability measure on invertible
d x d matrices; an affine ensemble carries a translation per atom.  The
checks in this module (proximality, strong irreducibility, cone
classification, non-arithmeticity) are numerical heuristics: they report
``pass`` only with a concrete witness and fall back to ``inconclusive``
rather than claiming certainty they lack.  apply_atoms is how every untilted
walk of the package applies its drawn atoms: rows last, in one add order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import draw_atoms, stream as _rng

__all__ = [
    "LinearEnsemble",
    "AffineEnsemble",
    "EnsembleError",
    "HypothesisError",
    "operator_norm",
    "validate_linear",
    "transpose",
    "check_proximality",
    "check_strong_irreducibility",
    "classify_cone_case",
    "apply_atoms",
    "check_nonarithmetic_1d",
    "load_ensemble",
    "save_ensemble",
    "ensemble_hash",
    "quantile",
    "median",
]

WEIGHT_TOL = 1e-12
DET_TOL = 1e-12
ANGULAR_TOL = 1e-3  # cone attractor symmetry margin, radians
PROXIMAL_WORD_LENGTH = 8  # most atoms of a random word in check_proximality
PROXIMAL_RANDOM_WORDS = 200  # random words check_proximality tries


class EnsembleError(ValueError):
    """Structural defect in an ensemble definition."""


class HypothesisError(ValueError):
    """The inputs are well formed but a standing hypothesis of the theory
    fails for them (no tail root, a non-contracting walk)."""


def operator_norm(g: np.ndarray) -> float:
    """Euclidean operator norm (largest singular value)."""
    return float(np.linalg.svd(g, compute_uv=False)[0])


# np.quantile and np.median import numpy.ma on a process's first call, which
# costs a run more than the arithmetic; these two repeat their partition,
# lerp and mean on the flattened values, so they return the same bits


def quantile(values: np.ndarray, q):
    """np.quantile(values, q) by its default (linear) method: a float for a
    scalar q, an array for a 1-d q.  A NaN among the values is every
    quantile."""
    a = np.asarray(values, dtype=float).ravel()
    q = np.asarray(q, dtype=float)
    virtual = (a.size - 1) * q
    top = virtual >= a.size - 1
    lo = np.where(top, -1, np.floor(virtual)).astype(np.intp)
    hi = np.where(top, -1, lo + 1)
    # np.quantile's sorted distinct kth; np.unique would import numpy.ma too
    part = np.partition(a, sorted({0, -1, *lo.ravel().tolist(), *hi.ravel().tolist()}))
    if np.isnan(part[-1]):
        return np.full(q.shape, part[-1])[()]
    below, above = part[lo], part[hi]
    t = virtual - lo
    diff = above - below
    return np.where(t >= 0.5, above - diff * (1 - t), below + diff * t)[()]


def median(values: np.ndarray) -> float:
    """np.median(values): the mean of the middle one or two values."""
    a = np.asarray(values, dtype=float).ravel()
    half = a.size // 2
    odd = a.size % 2
    part = np.partition(a, [half, -1] if odd else [half - 1, half, -1])
    if np.isnan(part[-1]):
        return part[-1]
    return part[half - 1 + odd : half + 1].mean()


@dataclass(frozen=True)
class LinearEnsemble:
    """Finite-support probability measure on GL(d, R).

    ``matrices`` has shape (m, d, d) and ``weights`` shape (m,); weights are
    strictly positive and sum to 1 within 1e-12.
    """

    dimension: int
    matrices: np.ndarray
    weights: np.ndarray
    label: str = ""

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "weights", w)
        d = self.dimension
        if d < 1:
            raise EnsembleError(f"dimension must be >= 1, got {d}")
        if mats.ndim != 3 or mats.shape[1:] != (d, d):
            raise EnsembleError(
                f"matrices must have shape (m, {d}, {d}), got {mats.shape}"
            )
        if w.shape != (mats.shape[0],):
            raise EnsembleError("one weight per matrix required")
        if np.any(w <= 0):
            bad = int(np.argmin(w))
            raise EnsembleError(f"atom {bad}: weight {w[bad]} not strictly positive")
        if abs(w.sum() - 1.0) > WEIGHT_TOL:
            raise EnsembleError(f"weights sum {w.sum():.17g}, expected 1")
        for i, g in enumerate(mats):
            scale = float(np.abs(g).max())
            if scale == 0.0 or abs(np.linalg.det(g)) <= DET_TOL * scale**d:
                raise EnsembleError(f"atom {i}: matrix is singular")

    @property
    def n_atoms(self) -> int:
        return self.matrices.shape[0]


@dataclass(frozen=True)
class AffineEnsemble:
    """Finite-support measure on the affine group: atoms (A_i, B_i, w_i).

    A common fixed point of all atoms degenerates the recursion to a linear
    one (stationary law = a point mass), so it is rejected by default;
    allow_fixed_point=True keeps such deliberately degenerate ensembles
    constructible for diagnostics and trivial-case tests.
    """

    dimension: int
    matrices: np.ndarray
    translations: np.ndarray
    weights: np.ndarray
    label: str = ""
    allow_fixed_point: bool = False

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=float)
        trans = np.asarray(self.translations, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "translations", trans)
        object.__setattr__(self, "weights", w)
        # the linear projection must itself be a valid ensemble
        linear = LinearEnsemble(self.dimension, mats, w, label=self.label)
        object.__setattr__(self, "_linear", linear)
        if trans.shape != (mats.shape[0], self.dimension):
            raise EnsembleError(
                f"translations must have shape (m, {self.dimension}), got {trans.shape}"
            )
        if self._common_fixed_point_residual() <= 1e-9 and not self.allow_fixed_point:
            raise EnsembleError(
                "supp lambda has a fixed point: the system (I - A_i) x = B_i "
                "is simultaneously solvable"
            )

    def _common_fixed_point_residual(self) -> float:
        """Least-squares residual of the stacked system (I - A_i) x = B_i.

        Residual ~ 0 means every atom fixes a common point and the recursion
        degenerates to a linear one.
        """
        d = self.dimension
        eye = np.eye(d)
        lhs = np.concatenate([eye - a for a in self.matrices], axis=0)
        rhs = self.translations.reshape(-1)
        x, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
        scale = 1.0 + float(np.abs(rhs).max(initial=0.0))
        return float(np.linalg.norm(lhs @ x - rhs)) / scale

    @property
    def n_atoms(self) -> int:
        return self.matrices.shape[0]

    @property
    def linear_part(self) -> LinearEnsemble:
        return self._linear  # type: ignore[attr-defined]


def validate_linear(e: LinearEnsemble) -> dict:
    """Structural evidence: per-atom norms, inverse norms and gammas.

    Deterministic and side-effect free; invalid input raises EnsembleError
    at construction, so an existing LinearEnsemble always passes here.
    """
    norms = np.array([operator_norm(g) for g in e.matrices])
    inv_norms = np.array([operator_norm(np.linalg.inv(g)) for g in e.matrices])
    return {
        "structural": True,
        "atom_norms": norms.tolist(),
        "atom_inverse_norms": inv_norms.tolist(),
        "atom_gammas": np.maximum(norms, inv_norms).tolist(),
    }


def transpose(e: LinearEnsemble) -> LinearEnsemble:
    """Push-forward under g -> g^T; weights unchanged."""
    return LinearEnsemble(
        e.dimension,
        e.matrices.swapaxes(1, 2).copy(),
        e.weights.copy(),
        label=(e.label + "*") if e.label else "*",
    )


def _proximality_gap(g: np.ndarray) -> tuple[float, bool]:
    """Relative modulus gap of the top eigenvalue and whether it is real/simple."""
    ev = np.linalg.eigvals(g)
    order = np.argsort(-np.abs(ev))
    ev = ev[order]
    top = ev[0]
    if len(ev) == 1:
        return np.inf, abs(top.imag) <= 1e-12 * abs(top)
    gap = (abs(top) - abs(ev[1])) / abs(top)
    real_simple = abs(top.imag) <= 1e-9 * abs(top)
    return float(gap), bool(real_simple)


def check_proximality(e: LinearEnsemble, seed: int = 0) -> tuple[str, dict]:
    """Search products of atoms for one with a simple dominant real eigenvalue:
    every word of one or two atoms, then PROXIMAL_RANDOM_WORDS random words
    of 1 to PROXIMAL_WORD_LENGTH atoms.

    Returns ("pass", witness) when some word g in the semigroup has a real
    top eigenvalue exceeding the second modulus by a relative gap > 1e-6,
    else ("inconclusive", diagnostics), whose best_gap and best_word are
    None when no word has a real simple top eigenvalue.  Absence of a
    witness is not disproof, so "fail" is never returned.
    """
    if e.dimension < 2:
        return "pass", {"witness_word": [], "note": "d=1: scalars are proximal"}
    rng = _rng(seed, 404)  # a search, not a walk: its random words are uniform
    best = {"gap": None, "word": None}
    # exhaustive short words first, then random longer ones
    words: list[tuple[int, ...]] = [(i,) for i in range(e.n_atoms)]
    if e.n_atoms >= 2:
        words += [(i, j) for i in range(e.n_atoms) for j in range(e.n_atoms)]
    for _ in range(PROXIMAL_RANDOM_WORDS):
        length = int(rng.integers(1, PROXIMAL_WORD_LENGTH + 1))
        words.append(tuple(rng.integers(0, e.n_atoms, size=length)))
    for word in words:
        g = np.eye(e.dimension)
        for idx in word:
            g = e.matrices[idx] @ g
            norm = np.abs(g).max()
            if norm > 1e100:
                g = g / norm  # eigenvalue gap is scale invariant
        gap, real_simple = _proximality_gap(g)
        if real_simple and (best["gap"] is None or gap > best["gap"]):
            best = {"gap": gap, "word": list(map(int, word))}
        if real_simple and gap > 1e-6:
            return "pass", {
                "witness_word": list(map(int, word)),
                "relative_gap": gap,
            }
    return "inconclusive", {"best_gap": best["gap"], "best_word": best["word"]}


def _canonical_directions(vs: np.ndarray, tol: float) -> np.ndarray:
    """Deduplicate the rows of vs (n, d), normalized, up to sign and angular
    tolerance; each candidate is tested against every kept row at once."""
    out = np.empty_like(vs, dtype=float)
    n = 0
    for v in vs:
        nv = np.linalg.norm(v)
        if nv < 1e-12:
            continue
        v = v / nv
        kept = out[:n]
        if not np.any(np.minimum(np.linalg.norm(kept - v, axis=1),
                                 np.linalg.norm(kept + v, axis=1)) < tol):
            out[n] = v
            n += 1
    return out[:n]


def check_strong_irreducibility(e: LinearEnsemble) -> tuple[str, dict]:
    """Orbit-closure heuristic for strong irreducibility.

    Candidate invariant lines are seeded from atom eigenvectors and closed
    under the atom actions up to angular tolerance.  A finite closed union of
    lines means a T-invariant finite union of proper subspaces exists
    ("fail"); a cardinality explosion is reported as "pass".  Only invariant
    unions of *lines* are searched, so "pass" is heuristic for d > 2.
    """
    if e.dimension == 1:
        return "pass", {"note": "d=1: vacuously strongly irreducible"}
    tol = 1e-8
    cap = 64
    n_iterations = 40
    seeds: list[np.ndarray] = []
    for g in e.matrices:
        vals, vecs = np.linalg.eig(g)
        for j in range(len(vals)):
            v = vecs[:, j]
            if np.abs(v.imag).max() <= 1e-9 * np.abs(v).max():
                seeds.append(v.real)
    # (0, d) when no atom has a real eigenvector
    dirs = _canonical_directions(np.array(seeds).reshape(-1, e.dimension), tol)
    if dirs.shape[0] == 0:
        return "inconclusive", {"note": "no real eigenvectors to seed from"}
    for it in range(n_iterations):
        images = np.einsum("mij,kj->mki", e.matrices, dirs).reshape(
            -1, e.dimension
        )
        new_dirs = _canonical_directions(np.vstack([dirs, images]), tol)
        if new_dirs.shape[0] > cap:
            return "pass", {
                "orbit_cardinality": int(new_dirs.shape[0]),
                "iterations": it + 1,
                "cap": cap,
            }
        if new_dirs.shape[0] == dirs.shape[0]:
            return "fail", {
                "invariant_lines": dirs.tolist(),
                "cardinality": int(dirs.shape[0]),
            }
        dirs = new_dirs
    return "inconclusive", {"orbit_cardinality": int(dirs.shape[0])}


def apply_atoms(matrices: np.ndarray, idx: np.ndarray, x: np.ndarray,
                shift: np.ndarray | None = None) -> np.ndarray:
    """g x (+ b) for rows-last vectors x (d, ..., n): column r of x is acted
    on by the atom matrices[idx[r]] of a stack (m, d, d), then that atom's
    translation shift[idx[r]] (shift (m, d)) is added when given.  The
    middle axes of x broadcast, so several vectors of a row go in one call.

    Each output component adds its even-j terms g_ij x_j in order, then its
    odd-j terms in order, then the two sums: (t0 + t2) + t1 in d=3, in
    order in d <= 2.  For d <= 7 that is the order of numpy 2.4's AVX-512
    einsum("nij,nj->ni") over a C-contiguous gathered stack, so the two
    agree bit for bit (a strided stack takes a kernel that adds in order)."""
    d = len(x)
    shape = (d, d, *(1,) * (x.ndim - 2), len(idx))
    g = matrices.reshape(len(matrices), -1).T.take(idx, axis=1).reshape(shape)
    # one (d, ..., n) term g[:, j] x_j at a time keeps the temporaries small
    y = g[:, 0] * x[0]
    for j in range(2, d, 2):
        y += g[:, j] * x[j]
    if d > 1:
        odd = g[:, 1] * x[1]
        for j in range(3, d, 2):
            odd += g[:, j] * x[j]
        y += odd
    if shift is not None:
        y = y + shift.T.take(idx, axis=1).reshape(shape[:1] + shape[2:])
    return y


def classify_cone_case(e: LinearEnsemble, seed: int = 0) -> tuple[str, dict]:
    """Classify the sphere dynamics: "II" when a proper convex cone is
    preserved (attractor disjoint from its antipode), "I" when the late-time
    attractor is symmetric, "unknown" otherwise.

    Simulates x -> g.x on the unit sphere from many starts, g drawn from
    the ensemble's weights, and compares the cluster of late-time directions
    with its antipodal image using margin ANGULAR_TOL.
    """
    d = e.dimension
    if d == 1:
        if np.all(e.matrices[:, 0, 0] > 0):
            return "II", {
                "note": "positive scalars preserve the half-line",
                "attractor_center": [1.0],
            }
        return "I", {"note": "sign changes force a symmetric attractor"}
    n_trajectories, n_steps = 64, 300
    rng = _rng(seed, 505)
    x = rng.standard_normal((n_trajectories, d)).T  # rows last
    x /= np.linalg.norm(x, axis=0)
    idx_all = draw_atoms(rng, e.weights, (n_steps, n_trajectories))
    tail: list[np.ndarray] = []
    keep_from = n_steps - max(100, n_steps // 3)
    for k in range(n_steps):
        x = apply_atoms(e.matrices, idx_all[k], x)
        x /= np.linalg.norm(x, axis=0)
        if k >= keep_from:
            tail.append(x.T.copy())  # C-ordered rows, as np.stack keeps layout
    # Per-trajectory decision: with an invariant cone an orbit settles on one
    # side and its tail set never touches its own antipodal image; without
    # one a single orbit must approach its own antipode.  The union over
    # starts is symmetric in both cases, so pooling cannot distinguish them.
    tails = np.stack(tail, axis=1)  # (n_trajectories, tail_len, d)
    separations = np.empty(n_trajectories)
    margins = np.empty(n_trajectories)
    for t in range(n_trajectories):
        pts = tails[t]
        dots = pts @ pts.T
        min_plus = np.sqrt(np.maximum(0.0, 2.0 + 2.0 * dots.min(axis=1)))
        separations[t] = min_plus.min()
        np.fill_diagonal(dots, -np.inf)
        self_gap = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * dots.max(axis=1)))
        # a fractal orbit only resolves antipodal contact down to its own
        # covering scale, so the contact margin adapts to the sampled gaps
        margins[t] = max(ANGULAR_TOL, 3.0 * float(quantile(self_gap, 0.9)))
    if np.all(separations > margins):
        # sign-align the pooled tail points to get one side of the attractor
        pooled = tails.reshape(-1, d)
        ref = pooled[0]
        aligned = pooled * np.where(pooled @ ref >= 0, 1.0, -1.0)[:, None]
        center = aligned.mean(axis=0)
        center /= max(np.linalg.norm(center), 1e-300)
        return "II", {
            "min_trajectory_separation": float(separations.min()),
            "attractor_center": center.tolist(),
        }
    touching = separations <= margins
    if touching.mean() >= 0.9:
        return "I", {
            "touching_trajectories": int(touching.sum()),
            "n_trajectories": int(n_trajectories),
            "max_separation": float(separations.max()),
        }
    return "unknown", {
        "min_trajectory_separation": float(separations.min()),
        "touching_trajectories": int(touching.sum()),
        "n_trajectories": int(n_trajectories),
    }


def check_nonarithmetic_1d(e: LinearEnsemble) -> tuple[str, dict]:
    """d=1 only: "fail" when all pairwise ratios log|a_i|/log|a_j| are rational
    with denominator <= 10^6 (the group generated by log|a_i| is then a
    lattice), else "pass".
    """
    from fractions import Fraction

    if e.dimension != 1:
        raise EnsembleError("check_nonarithmetic_1d requires d = 1")
    logs = np.log(np.abs(e.matrices[:, 0, 0]))
    nontrivial = logs[np.abs(logs) > 1e-14]
    if len(nontrivial) == 0:
        return "fail", {"note": "all atoms have |a| = 1"}
    base = nontrivial[0]
    ratios = []
    for x in nontrivial[1:]:
        r = x / base
        frac = Fraction(r).limit_denominator(10**6)
        ratios.append((float(r), frac.numerator, frac.denominator,
                       abs(r - frac.numerator / frac.denominator)))
    # an exactly rational ratio survives the float logs at ulp level (~1e-16
    # relative), while the best q <= 1e6 convergent of a generic irrational
    # sits ~1e-12 away; 1e-14 separates the two regimes
    all_rational = all(err <= 1e-14 * max(1.0, abs(r)) for r, _, _, err in ratios)
    if len(nontrivial) == 1 or all_rational:
        return "fail", {"ratios": ratios}
    return "pass", {"ratios": ratios}


# ---------------------------------------------------------------------------
# file format: JSON with keys dimension, atoms, label


def save_ensemble(e: LinearEnsemble | AffineEnsemble, path: str | Path) -> None:
    atoms = []
    for i in range(e.n_atoms):
        atom = {
            "matrix": [float(v) for v in e.matrices[i].reshape(-1)],
            "weight": float(e.weights[i]),
        }
        if isinstance(e, AffineEnsemble):
            atom["translation"] = [float(v) for v in e.translations[i]]
        atoms.append(atom)
    doc = {"dimension": e.dimension, "atoms": atoms, "label": e.label}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_ensemble(path: str | Path) -> LinearEnsemble | AffineEnsemble:
    """Parse the JSON ensemble format; values are read as 64-bit floats.

    Returns an AffineEnsemble when any atom carries a translation, else a
    LinearEnsemble.  Malformed atoms raise EnsembleError naming the index.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise EnsembleError(f"cannot read ensemble file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise EnsembleError(f"not valid JSON: {exc}") from exc
    try:
        d, atoms = doc["dimension"], doc["atoms"]
    except (KeyError, TypeError) as exc:
        raise EnsembleError(f"missing required key: {exc}") from exc
    if not isinstance(d, int) or isinstance(d, bool):
        raise EnsembleError(f"dimension must be an integer, got {d!r}")
    if not (isinstance(atoms, list) and all(isinstance(a, dict) for a in atoms)):
        raise EnsembleError("atoms must be a list of objects")
    label = str(doc.get("label", ""))
    mats, trans, weights = [], [], []
    has_translation = any("translation" in a for a in atoms)
    for i, a in enumerate(atoms):
        try:
            flat = np.asarray(a["matrix"], dtype=float)
            if flat.size != d * d:
                raise EnsembleError(
                    f"atom {i}: matrix has {flat.size} entries, expected {d * d}"
                )
            mats.append(flat.reshape(d, d))
            weights.append(float(a["weight"]))
            if has_translation:
                t = np.asarray(a.get("translation", np.zeros(d)), dtype=float)
                if t.size != d:
                    raise EnsembleError(
                        f"atom {i}: translation has {t.size} entries, expected {d}"
                    )
                trans.append(t)
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, EnsembleError):
                raise
            raise EnsembleError(f"atom {i}: {exc}") from exc
    if has_translation:
        return AffineEnsemble(d, np.array(mats), np.array(trans), np.array(weights), label)
    return LinearEnsemble(d, np.array(mats), np.array(weights), label)


def ensemble_hash(e: LinearEnsemble | AffineEnsemble) -> str:
    """Content hash of the ensemble (sha256 over canonical bytes)."""
    import hashlib

    h = hashlib.sha256()
    h.update(str(e.dimension).encode())
    h.update(np.ascontiguousarray(e.matrices, dtype=float).tobytes())
    if isinstance(e, AffineEnsemble):
        h.update(np.ascontiguousarray(e.translations, dtype=float).tobytes())
    h.update(np.ascontiguousarray(e.weights, dtype=float).tobytes())
    return h.hexdigest()

"""Stationary law of the affine recursion X_{n+1} = A X_n + B and its tail.

Sampling is backward: R_n = sum_k A_1...A_{k-1} B_k converges pointwise to
a stationary draw when the Lyapunov exponent is negative, so each sample is
an independent realization of R up to a recorded truncation error (forward
iteration would only converge in law).  Tail diagnostics estimate the decay
index and the directional tail constants two independent ways: order
statistics (Hill) plus plateau of t^alpha P{<R,u> > t}, and the Mellin pole
route (alpha - s) E<R,u>_+^s -> alpha C(u) as s -> alpha-.

Means of |R| can be infinite at alpha <= 1 (the shipped d=1 reference is
exactly critical: E A = 1); medians are reported alongside for that reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import draw_atoms, draw_buffers, stream as _rng

from .ensemble import (
    AffineEnsemble,
    apply_atoms,
    classify_cone_case,
    ensemble_hash,
    median,
    quantile,
)
from .projective import interpolate
from .transfer import KSolver

__all__ = [
    "TailSampleBank",
    "sample_stationary",
    "hill_estimator",
    "hill_stability",
    "empirical_tail",
    "directional_profile",
    "mellin_profile",
    "moment_check",
    "classify_tail_case",
]

_RETIRE = 1e-18  # a backward row stops once every product entry is below this


@dataclass
class TailSampleBank:
    """Independent stationary draws of R, an (n, d) array in every
    dimension, with truncation diagnostics.

    Each row stops on its own, so the diagnostics are per row:
    truncation_diag is the worst |last backward term| / |R|; remainder_bound
    is max|S| max|B| / (1 - decay), with |S| a row's product norm when it
    stopped and log decay the median over rows of log|S| / steps.  A bank
    whose diagnostic exceeds the configured cutoff is flagged under-converged
    rather than rejected.  row_steps counts the row-steps multiplied;
    last_step is the step at which the last row stopped.
    """

    ensemble_sha: str
    samples: np.ndarray
    n_steps: int
    seed: int
    truncation_diag: float
    remainder_bound: float
    under_converged: bool
    row_steps: int = 0
    last_step: int = 0

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.samples, axis=1)

    def directional(self, u: np.ndarray) -> np.ndarray:
        return self.samples @ np.asarray(u, dtype=float)


def _prefix(buf: np.ndarray, *shape: int) -> np.ndarray:
    """The C-contiguous array of the given shape on the first entries of the
    contiguous array buf, a view."""
    return buf.reshape(-1)[: math.prod(shape)].reshape(shape)


def _sample_chunk(
    ae: AffineEnsemble, n_steps: int, size: int, seed: int, chunk_idx: int
) -> tuple[np.ndarray, float, float, float, int, int]:
    """One independent chunk of backward draws; one kernel for every d.

    Rows last: product entry (i, j) is prod[i*d + j], a vector over the live
    rows.  Rows whose product entries are all below _RETIRE stop, and are
    written out and dropped once they are 1/8 of the live rows; all stop at
    n_steps.  The uniforms are drawn full-size every step, so a row's atoms
    never depend on when the other rows stop; only the live rows' are
    looked up.

    Every per-step array is the live-size prefix of a buffer allocated once
    per chunk at chunk size, as TiltedChain._buffer keeps them, so a step
    allocates nothing of its length: the draw's (draw_buffers), the gathered
    atoms ak and bk, the product and a spare, which the next step writes and
    whose first row holds the |entry| scratch, the sum and its last term, a
    row of scratch, the retirement mask, and the row numbers and a spare.
    Dropping rows gathers the kept rows of the product, the sum and the row
    numbers into their spares (the sum's into the last term's), which then
    swap with them.  With the output, a chunk holds 3 d^2 + 4 d + 4 floats,
    3 intp and 2 bools per row.

    Returns (samples (size, d), worst last-term ratio, worst product norm at
    a stop, median over rows of log|prod| / steps, row-steps, last stop)."""
    d = ae.dimension
    dd = d * d
    rng = _rng(seed, chunk_idx)
    a = ae.matrices.reshape(ae.n_atoms, dd).T.copy()  # a[l*d + j] = A_lj
    b = ae.translations.T.copy()
    draws = draw_buffers(size)
    rows, spare_rows = np.arange(size), np.empty(size, np.intp)
    prod = np.eye(d).reshape(dd, 1).repeat(size, axis=1)
    r = np.zeros((d, size))
    new, ak = np.empty_like(prod), np.empty_like(prod)
    last, bk = np.empty_like(r), np.empty_like(r)
    tmp, done = np.empty(size), np.empty(size, bool)
    out = np.empty((size, d))
    rate = np.empty(size)
    # running maxima over the stopped rows; np.maximum keeps a NaN, as max does
    ratio_max = prod_max = 0.0
    row_steps = 0
    for k in range(1, n_steps + 1):
        n = rows.size
        idx = draw_atoms(rng, ae.weights, size, None if n == size else rows, draws)
        # the atom indices are in range; mode="raise" would buffer the gathers
        np.take(a, idx, axis=1, out=ak, mode="clip")
        np.take(b, idx, axis=1, out=bk, mode="clip")
        for i in range(d):
            p_i = prod[i * d : (i + 1) * d]
            np.multiply(p_i[0], bk[0], out=last[i])
            for j in range(d):
                np.multiply(p_i[0], ak[j], out=new[i * d + j])
            for l in range(1, d):
                last[i] += np.multiply(p_i[l], bk[l], out=tmp)
                for j in range(d):
                    new[i * d + j] += np.multiply(p_i[l], ak[l * d + j], out=tmp)
        r += last
        prod, new = new, prod
        row_steps += n
        top = np.abs(prod[0], out=tmp)
        for e in range(1, dd):
            np.maximum(top, np.abs(prod[e], out=new[0]), out=top)
        np.less(top, _RETIRE, out=done)
        if k == n_steps:
            done.fill(True)
        elif 8 * np.count_nonzero(done) < n:
            continue
        gone = rows[done]
        out[gone] = r[:, done].T
        r_norm = np.linalg.norm(r[:, done], axis=0)
        nz = r_norm > 0
        ratio = np.linalg.norm(last[:, done], axis=0)[nz] / r_norm[nz]
        ratio_max = np.maximum(ratio_max, ratio.max(initial=0.0))
        prod_norm = np.linalg.norm(prod[:, done], axis=0)
        prod_max = np.maximum(prod_max, prod_norm.max())
        rate[gone] = np.log(np.maximum(prod_norm, 1e-300)) / k
        kept = np.flatnonzero(np.logical_not(done, out=done))
        n = kept.size
        if n == 0:
            break
        # the kept rows, in order, into the spares; the old arrays become the
        # spares, and every other buffer shrinks to its first n rows
        rows, spare_rows = np.take(rows, kept, out=_prefix(spare_rows, n), mode="clip"), rows
        prod, new = (np.take(prod, kept, axis=1, out=_prefix(new, dd, n), mode="clip"),
                     _prefix(prod, dd, n))
        r, last = (np.take(r, kept, axis=1, out=_prefix(last, d, n), mode="clip"),
                   _prefix(r, d, n))
        ak, bk, tmp, done = (_prefix(ak, dd, n), _prefix(bk, d, n), _prefix(tmp, n),
                             _prefix(done, n))
    return (out, float(ratio_max), float(prod_max),
            float(median(rate)), row_steps, k)


def sample_stationary(
    ae: AffineEnsemble,
    n_steps: int,
    n_samples: int,
    seed: int,
    chunk: int = 1 << 17,
    lyapunov_negative: bool = False,
    n_workers: int = 1,
) -> TailSampleBank:
    """Backward-iterate the recursion to produce n_samples stationary draws.

    Each row stops at n_steps or once every entry of its running product is
    below 1e-18, far below the 1e-12 a stop shared by all rows needs: a
    product stopped at e can still climb past t e later (for the d=1
    reference, where E A = 1, with probability up to 1/t).  Pass
    lyapunov_negative=True when the contraction hypothesis was verified
    upstream; otherwise a runtime check aborts the run when a sampled
    product's median norm fails to decay.  Chunks carry independent streams
    and are merged in index order, so n_workers never changes the result.
    A bank whose truncation diagnostic exceeds 1e-8 is under-converged.
    """
    if n_steps < 1 or n_samples < 1:
        raise ValueError("n_steps and n_samples must be positive")
    sizes = [min(chunk, n_samples - i) for i in range(0, n_samples, chunk)]
    jobs = [(ae, n_steps, size, seed, i) for i, size in enumerate(sizes)]
    if n_workers > 1 and len(jobs) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(lambda job: _sample_chunk(*job), jobs))
    else:
        results = [_sample_chunk(*job) for job in jobs]
    parts, ratios, prod_max, decay_logs, row_steps, last_steps = zip(*results)
    if not lyapunov_negative and max(decay_logs) >= 0.0:
        raise RuntimeError(
            "backward partial sums are not converging: "
            "Lyapunov exponent >= 0 suspected"
        )
    decay = float(np.exp(np.mean(decay_logs)))
    max_b = float(np.linalg.norm(ae.translations, axis=1).max())
    remainder = max(prod_max) * max_b / max(1.0 - decay, 1e-12) if decay < 1 else np.inf
    return TailSampleBank(
        ensemble_sha=ensemble_hash(ae),
        samples=np.concatenate(parts),
        n_steps=n_steps,
        seed=seed,
        truncation_diag=max(ratios),
        remainder_bound=float(remainder),
        under_converged=bool(max(ratios) > 1e-8),
        row_steps=sum(row_steps),
        last_step=max(last_steps),
    )


def hill_estimator(values: np.ndarray, k_order: int = 1000) -> tuple[float, tuple[float, float]]:
    """Hill estimate of the tail index of the positive entries of values
    (a bank's norms(), or its directional(u)) from the top k_order order
    statistics.

    alpha_hat = k / sum log(X_(i) / X_(k+1)); the CI is the asymptotic
    normal band alpha_hat (1 +- 1.96/sqrt(k)).  k_order must stay below half
    the number of positive entries.
    """
    data = np.asarray(values, dtype=float)
    data = data[data > 0]
    n = data.size
    if k_order >= n / 2:
        raise ValueError(f"k_order = {k_order} too large for {n} positive values")
    top = np.partition(data, n - k_order - 1)[n - k_order - 1 :]
    top.sort()
    x_ref = top[0]
    logs = np.log(top[1:] / x_ref)
    alpha_hat = k_order / logs.sum()
    half = 1.96 / np.sqrt(k_order)
    return float(alpha_hat), (float(alpha_hat * (1 - half)), float(alpha_hat * (1 + half)))


def hill_stability(values: np.ndarray) -> dict:
    """Hill estimates of the positive entries of values across 12 geometric
    k from max(10, n/1000) to max(20, n/10), n the number of positive
    entries, with a plateau flag.

    No stabilization across the scan (max/min ratio above 2) is reported as
    "no power tail": bounded data drives the estimate upward as k shrinks.
    """
    data = np.asarray(values, dtype=float)
    data = data[data > 0]
    n = data.size
    k_grid = np.geomspace(max(10, n // 1000), max(20, n // 10), 12).astype(int)
    k_grid = k_grid[np.diff(k_grid, prepend=0) > 0]  # sorted: drop the repeats
    rows = []
    for k in k_grid:
        if k >= n / 2:
            continue
        a, ci = hill_estimator(data, k_order=int(k))
        rows.append((int(k), a, ci[0], ci[1]))
    alphas = np.array([r[1] for r in rows])
    ratio = float(alphas.max() / alphas.min()) if len(alphas) else np.inf
    return {
        "table": rows,
        "spread_ratio": ratio,
        "power_tail": bool(ratio <= 2.0),
    }


def empirical_tail(
    bank: TailSampleBank,
    u: np.ndarray,
    alpha: float,
) -> dict:
    """Table of t^alpha P{<R,u> > t} with a plateau estimate of C(u).

    t runs over 48 geometric thresholds from the median of the positive part
    to half its maximum.  The plateau is the exceedance-weighted mean over
    the largest decade of t still holding >= 100 samples; its CI is a
    multinomial bootstrap (200 draws) over the layer counts of that decade.
    """
    min_exceedances = 100
    vals = bank.directional(np.asarray(u, dtype=float))
    pos = vals[vals > 0]
    n = bank.n_samples
    if pos.size < min_exceedances:
        raise ValueError("insufficient exceedances at every threshold")
    t_lo = float(quantile(pos, 0.5))
    t_hi = float(pos.max()) * 0.5
    if t_lo <= 0 or t_hi <= t_lo:
        raise ValueError("degenerate positive part; cannot build a t grid")
    t_grid = np.geomspace(t_lo, t_hi, 48)
    counts = np.array([(pos > t).sum() for t in t_grid])
    y = t_grid**alpha * counts / n
    ok = counts >= min_exceedances
    if not ok.any():
        raise ValueError("insufficient exceedances at every t in the grid")
    t_top = t_grid[ok][-1]
    window = (t_grid >= t_top / 10.0) & (t_grid <= t_top) & (counts > 0)
    w_counts = counts[window].astype(float)
    plateau = float(np.sum(w_counts * y[window]) / w_counts.sum())
    # multinomial bootstrap over the layer counts of the window
    tw = t_grid[window]
    cw = counts[window]
    layers = np.empty(len(tw) + 1, dtype=float)
    layers[0] = n - cw[0]
    layers[1:-1] = cw[:-1] - cw[1:]
    layers[-1] = cw[-1]
    probs = layers / n
    rng = _rng(12345)
    draws = rng.multinomial(n, probs, size=200)
    boot_counts = draws[:, ::-1].cumsum(axis=1)[:, ::-1][:, 1:]  # exceed counts
    boot_y = tw**alpha * boot_counts / n
    bw = boot_counts.astype(float)
    denom = bw.sum(axis=1)
    denom[denom == 0] = 1.0
    boot_plateau = (bw * boot_y).sum(axis=1) / denom
    lo, hi = quantile(boot_plateau, [0.025, 0.975])
    return {
        "t": t_grid,
        "counts": counts,
        "scaled_tail": y,
        "window": (float(t_top / 10.0), float(t_top)),
        "plateau": plateau,
        "ci": (float(lo), float(hi)),
    }


def directional_profile(
    tables: list[dict | None],
    ks: KSolver,
    alpha: float,
    directions: np.ndarray,
) -> dict:
    """Ratios C_hat(u) / *e^alpha(u) across directions, *e^alpha read from
    ks.star, and their coefficient of variation; direction-independent in
    the no-invariant-cone case.

    tables[i] is the empirical_tail table of directions[i], or None where
    that direction had too few exceedances.
    """
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    e_values = interpolate(ks.star.point(alpha).e, directions)
    ratios = []
    constants = {}
    for u, ev, res in zip(directions, e_values, tables):
        if res is None:
            continue
        constants[tuple(np.round(u, 6))] = (res["plateau"], res["ci"])
        ratios.append(res["plateau"] / ev)
    if not ratios:
        raise ValueError("no direction had enough exceedances")
    ratios = np.array(ratios)
    cv = float(ratios.std(ddof=1) / ratios.mean()) if len(ratios) > 1 else 0.0
    return {"constants": constants, "ratios": ratios, "cv": cv}


def mellin_profile(bank: TailSampleBank, u: np.ndarray, alpha: float) -> dict:
    """Pole-route estimate of C(u): extrapolate (alpha - s) E<R,u>_+^s
    linearly to s = alpha from 8 equally spaced s in [alpha/2, 0.9 alpha],
    and divide by alpha.

    The fit weights each s by an inverse batch-means variance, which keeps
    the noisy near-pole moments from dominating.  s values whose empirical
    moment overflows are dropped (adaptive clip).  At desk-scale sample
    sizes the empirical moment misses the tail mass above the observed
    maximum, so the estimate runs low.  On 1e6 samples it read 19% below
    the exact constant 1/k'(1) on kesten_affine_1d and 5.6% below Goldie's
    implicit-renewal estimate on kesten_symmetric_affine_1d; the
    cross-check budget against the plateau route absorbs that.
    """
    vals = bank.directional(np.asarray(u, dtype=float))
    pos = vals[vals > 0]
    n = bank.n_samples
    n_batches = 25
    nb = pos.size // n_batches
    if nb < 2:
        raise ValueError("too few positive values for a batch-weighted fit")
    scale = pos.size / n  # batch means cover the positive part only
    rows = []
    for s in np.linspace(0.5 * alpha, 0.9 * alpha, 8):
        with np.errstate(over="ignore"):
            powed = pos**s
            m = (alpha - s) * float(powed.sum()) / n
        if not np.isfinite(m):
            continue  # clip: too close to alpha for these samples
        bm = (alpha - s) * powed[: nb * n_batches].reshape(n_batches, nb).mean(axis=1)
        se = float(bm.std(ddof=1) * scale / np.sqrt(n_batches))
        rows.append((float(s), m, max(se, 1e-12)))
    if len(rows) < 3:
        raise ValueError("fewer than 3 usable s values after clipping")
    arr = np.array(rows)
    ss, ms, ses = arr[:, 0], arr[:, 1], arr[:, 2]
    w = 1.0 / ses**2
    sw = w.sum()
    sx = (w * ss).sum()
    sy = (w * ms).sum()
    sxx = (w * ss * ss).sum()
    sxy = (w * ss * ms).sum()
    den = sw * sxx - sx * sx
    slope = (sw * sxy - sx * sy) / den
    intercept = (sy - slope * sx) / sw
    limit = float(intercept + slope * alpha)
    var = (sxx - 2 * alpha * sx + alpha * alpha * sw) / den
    return {
        "table": [(s, m) for s, m, _ in rows],
        "pole_limit": limit,
        "c_estimate": limit / alpha,
        "c_se": float(np.sqrt(max(var, 0.0)) / alpha),
    }


def moment_check(
    bank: TailSampleBank,
    beta_grid: np.ndarray,
    ks: KSolver,
) -> list[dict]:
    """Empirical E|R|^beta with batch stability and divergence flags, k(beta)
    read from ks, the solver of the recursion's linear part.

    For beta > 0 the moment is finite exactly when k(beta) < 1; at
    beta >= alpha the empirical moment is dominated by extremes (large
    max_share) and grows with the sample.  E|R|^0 = 1 although k(0) = 1.
    """
    norms = bank.norms()
    n = norms.size
    n_batches = 10
    batch = n // n_batches
    rows = []
    for beta in np.asarray(beta_grid, dtype=float):
        powed = norms**beta if beta != 0 else np.ones_like(norms)
        mean = float(powed.mean())
        bm = powed[: batch * n_batches].reshape(n_batches, batch).mean(axis=1)
        spread = float(bm.std(ddof=1) / mean) if mean > 0 else np.inf
        max_share = float(powed.max() / powed.sum()) if powed.sum() > 0 else 0.0
        prefix = float(powed[: max(1, n // 10)].mean())
        growth = mean / prefix if prefix > 0 else np.inf
        k_beta = ks.k(float(beta))
        rows.append(
            {
                "beta": float(beta),
                "k_beta": k_beta,
                "mean": mean,
                "median": float(median(powed)),
                "batch_rel_spread": spread,
                "max_share": max_share,
                "growth_vs_prefix": float(growth),
                "expected_divergent": bool(beta > 0 and k_beta >= 1.0),
                "empirically_unstable": bool(max_share > 0.02),
            }
        )
    return rows


def _largest(pairs, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The largest magnitudes, with their sides, of a stream of (magnitude,
    side) array pairs: the k largest in sort order (NaN last), every
    magnitude equal to the k-th and every NaN.  A pair's magnitudes below
    the running floor are dropped at once; past 2k kept values the floor
    rises to the k-th largest kept, so the selection holds O(k) values."""
    floor = -np.inf
    mags = sides = np.empty(0)
    for m, side in pairs:
        rows = np.flatnonzero((m >= floor) | np.isnan(m))
        mags = np.concatenate((mags, m.take(rows)))
        sides = np.concatenate((sides, side.take(rows)))
        if mags.size > 2 * k:
            floor = np.partition(mags, -k)[-k]
            rows = np.flatnonzero((mags >= floor) | np.isnan(mags))
            mags, sides = mags.take(rows), sides.take(rows)
    return mags, sides


def classify_tail_case(ae: AffineEnsemble, seed: int = 0) -> str:
    """Trichotomy of the stationary tail: "I" without an invariant cone;
    with one, "II'" when large forward states charge both antipodal
    attractor sides and "II''" when only one side is charged.  The cone and
    its attractor centre come from classify_cone_case(ae.linear_part, seed),
    whose "unknown" is reported as is.

    The census runs 4096 forward paths for 400 steps and reads, for each
    state of the last 200, its magnitude and its side <x, center>.  It keeps
    only the states that can reach the 0.995-quantile magnitude cut of all
    200 x 4096: the 4097 largest and their ties (_largest), so it holds
    O(4096) values, not the states or a (200, 4096) array.  A side counts as
    charged when at least 5 census states at or above the cut lie on it;
    the minority constant can be tiny, so the decision is count-based, with
    the cut required to clear the additive scale (else the census cannot
    see the tail and reports unknown).
    """
    cone_case, evidence = classify_cone_case(ae.linear_part, seed)
    if cone_case != "II":
        return cone_case
    n_paths, n_steps, top_quantile, min_hits = 4096, 400, 0.995, 5
    center = np.asarray(evidence["attractor_center"], dtype=float)
    rng = _rng(seed, 777)
    kept = n_steps - n_steps // 2

    def census():
        x = (rng.standard_normal((n_paths, ae.dimension)) * 0.1).T  # rows last
        for k in range(n_steps):
            x = apply_atoms(ae.matrices, draw_atoms(rng, ae.weights, n_paths), x,
                            ae.translations)
            if k >= n_steps - kept:
                yield np.linalg.norm(x, axis=0), center @ x

    n = kept * n_paths
    # the cut reads the order statistics from floor((n - 1) q) up
    magnitudes, sides = _largest(census(), n - int(np.floor((n - 1) * top_quantile)))
    cut = quantile(magnitudes, top_quantile, n=n)
    scale_b = float(np.linalg.norm(ae.translations, axis=1).max())
    if cut < 10.0 * scale_b:
        return "unknown"
    side = sides[magnitudes >= cut]
    if not side.size:
        return "unknown"
    if (side > 0).sum() >= min_hits and (side < 0).sum() >= min_hits:
        return "II'"
    return "II''"

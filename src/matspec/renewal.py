"""Renewal asymptotics of the linear walk and the dual ladder walk.

Potential kernel, in both regimes by one renewal theorem for the tilted
walk (Kesten 1974): t^{-alpha} sum_k E f(S_k(t u)), f a log-window [c1, c2)
times a directional probe, against its limit e^alpha(u) nu^alpha(probe)
(c1^-alpha - c2^-alpha) / (alpha L(alpha)).  Contracting walks take the
tail index alpha, expanding ones (L(0) > 0) alpha = 0: e^0 = 1, the tilted
kernel is the untilted law and the window factor is its limit log(c2/c1).

Contracting regime with tail index alpha: level-crossing probabilities
P{sup_n |S_n u| > t} decay like t^{-alpha} A e^alpha(u); naive counting
(untilted atoms through ensemble.apply_atoms) starves at useful t, so the
tilted chain supplies an exact importance-sampling estimate with per-path
likelihood ratio k(alpha)^n e^alpha(u) / (e^alpha(S_n.u) |S_n u|^alpha)
evaluated at the first crossing.  The dual ladder walk (u_n, p_n) drives
the positivity of directional tail constants: its ladder epochs are the
record times of p^{-1} p_n |S'_n u| and the mean inter-record gap ties the
ladder height growth rate to L(alpha).  Each tilted walk takes the run's
transfer.KSolver and alpha and reads its chain, e^alpha, nu^alpha and
L(alpha) (by quadrature) from that one solver; the dual walk's from ks.star.

Every level walk counts its start, and retires finished paths by one
gather (flatnonzero, then a take per array): the naive walk from its own
arrays and the tilted ones through TiltedChain.keep; the live rows keep
their order, and path numbers (TiltedChain.ids) index the per-path tallies.
Both Cramer walks keep one crossing state, _Crossings: a path's next level,
its first threshold not crossed (inf past the top one), where the start
|S_0 u| = 1 crosses those below 1; only the rows whose logmag exceeds their
level look it up again.  The naive walk retires a path by the tail bound;
the tilted walk tallies its weights by crossing event, one bincount a step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ensemble import AffineEnsemble, apply_atoms
from .rng import draw_atoms, stream as _rng
from .spectrum import lyapunov
from .transfer import KSolver, TiltedChain

__all__ = [
    "RenewalReport",
    "DualWalkRecord",
    "AnnulusFunction",
    "cramer_constant",
    "tilted_potential_profile",
    "dual_walk_simulate",
]

_MAX_STEPS = 4000  # most steps of one Cramer or potential-profile path


@dataclass(frozen=True)
class AnnulusFunction:
    """Indicator test function: log-magnitude window x directional cap.

    probe_center None means all directions; otherwise membership is chordal
    distance to the (sign-folded) center below probe_radius.
    """

    name: str
    log_lo: float
    log_hi: float
    probe_center: np.ndarray | None = None
    probe_radius: float = 0.5

    def direction_mask(self, dirs: np.ndarray) -> np.ndarray:
        if self.probe_center is None:
            return np.ones(dirs.shape[0], dtype=bool)
        c = np.asarray(self.probe_center, dtype=float)
        # over a strided array the product adds in another order in d=3
        dots = np.abs(np.ascontiguousarray(dirs) @ c)
        dist = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * np.clip(dots, -1.0, 1.0)))
        return dist < self.probe_radius

    def probe_mass(self, nu) -> float:
        """nu-mass of the directional cap (GridMeasure)."""
        if self.probe_center is None:
            return 1.0
        mask = self.direction_mask(nu.grid.nodes)
        return float(nu.masses[mask].sum())


@dataclass
class RenewalReport:
    """Measured-vs-predicted table; predictions come only from spectral
    inputs, never from the measured values."""

    regime: str
    rows: list[dict] = field(default_factory=list)
    caveats: list[str] = field(default_factory=list)


def _add_visits(acc: np.ndarray, test_functions: list[AnnulusFunction],
                windows: list[tuple[float, float]], logmag: np.ndarray,
                x: np.ndarray, ids: np.ndarray, weights: np.ndarray) -> None:
    """Add weights[r] to acc[j, ids[r]] for each live row r whose log
    magnitude lies in window j and whose direction x[r] (rows first) lies
    in test function j's probe cap."""
    for j, (f, (lo, hi)) in enumerate(zip(test_functions, windows)):
        inside = (logmag >= lo) & (logmag < hi)
        if inside.any():
            sel = inside if f.probe_center is None else inside & f.direction_mask(x)
            acc[j, ids[sel]] += weights[sel]


def _report(regime: str, test_functions: list[AnnulusFunction], acc: np.ndarray,
            nu, predict, flag: str = "", caveats: list[str] | None = None) -> RenewalReport:
    """One row per test function: the mean and standard error over paths
    of its row of acc (paths last), against predict(f, nu-mass of f's
    probe)."""
    report = RenewalReport(regime=regime, caveats=caveats or [])
    for f, vals in zip(test_functions, acc):
        report.rows.append(
            {
                "name": f.name,
                "measured": float(vals.mean()),
                "predicted": float(predict(f, f.probe_mass(nu))),
                "stderr": float(vals.std(ddof=1) / np.sqrt(vals.size)),
                "flag": flag,
            }
        )
    return report


class _Crossings:
    """Per path of a Cramer walk, how many of the sorted log thresholds
    log_ts it has crossed, its start included (nxt), and the next one
    (level, inf past the top)."""

    def __init__(self, log_ts: np.ndarray, n_paths: int):
        self.log_ts = log_ts
        self.levels = np.append(log_ts, np.inf)
        self.nxt = np.full(n_paths, np.searchsorted(log_ts, 0.0))
        self.level = self.levels.take(self.nxt)

    def step(self, logmag: np.ndarray, ids: np.ndarray):
        """The rows whose logmag exceeds the level of their path (path
        numbers ids), with the first threshold each crosses now and one past
        the last; moves those paths past them."""
        new = np.flatnonzero(logmag > self.level.take(ids))
        paths = ids.take(new)
        lo = self.nxt.take(paths)
        hi = np.searchsorted(self.log_ts, logmag.take(new))
        self.nxt[paths] = hi
        self.level[paths] = self.levels.take(hi)
        return new, lo, hi

    def hits(self) -> list[int]:
        """Per threshold, the paths that crossed it."""
        return [int((self.nxt > j).sum()) for j in range(len(self.log_ts))]


def cramer_constant(
    ks: KSolver,
    alpha: float,
    u: np.ndarray,
    t_grid: np.ndarray,
    n_paths: int,
    seed: int,
    method: str = "tilted",
) -> list[dict]:
    """Table of A_hat(u, t) = t^alpha P{sup_{n>=0} |S_n u| > t} per
    threshold; alpha must be finite and positive.  Both methods count the
    start |S_0 u| = 1, so a threshold t < 1 reads t^alpha with stderr 0.

    naive: direct path counting under the untilted walk of ks.ensemble,
    with no eigen-solve.  Each step draws n_paths uniforms and looks up
    those of the live paths, so a path's draws depend only on its number.
    A path retires once it has crossed every threshold, or once it sits
    more than climb = min(60, log(n_paths 1e4) / alpha) nats below the
    smallest one it has not crossed: by the Cramer-type estimate it climbs
    that far again with probability about C e^{-alpha climb}, so the
    retired paths would change about C 1e-4 hits in all.  Rows with fewer
    than 25 exceedances are flagged starved.

    tilted: sequential importance sampling under the alpha-tilted chain of
    ks with the exact likelihood ratio at first crossing, 1 at the start;
    every path crosses every level since the tilted drift is positive, and
    it retires once it has crossed the top one, before its first step if
    the start does.  One step may pass several thresholds, and each step
    adds its crossing weights (and their squares) to each threshold in row
    order.  Either way a path runs at most 4000 steps.
    """
    drop_nats, min_hits = 60.0, 25
    if not (np.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and positive, got {alpha!r}")
    u = np.asarray(u, dtype=float) / np.linalg.norm(u)
    log_ts = np.log(np.asarray(sorted(t_grid)))
    t_arr = np.exp(log_ts)
    crossings = _Crossings(log_ts, n_paths)
    rng = _rng(seed, 660)
    if method == "naive":
        e = ks.ensemble
        climb = min(drop_nats, np.log(n_paths * 1e4) / alpha)
        # retired paths are compacted out, the live ones keep their order
        x = np.repeat(u[:, None], n_paths, axis=1)
        logmag = np.zeros(n_paths)
        live = np.arange(n_paths)
        steps = 0
        while live.size and steps < _MAX_STEPS:
            y = apply_atoms(e.matrices, draw_atoms(rng, e.weights, n_paths, rows=live), x)
            norms = np.linalg.norm(y, axis=0)
            x = y / norms
            logmag += np.log(norms)
            crossings.step(logmag, live)
            done = crossings.level.take(live) - logmag > climb
            if done.any():
                rows = np.flatnonzero(~done)
                x, logmag, live = x.take(rows, axis=1), logmag.take(rows), live.take(rows)
            steps += 1
        hits = crossings.hits()
        p_hats = [h / n_paths for h in hits]
        return _crossing_rows(t_arr, alpha, n_paths, p_hats, [p * (1 - p) for p in p_hats],
                              hits, lambda h: "starved" if h < min_hits else "")
    if method != "tilted":
        raise ValueError(f"unknown method {method!r}")
    chain = TiltedChain(ks, [alpha], [np.tile(u, (n_paths, 1))])
    # per threshold: the weight sums at first crossing, from the start's
    # crossings on, each of likelihood ratio 1
    weight_sum = np.array(crossings.hits(), dtype=float)
    weight_sq = weight_sum.copy()
    # a path walks until its level is inf, past every threshold: from the
    # start already, or at the step that crosses the top one
    chain.keep(np.isfinite(crossings.level))
    steps = 0
    while chain.ids.size and steps < _MAX_STEPS:
        chain.step(rng.random(chain.ids.size))
        new, lo, hi = crossings.step(chain.logmag, chain.ids)
        if new.size:
            # the simulated kernel normalizes by the grid normalizer
            # (= k(alpha) up to discretization); the likelihood ratio folds
            # in the actual normalizers, which keeps the estimator exactly
            # unbiased for the chain that was simulated
            wvals = np.exp(chain.log_lr(new))
            # one step may cross several thresholds: row r adds to each j in
            # [lo[r], hi[r]), the rows in order within each threshold
            n_new = hi - lo
            js = np.arange(n_new.sum()) - np.repeat(np.cumsum(n_new) - n_new - lo, n_new)
            w = np.repeat(wvals, n_new)
            weight_sum += np.bincount(js, w, len(log_ts))
            weight_sq += np.bincount(js, w * w, len(log_ts))
            topped = new[hi == len(log_ts)]  # their level is now inf
            if topped.size:
                live = np.ones(chain.ids.size, dtype=bool)
                live[topped] = False
                chain.keep(live)
        steps += 1
    p_hats = [w / n_paths for w in weight_sum]
    return _crossing_rows(t_arr, alpha, n_paths, p_hats,
                          [q / n_paths - p**2 for p, q in zip(p_hats, weight_sq)],
                          crossings.hits(),
                          lambda h: "" if h == n_paths else "incomplete-crossings")


def _crossing_rows(t_arr, alpha, n_paths, p_hats, variances, hits, flag) -> list[dict]:
    """cramer_constant's table, a row per threshold t, in scalars: t^alpha
    p_hat with stderr t^alpha sqrt(var / n_paths), var the variance of one
    path's term (0 when round-off makes it negative); flag(hits) marks it."""
    return [{"t": float(t),
             "estimate": float(t**alpha * p),
             "stderr": float(t**alpha * np.sqrt(max(v, 0.0) / n_paths)),
             "hits": h,
             "flag": flag(h)}
            for t, p, v, h in zip(t_arr, p_hats, variances, hits)]


def tilted_potential_profile(
    ks: KSolver,
    alpha: float,
    u: np.ndarray,
    t: float,
    test_functions: list[AnnulusFunction],
    n_paths: int,
    seed: int,
) -> RenewalReport:
    """t^{-alpha} sum_{k>=0} E[f(S_k(t u))] for annulus functions f, against the
    prediction e^alpha(u)/L(alpha) * nu^alpha(probe) * (c1^-a - c2^-a)/a,
    with e^alpha and nu^alpha from ks.point(alpha) and L(alpha) from its
    quadrature route; at alpha = 0, which requires L(0) > 0, the factor is
    its limit log(c2/c1) and the chain draws from the ensemble's weights.

    Every step contributes through its own likelihood ratio, so the sum is
    an exact reweighting of the untilted potential.  A path runs until it
    climbs 5 nats past the top window (10 at alpha = 0), or for at most
    4000 steps; paths still running then flag every row stuck-paths.
    """
    L_alpha = lyapunov(ks, alpha, "quadrature")[0]
    expanding = alpha == 0
    if expanding and not L_alpha > 0:
        raise ValueError("the profile at alpha = 0 requires a positive Lyapunov exponent")
    u = np.asarray(u, dtype=float) / np.linalg.norm(u)
    rng = _rng(seed, 770)
    chain = TiltedChain(ks, [alpha], [np.tile(u, (n_paths, 1))])
    e_at_u = float(chain.e_x[0])
    acc = np.zeros((len(test_functions), n_paths))
    windows = [(f.log_lo - np.log(t), f.log_hi - np.log(t)) for f in test_functions]
    top = max(hi for _, hi in windows)
    _add_visits(acc, test_functions, windows, chain.logmag, chain.x, chain.ids,
                np.ones(n_paths))  # k = 0, at likelihood ratio 1
    steps = 0
    while chain.ids.size and steps < _MAX_STEPS:
        chain.step(rng.random(chain.ids.size))
        _add_visits(acc, test_functions, windows, chain.logmag, chain.x, chain.ids,
                    np.exp(chain.log_lr()))
        chain.keep(chain.logmag <= top + (10.0 if expanding else 5.0))
        steps += 1
    stuck = chain.ids.size
    caveats = [f"{stuck} paths had not left the window region "
               f"after {_MAX_STEPS} steps"] if stuck else []
    return _report("expanding" if expanding else "contracting-tilted", test_functions,
                   acc * t ** (-alpha), ks.point(alpha).nu,
                   lambda f, mass: (e_at_u * mass * (f.log_hi - f.log_lo) / L_alpha if expanding
                                    else e_at_u / L_alpha * mass
                                    * (np.exp(f.log_lo)**-alpha - np.exp(f.log_hi)**-alpha)
                                    / alpha),
                   "stuck-paths" if stuck else "", caveats)


@dataclass
class DualWalkRecord:
    """Batch summary of the alpha-tilted dual walk (u_n, p_n).

    first_tau < 0 marks starts whose first ladder epoch was not reached
    within the step budget; mean_gap is the mean over starts of the last
    epoch over the epoch count, as the gaps telescope; sign_preserved
    reports that p^{-1} p_tau > 0 at every recorded epoch, which holds by
    construction: only steps with p^{-1} p_n > 0 are taken as records.
    """

    n_starts: int
    n_steps: int
    first_tau: np.ndarray
    mean_gap: float
    gamma_tau: float
    height_rate: float
    height_rate_se: float
    eps_moment: float
    eps_moment_cv: float
    sign_preserved: bool
    zero_hits: int


def dual_walk_simulate(
    ae: AffineEnsemble,
    ks: KSolver,
    alpha: float,
    p0: float = 1.0,
    u0: np.ndarray | None = None,
    n_starts: int = 1024,
    n_steps: int = 400,
    seed: int = 0,
) -> DualWalkRecord:
    """Simulate the dual chain u_{n+1} = A*.u_n,
    p_{n+1} = (p_n + <B, u_n>) / |A* u_n| with atoms drawn from the
    alpha-tilted chain of ks.star, and record its ladder structure; ks is
    the solver of ae.linear_part, which also gives L(alpha) by quadrature.

    Ladder epochs are the successive record times of p^{-1} p_n |S'_n u|
    (tracked in logs, so growth never overflows); gamma_tau = L(alpha) *
    mean inter-record gap, and height_rate is the direct batch estimate of
    (1/n) log(|S'_{tau_n} u| p_{tau_n} / p), which must match gamma_tau.
    """
    if p0 == 0.0:
        raise ValueError("p0 must be nonzero")
    lin = ae.linear_part
    if not (np.array_equal(ks.ensemble.matrices, lin.matrices)
            and np.array_equal(ks.ensemble.weights, lin.weights)):
        raise ValueError("ks must be the solver of the walk's linear part")
    L_alpha = lyapunov(ks, alpha, "quadrature")[0]
    d = ae.dimension
    rng = _rng(seed, 880)
    if u0 is None:
        u = rng.standard_normal((n_starts, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
    else:
        u = np.tile(np.asarray(u0, dtype=float) / np.linalg.norm(u0), (n_starts, 1))
    chain = TiltedChain(ks.star, [alpha], [u])
    b_cols = ae.translations.T.copy()  # row j: every atom's B_j
    p = np.full(n_starts, float(p0))
    log_record = np.zeros(n_starts)  # record of log(p^{-1} p_n |S'_n u|), start 0
    first_tau = np.full(n_starts, -1, dtype=int)
    n_epochs = np.zeros(n_starts, dtype=int)
    last_epoch = np.zeros(n_starts, dtype=int)  # the gaps telescope to it
    sign_ok = True
    zero_hits = 0
    # |p|^eps after burn-in: per-start totals and the sums of nb equal
    # blocks of steps (a remainder of fewer than nb steps is left out)
    eps, nb = 0.1, 10
    burn = max(50, n_steps // 10)
    block_len = max(n_steps - burn, 0) // nb
    eps_total = np.zeros(n_starts)
    block_sums = np.zeros(nb)
    for step in range(1, n_steps + 1):
        u = chain.x  # step rebinds chain.x, so u keeps the pre-step rows
        choice, ln = chain.step(rng.random(n_starts))
        # <B, u>, adding the d terms in order as numpy's short-axis sum does
        bu = b_cols[0].take(choice) * u[:, 0]
        for j in range(1, d):
            bu += b_cols[j].take(choice) * u[:, j]
        p_new = (p + bu) / np.exp(ln)
        exact_zero = p_new == 0.0
        if exact_zero.any():
            zero_hits += int(exact_zero.sum())
            p_new = np.where(exact_zero, np.finfo(float).tiny, p_new)
        p = p_new
        ratio = p / p0
        positive = ratio > 0
        logv = np.log(np.abs(ratio)) + chain.logmag  # read only where positive
        # strict increase with a 1e-9 nat margin: absorbs the measure-zero
        # boundary v_n == record (e.g. the B = 0 walk where v_n is exactly 1)
        # without touching genuine ladder heights, which are O(L(alpha))
        is_record = positive & (logv > log_record + 1e-9)
        sign_ok &= bool((is_record <= positive).all())  # ratio > 0 at every record
        np.putmask(first_tau, is_record & (first_tau < 0), step)
        n_epochs += is_record
        np.putmask(last_epoch, is_record, step)
        np.putmask(log_record, is_record, logv)
        if step > burn:
            eps_p = np.abs(p) ** eps
            eps_total += eps_p
            if step <= burn + nb * block_len:
                block_sums[(step - burn - 1) // block_len] += eps_p.sum()
    n_after = n_steps - burn
    eps_moment = float(eps_total.sum() / (n_after * n_starts)) if n_after > 0 else np.nan
    eps_cv = np.inf  # also when the blocks are empty
    if block_len:
        batches = block_sums / (block_len * n_starts)
        if batches.mean() > 0:
            eps_cv = float(batches.std(ddof=1) / batches.mean())
    with_epochs = n_epochs > 0
    if with_epochs.any():
        mean_gap = float((last_epoch[with_epochs] / n_epochs[with_epochs]).mean())
        rates = (log_record[with_epochs]) / n_epochs[with_epochs]
        height_rate = float(rates.mean())
        height_se = float(rates.std(ddof=1) / np.sqrt(max(with_epochs.sum(), 2)))
    else:
        mean_gap = height_rate = height_se = float("nan")
    return DualWalkRecord(
        n_starts=n_starts,
        n_steps=n_steps,
        first_tau=first_tau,
        mean_gap=mean_gap,
        gamma_tau=float(L_alpha * mean_gap),
        height_rate=height_rate,
        height_rate_se=height_se,
        eps_moment=eps_moment,
        eps_moment_cv=eps_cv,
        sign_preserved=sign_ok,
        zero_hits=zero_hits,
    )

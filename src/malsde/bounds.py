"""Empirical verification harness for moment, exponential, and tail bounds.

Constants are fitted from each model (generator domination fit), then every
bound is checked by Monte Carlo against its displayed right-hand side.  Where
a bound carries unknown absolute constants, the check is split into a
scaling-exponent fit and a uniformity-in-truncation-level spread check, which
are constant-free.
Each study builds its rows and decides their pass: `bound_checks` every
`bounds.csv` row, `truncation_convergence` and `step_halving_checks` the
`converge.csv` rows.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .density import gaussian_law
from .malliavin import DegenerateCovarianceError, flow
from .models import (
    OrnsteinUhlenbeckModel,
    TruncationFamily,
    _real_radius,
    generator_apply,
)
from .parallel import map_chunks
from .rng import gaussian_increments
from .simulate import TimeGrid, euler_rerun, euler_states, sample_noise_block

ALPHA_FLOOR = 0.01
ALPHA_MAX = 64.0
FIT_SAMPLES = 4000       # ball sample the generator constants are fitted on
HOLDOUT_SAMPLES = 10000  # fresh ball sample they are validated on
SPREAD_LIMIT = 0.10
# fitted vs exact invcov slope where Q is deterministic: only round-off may differ
_INVCOV_SLOPE_RTOL = 1e-9
COVQ_TIME_FRACTIONS = (0.25, 0.5, 1.0)


# ---------------------------------------------------------------------------
# Generator domination fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorFit:
    """Constants with L_n |x - x0|^p <= alpha_p |x - x0|^p + gamma_p on the
    sampled domain.

    alpha_raw is the minimal-slope fit (may be <= 0, e.g. mean-reverting
    models); alpha_p is the value used downstream, selected from a candidate
    grid above the positivity floor to minimize gamma(alpha)/alpha, the
    quantity every exponential bound actually consumes.
    """

    alpha_p: float
    gamma_p: float
    alpha_raw: float
    holdout_violations: int

    @property
    def ratio(self) -> float:
        return self.gamma_p / self.alpha_p


def _ball_sample(rng, x0, radius, n, dim):
    z = rng.standard_normal((n, dim))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    u = rng.random(n) ** (1.0 / dim)
    pts = x0 + radius * u[:, None] * z
    pts[0] = x0
    return pts


def generator_violations(fam, p, alpha, gamma, radius=None, seed=1) -> int:
    """Count of HOLDOUT_SAMPLES ball points where L_n f > alpha f + gamma + 1e-9."""
    radius = _default_radius(fam) if radius is None else float(radius)
    rng = np.random.default_rng(seed)
    x0 = np.asarray(fam.x0, dtype=float)
    xs = _ball_sample(rng, x0, radius, HOLDOUT_SAMPLES, fam.dim)
    f = np.sum((xs - x0) ** 2, axis=-1) ** (p / 2)
    lf = generator_apply(fam, p, xs)
    return int(np.count_nonzero(lf > alpha * f + gamma + 1e-9))


# Nelder-Mead reflection, expansion, contraction and shrink coefficients
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5


def _sorted_simplices(sim, fsim):
    """Each start's vertices in ascending order of value (`np.argsort` per row)."""
    ind = np.argsort(fsim, axis=1)
    return np.take_along_axis(sim, ind[:, :, None], 1), np.take_along_axis(fsim, ind, 1)


def _nelder_mead(func, starts, xatol, fatol, maxiter):
    """The minimum found from each row of starts (B, n) by scipy's Nelder-Mead
    (`minimize` with method "Nelder-Mead", adaptive=False and the given
    xatol, fatol and maxiter), bitwise, with all starts run in lockstep.

    func maps (k, n) points to k values.  Each iteration calls it at most
    three times, on the starts still running: their reflections, the one
    expansion or contraction point each start's branch needs, then the
    vertices of the starts that shrink.  As in scipy, the first simplex
    scales each coordinate by 1.05 in turn (a zero one becomes 0.00025), a
    start stops when its simplex is within xatol and its values within fatol
    of the best vertex, iterations count from 1 to maxiter, and the value
    found is the simplex's minimum.
    """
    b, n = starts.shape
    sim = np.repeat(starts[:, None, :], n + 1, axis=1)
    k = np.arange(n)
    diag = starts[:, k]
    sim[:, k + 1, k] = np.where(diag != 0, (1 + 0.05) * diag, 0.00025)
    sim, fsim = _sorted_simplices(sim, func(sim.reshape(-1, n)).reshape(b, n + 1))
    sim, fsim = _sorted_simplices(sim, fsim)  # scipy sorts the first simplex twice
    run = np.arange(b)
    for _ in range(maxiter - 1):
        s, fs = sim[run], fsim[run]
        done = ((np.max(np.abs(s[:, 1:] - s[:, :1]), axis=(1, 2)) <= xatol)
                & (np.max(np.abs(fs[:, :1] - fs[:, 1:]), axis=1) <= fatol))
        run, s, fs = run[~done], s[~done], fs[~done]
        if not len(run):
            break
        xbar = np.add.reduce(s[:, :-1], 1) / n
        worst = s[:, -1]
        xr = (1 + _RHO) * xbar - _RHO * worst
        fxr = func(xr)
        expand = fxr < fs[:, 0]
        accept = ~expand & (fxr < fs[:, -2])
        outside = ~expand & ~accept & (fxr < fs[:, -1])
        inside = ~(expand | accept | outside)
        x2 = np.where(expand[:, None], (1 + _RHO * _CHI) * xbar - _RHO * _CHI * worst,
                      np.where(outside[:, None], (1 + _PSI * _RHO) * xbar - _PSI * _RHO * worst,
                               (1 - _PSI) * xbar + _PSI * worst))
        fx2 = np.full_like(fxr, np.nan)
        if np.any(~accept):
            fx2[~accept] = func(x2[~accept])
        take2 = ((expand & (fx2 < fxr)) | (outside & (fx2 <= fxr))
                 | (inside & (fx2 < fs[:, -1])))
        shrink = (outside | inside) & ~take2
        step = ~shrink  # a shrinking start keeps its worst vertex until it shrinks
        s[step, -1] = np.where(take2[:, None], x2, xr)[step]
        fs[step, -1] = np.where(take2, fx2, fxr)[step]
        if np.any(shrink):
            v = s[shrink, :1] + _SIGMA * (s[shrink, 1:] - s[shrink, :1])
            s[shrink, 1:] = v
            fs[shrink, 1:] = func(v.reshape(-1, n)).reshape(-1, n)
        sim[run], fsim[run] = _sorted_simplices(s, fs)
    return np.min(fsim, axis=1)


def _clipped_surplus(fam, p, alpha, x0, radius, x):
    """L_n f - alpha f at the points x (k, d), each first pulled onto the ball
    if it leaves it, bitwise its one-point value: |x - x0| is the BLAS dot
    `np.linalg.norm` takes of one vector, and f the scalar power, which
    rounds apart from numpy's array power."""
    y = x - x0
    r = np.sqrt((y[:, None, :] @ y[:, :, None])[:, 0, 0])
    clip = r > radius
    x = x.copy()
    x[clip] = x0 + y[clip] * (radius / r[clip])[:, None]
    fx = np.array([v ** (p / 2) for v in np.sum((x - x0) ** 2, axis=-1)])
    return generator_apply(fam, p, x) - alpha * fx


def _polished_gamma(fam, p, alpha, xs, surplus, x0, radius):
    """max over the ball of L_n f - alpha f, refined beyond the sample max.

    A Nelder-Mead search (`_nelder_mead`, a numpy port of scipy's) from each
    of the 8 sample points of largest surplus maximizes `_clipped_surplus`;
    all 8 run in lockstep, each objective call on one batch of points.  This
    closes the gap between the sample max and the true max, so fresh holdout
    samples cannot violate the fitted inequality.
    """
    order = np.argsort(surplus)[::-1]
    found = _nelder_mead(lambda x: -_clipped_surplus(fam, p, alpha, x0, radius, x),
                         xs[order[:8]], xatol=1e-10, fatol=1e-12, maxiter=2000)
    best = max(float(np.max(surplus)), *(-found).tolist())
    return best + 1e-10 * max(1.0, abs(best))


def _default_radius(fam):
    level = getattr(fam, "level", None)
    return float(level) + 2.0 if level is not None else 8.0


def fit_generator_constants(fam, p=2, radius=None) -> GeneratorFit:
    """Fit (alpha_p, gamma_p) with L_n|x-x0|^p <= alpha_p|x-x0|^p + gamma_p.

    Two passes over FIT_SAMPLES ball points (seed 0): (1) minimal-slope fit
    alpha_raw = max over samples with f >= 1 of (L_n f - gamma0)/f, where
    gamma0 = max L_n f on the unit ball; (2) grid over candidate alpha in
    [ALPHA_FLOOR, ALPHA_MAX], each paired with its minimal feasible
    gamma(alpha) = max(L_n f - alpha f), keeping the pair with the smallest
    gamma/alpha.  The fitted pair is validated on a fresh holdout sample
    (`generator_violations`, seed 1).
    """
    radius = _default_radius(fam) if radius is None else float(radius)
    level = getattr(fam, "level", None)
    if level is not None and radius < level:
        raise ValueError("sampling radius must cover the truncation level")
    rng = np.random.default_rng(0)
    x0 = np.asarray(fam.x0, dtype=float)
    xs = _ball_sample(rng, x0, radius, FIT_SAMPLES, fam.dim)
    f = np.sum((xs - x0) ** 2, axis=-1) ** (p / 2)
    lf = generator_apply(fam, p, xs)

    near = f <= 1.0
    if not np.any(near) or not np.any(~near):
        raise ValueError("sample does not straddle the unit ball")
    gamma0 = float(np.max(lf[near]))
    alpha_raw = float(np.max((lf[~near] - gamma0) / f[~near]))

    candidates = np.geomspace(ALPHA_FLOOR, ALPHA_MAX, 49)
    if alpha_raw > ALPHA_FLOOR:
        candidates = np.append(candidates, alpha_raw)
    best = None
    for a in candidates:
        g = float(np.max(lf - a * f))
        ratio = g / a
        if best is None or ratio < best[2]:
            best = (float(a), g, ratio)
    alpha_p = best[0]
    gamma_p = _polished_gamma(fam, p, alpha_p, xs, lf - alpha_p * f, x0, radius)
    viol = generator_violations(fam, p, alpha_p, gamma_p, radius=radius)
    return GeneratorFit(alpha_p=alpha_p, gamma_p=gamma_p, alpha_raw=alpha_raw,
                        holdout_violations=viol)


# ---------------------------------------------------------------------------
# Bound reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    check: str
    param: str  # the row's `param` column, e.g. "zeta=0.1"
    lhs: float
    se: float
    rhs: float
    constants: dict = field(default_factory=dict)

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return bool(self.lhs <= self.rhs + 3 * self.se)


def _exp_etas(fam, fit, zetas) -> list:
    """eta = alpha2 + 2 C2 zeta + 1/zeta of the exp-moment bound, per zeta."""
    return [fit.alpha_p + 2 * fam.constants.c2 * zeta + 1.0 / zeta for zeta in zetas]


def exp_moment_check(fam, fit: GeneratorFit, zetas, sups) -> list[BoundReport]:
    """E[exp(sup_t zeta e^(-eta t)|X_t - x0|^2)] vs (8 C2 zeta^2 + 2) e^(-zeta gamma2/alpha2).

    eta = alpha2 + 2 C2 zeta + 1/zeta.  sups holds, one row per zeta, each
    path's zeta max_k e^(-eta t_k)|X_k - x0|^2: the max over grid times is a
    lower bound on the path sup, preserving the inequality direction of the
    LHS estimate.  One report per zeta, in zetas order, accumulated in log space.
    """
    c2 = fam.constants.c2
    reports = []
    for zeta, z in zip(zetas, sups):
        zmax = float(np.max(z))
        w = np.exp(z - zmax)
        lhs = float(np.exp(zmax + np.log(np.mean(w))))
        se = float(np.exp(zmax) * np.std(w, ddof=1) / np.sqrt(len(z)))
        rhs = float((8 * c2 * zeta ** 2 + 2) * np.exp(-zeta * fit.ratio))
        reports.append(BoundReport("exp_moment", f"zeta={zeta:g}", lhs, se, rhs,
                                   {"zeta": zeta, "alpha2_raw": fit.alpha_raw}))
    return reports


def tail_check(fam, fit: GeneratorFit, horizon, xt, y_offsets) -> list[BoundReport]:
    """P(X_T > x0 + off componentwise) vs (32 C2 + 2) e^(-2 gamma2/alpha2 - 2 e^(-eta T)|y-x0|^2).

    eta = alpha2 + 4 C2 + 1/2; xt holds each path's X_T.  One report per offset.
    """
    c2 = fam.constants.c2
    eta = fit.alpha_p + 4 * c2 + 0.5
    x0 = np.asarray(fam.x0, dtype=float)
    n_paths = len(xt)
    reports = []
    for off in y_offsets:
        y = x0 + float(off)
        hit = np.all(xt > y, axis=1)
        lhs = float(hit.mean())
        se = float(np.sqrt(max(lhs * (1 - lhs), 1.0 / n_paths) / n_paths))
        r2 = float(np.sum((y - x0) ** 2))
        rhs = float((32 * c2 + 2) * np.exp(-2 * fit.ratio - 2 * np.exp(-eta * horizon) * r2))
        reports.append(BoundReport("tail", f"y_off={float(off):g}", lhs, se, rhs,
                                   {"offset": float(off)}))
    return reports


def _spread(values, what) -> float:
    """(max - min) / max; a non-finite value or a max <= 0 is a degenerate
    covariance (a zero diffusion makes every value 0)."""
    values = np.asarray(values, dtype=float)
    if not (np.all(np.isfinite(values)) and values.max() > 0):
        raise DegenerateCovarianceError(f"{what} degenerate: level values {values.tolist()}")
    return float((values.max() - values.min()) / values.max())


def _distinct_levels(levels) -> list:
    """The truncation levels as a list; a spread or a difference over fewer
    than two distinct levels cannot fail, so it is a config error."""
    levels = list(levels)
    if len(set(levels)) < 2:
        raise ValueError(f"need at least two distinct truncation levels, got {levels}")
    return levels


def _first_exits(r, m):
    """Per path, the first step k whose radius r[k] (N, B) exceeds m, the
    clamp's own mask (`_outside`), or N if none does."""
    out = r > m
    first = np.full(out.shape[1], len(out))
    idx = np.flatnonzero(out.any(axis=0))
    first[idx] = out[:, idx].argmax(axis=0)
    return first


def _cov_values(fam, grid, dW, p_list, ks):
    """Euler states of a `flow` pass on dW and its per-path values, one row
    per p of (tr Q_T)^(p/2), then one per k of |Q(t_k)|_F^2, Q(t_k) = dt S_k."""
    X, *_, S = flow(fam, grid.dt, dW)
    h2 = np.trace(grid.dt * S[:, -1], axis1=-2, axis2=-1)
    rows = [h2 ** (p / 2) for p in p_list]
    rows += [np.sum((grid.dt * S[:, k]) ** 2, axis=(1, 2)) for k in ks]
    return X, np.array(rows)


def _sup_exponents(fam, grid, zetas, etas, X):
    """Per zeta (rows) and path: zeta max_k e^(-eta t_k)|X_k - x0|^2."""
    r2 = np.sum((X - np.asarray(fam.x0, dtype=float)) ** 2, axis=-1)
    return np.array([zeta * np.max(np.exp(-eta * grid.times) * r2, axis=1)
                     for zeta, eta in zip(zetas, etas)])


def _cov_chunk(fam, sweep, grid, seed, zetas, etas, p_list, ks, lo, hi):
    """(sums, sups, xt) of one noise draw: per sweep level the sums of the
    `_cov_values` rows; at fam's level the sup exponents of `exp_moment_check`
    and X_T.  The levels are swept from the top down with the exit rule of
    `_convergence_chunk`: a lower level m re-runs only the paths whose top
    pass leaves the m-ball (`_first_exits`), from step 0 (the S recursion
    starts there), and a level no path leaves runs nothing.  All is bitwise a
    full pass per level.
    """
    dW = sample_noise_block(grid, seed, lo, hi, fam.dim)
    X, vals = _cov_values(TruncationFamily(fam.base, sweep[-1]), grid, dW, p_list, ks)
    r = _real_radius(np.swapaxes(X, 0, 1)[:-1])  # (N, B), step major
    exits = [np.flatnonzero(_first_exits(r, m) < grid.steps) for m in sweep[:-1]]
    del r  # the re-runs need only the index arrays
    sums = []
    for n, idx in zip(sweep[::-1], [[]] + exits[::-1]):  # the top re-runs nothing
        if len(idx):
            X[idx], vals[:, idx] = _cov_values(TruncationFamily(fam.base, n), grid,
                                               dW[idx], p_list, ks)
        sums.append([v.sum() for v in vals])
        if n == fam.level:  # lower levels overwrite X
            sups, xt = _sup_exponents(fam, grid, zetas, etas, X), X[:, -1].copy()
    return np.array(sums[::-1]), sups, xt


def dnorm_check(values, p, levels) -> BoundReport:
    """The uniformity-in-n row of E[(tr Q_T)^(p/2)], one value per level;
    tr Q_T = sum_k dt |G_k|_F^2 is the squared norm of the Malliavin
    derivative.  Passes iff the spread across levels is <= 10%."""
    return BoundReport("dnorm", f"p={p}", _spread(values, "dnorm moment"), 0.0, SPREAD_LIMIT,
                       {"p": p, "levels": list(levels), "values": [float(v) for v in values]})


def covQ_moment_check(fam, levels, grid: TimeGrid, n_paths: int, fit: GeneratorFit,
                      zetas, y_offsets, p_list, seed=0, chunk=16384,
                      workers=1) -> list[BoundReport]:
    """The exp_moment rows at fam's level (`exp_moment_check`), the tail rows
    (`tail_check`), the dnorm rows (`dnorm_check`), then the covQ row:
    E[|Q_n(t)|_F^2] across levels n and times t = k dt, k = max(1, round(N
    frac)) for each of COVQ_TIME_FRACTIONS.  One noise draw per chunk and one
    top-down sweep over the levels and fam's own (`_cov_chunk`) serve them
    all; a lower level re-runs only the paths that leave its ball, read off
    the top pass by the exit rule `truncation_convergence` uses
    (`_first_exits`).  dnorm and covQ values follow the order of `levels`,
    duplicates included.  The covQ lhs is the worst spread across n over the
    times.
    """
    levels = _distinct_levels(levels)
    if any(p not in (2, 4) for p in p_list):
        raise ValueError("p must be 2 or 4")
    ks = [max(1, round(grid.steps * frac)) for frac in COVQ_TIME_FRACTIONS]
    sweep = sorted(set(levels) | {fam.level})
    task = functools.partial(_cov_chunk, fam, sweep, grid, seed, zetas,
                             _exp_etas(fam, fit, zetas), p_list, ks)
    sums, sups, xt = zip(*map_chunks(task, n_paths, chunk, workers))
    reports = exp_moment_check(fam, fit, zetas, np.concatenate(sups, axis=1))
    reports += tail_check(fam, fit, grid.horizon, np.concatenate(xt), y_offsets)
    means = np.sum(sums, axis=0) / n_paths
    cols = means[[sweep.index(n) for n in levels]].T
    reports += [dnorm_check(vals, p, levels) for p, vals in zip(p_list, cols)]
    table = {f"t={grid.dt * k:g}": [float(v) for v in vals]
             for k, vals in zip(ks, cols[len(p_list):])}
    lhs = max(_spread(vals, "covariance moment") for vals in cols[len(p_list):])
    return reports + [BoundReport("covQ", "frobenius", lhs, 0.0, SPREAD_LIMIT,
                                  {"levels": list(levels), "table": table})]


# ---------------------------------------------------------------------------
# Inverse-covariance moment scaling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvCovScaling:
    p_list: tuple
    slopes: np.ndarray        # fitted d log E[det Q^-p] / d log t
    ess_warnings: list


def _logsumexp(a: np.ndarray) -> float:
    """log sum exp(a) of a finite 1-d array, shifted by its max.  As in
    scipy.special.logsumexp, the m terms equal to the max are split out of
    the sum: log1p(s / m) + log(m) + max."""
    a_max = np.max(a)
    is_max = a == a_max
    m = float(np.count_nonzero(is_max))
    s = np.sum(np.exp(np.where(is_max, -np.inf, a) - a_max))
    return float(np.log1p(s / m) + np.log(m) + a_max)


def _logdet_chunk(fam, times, steps, seed, lo, hi):
    """log det Q(t) of paths lo..hi-1, one row per t.  One standard normal
    draw, times sqrt(dt), is bitwise each t's `sample_noise_block` draw."""
    z = gaussian_increments(seed, lo, hi, steps, fam.dim, 1.0)
    rows = []
    for t in times:
        dt = TimeGrid(float(t), steps).dt
        sign, ld = np.linalg.slogdet(dt * flow(fam, dt, z * np.sqrt(dt))[-1][:, -1])
        if np.any(sign <= 0):
            raise DegenerateCovarianceError(
                "nonpositive covariance determinant encountered")
        rows.append(ld)
    return np.array(rows)


def invcov_moment_scaling(fam, times, p_list, n_paths: int, steps: int = 32,
                          seed=0, chunk=16384, workers=1) -> InvCovScaling:
    """log-log scaling of E[det Q(t)^(-p)] in t, one fitted slope per p.

    One noise draw per chunk serves every t (`_logdet_chunk`).  Moments are
    accumulated in log space.  A warning is recorded whenever the top 1% of
    terms carries more than half of a moment's sum (heavy-tail
    effective-sample-size alarm).
    """
    times = np.asarray(times, dtype=float)
    if times.max() / times.min() < 10 - 1e-9:
        raise ValueError("time grid must span at least a decade")
    p_list = tuple(p_list)
    task = functools.partial(_logdet_chunk, fam, times, steps, seed)
    lds = np.concatenate(map_chunks(task, n_paths, chunk, workers), axis=1)
    log_m = np.empty((len(p_list), len(times)))
    ess_warnings = []
    for j, (t, ld) in enumerate(zip(times, lds)):
        for i, p in enumerate(p_list):
            terms = -p * ld
            log_m[i, j] = _logsumexp(terms) - np.log(len(terms))
            top = np.sort(terms)[-max(1, len(terms) // 100):]
            share = np.exp(_logsumexp(top) - _logsumexp(terms))
            if share > 0.5:
                ess_warnings.append((float(t), float(p), float(share)))
                warnings.warn(
                    f"det Q^-{p} at t={t:g}: top 1% of terms carries "
                    f"{share:.0%} of the moment", RuntimeWarning, stacklevel=2)
    slopes = np.array([np.polyfit(np.log(times), log_m[i], 1)[0]
                       for i in range(len(p_list))])
    return InvCovScaling(p_list=p_list, slopes=slopes, ess_warnings=ess_warnings)


def invcov_exact_slope(model, times, p, steps: int) -> float:
    """The log-log slope of E[det Q(t)^(-p)] for Brownian or OU dynamics,
    where Q(t) is deterministic: the Euler chain's covariance, diagonal with
    the variances of `gaussian_law`, so log E[det Q^-p] = -p sum_i log var_i."""
    times = np.asarray(times, dtype=float)
    log_m = [-p * np.sum(np.log(gaussian_law(model, t, steps=steps)[1])) for t in times]
    return float(np.polyfit(np.log(times), log_m, 1)[0])


def invcov_slope_checks(fam, times, p_list, n_paths: int, steps: int, seed=0,
                        workers=1) -> list:
    """The invcov_slope rows (check, N, param, lhs, se, rhs, margin, pass) of an
    `invcov_moment_scaling` fit, one per p; param names the displayed exponents.

    For Brownian or OU dynamics the slope is fitted on the untruncated base,
    whose Q(t) is deterministic, so it must be `invcov_exact_slope` (the rhs)
    up to round-off: the margin is the tolerance left, `_INVCOV_SLOPE_RTOL
    max(1, |rhs|) - |lhs - rhs|`, and the row passes iff it is >= 0.  The
    nonlinear models are fitted on fam, whose Q is random, and no exact slope
    is known: those rows report the constant-sigma exponent -d p as rhs,
    margin rhs - lhs, and pass.
    """
    linear = isinstance(fam.base, OrnsteinUhlenbeckModel)
    process = fam.base if linear else fam
    scaling = invcov_moment_scaling(process, times, p_list, n_paths, steps=steps,
                                    seed=seed, workers=workers)
    rows = []
    for p, slope in zip(scaling.p_list, scaling.slopes):
        refs = invcov_reference_slopes(fam.dim, p)
        if linear:
            rhs = invcov_exact_slope(process, times, p, steps)
            margin = _INVCOV_SLOPE_RTOL * max(1.0, abs(rhs)) - abs(slope - rhs)
            passed = bool(margin >= 0)
        else:
            rhs, passed = refs["constant_sigma"], True
            margin = rhs - slope
        param = f"p={p};hyp={refs['moment_hypothesis']:g};app={refs['appendix_lemma']:g}"
        rows.append(("invcov_slope", steps, param, slope, 0.0, rhs, margin, passed))
    return rows


def invcov_reference_slopes(dim: int, p: float) -> dict:
    """The three displayed exponents the fitted slope is compared against."""
    return {
        "constant_sigma": -dim * p,
        "moment_hypothesis": -dim * (p - 0.5),
        "appendix_lemma": -dim * (p - 0.5) - 2,
    }


def bound_checks(fam, levels, grid: TimeGrid, n_paths: int, seed, zetas, y_offsets,
                 p_list, t_grid, invcov_steps: int, workers=1) -> list:
    """Every `bounds.csv` row as (check, N, param, lhs, se, rhs, margin, pass).

    First the generator_fit row: the holdout violations of fam's fitted
    constants (`fit_generator_constants`, p = 2) against rhs 0, so any
    violation fails it.  Then the `covQ_moment_check` rows on those
    constants at grid.steps, and the `invcov_slope_checks` rows at
    invcov_steps.  An SE needs n_paths >= 2.
    """
    if n_paths < 2:
        raise ValueError(f"bounds needs at least 2 paths, got {n_paths}")
    fit = fit_generator_constants(fam, 2)
    param = f"alpha={fit.alpha_p:g};raw={fit.alpha_raw:g};gamma={fit.gamma_p:g}"
    reports = [BoundReport("generator_fit", param, float(fit.holdout_violations), 0.0, 0.0)]
    reports += covQ_moment_check(fam, levels, grid, n_paths, fit, zetas, y_offsets,
                                 p_list, seed=seed, workers=workers)
    rows = [(rep.check, grid.steps, rep.param, rep.lhs, rep.se, rep.rhs, rep.margin,
             rep.passed) for rep in reports]
    return rows + invcov_slope_checks(fam, t_grid, p_list, n_paths, invcov_steps,
                                      seed=seed, workers=workers)


# ---------------------------------------------------------------------------
# Truncation convergence
# ---------------------------------------------------------------------------

def _convergence_chunk(base, levels, grid, seed, p, lo, hi):
    """Per consecutive level pair, the chunk's sum of max_k |X^{n_i} - X^{n_{i+1}}|^p.

    One noise draw drives every level, swept from the top down: one full Euler
    pass at the highest level, then at each lower level m each path is re-run
    (`euler_rerun`) only from its first step k0 outside the ball of radius m.
    b_m = b_n bitwise inside that ball, so up to k0 the path is bitwise the
    same at every level above m, and a path that never leaves adds exactly
    0.0 to the sum, as a full pass would.  Each level above m keeps the path
    unchanged up to its own first exit, where the path is outside the m-ball
    already, so k0 is read off the top level's radii for every m.  One state
    array is held; re-runs overwrite it.
    """
    dW = sample_noise_block(grid, seed, lo, hi, base.dim)
    X = euler_states(TruncationFamily(base, levels[-1]), grid.dt, dW)
    r = _real_radius(np.swapaxes(X, 0, 1)[:-1])  # (N, B), step major
    sums = []
    for m in reversed(levels[:-1]):
        d = euler_rerun(TruncationFamily(base, m), grid.dt, dW, X, _first_exits(r, m))
        sums.append(float(np.sum(d ** p)))
    return sums[::-1]


def truncation_convergence(base, levels, grid: TimeGrid, n_paths: int, p: int = 2,
                           seed=0, chunk=16384, workers=1):
    """E[max_k |X^{n_i} - X^{n_{i+1}}|^p]^(1/p) for consecutive coupled levels.

    Each chunk sweeps the levels from the top down and re-simulates at a lower
    level only the paths that leave its ball, each from its first step
    outside it (`_convergence_chunk`); the sums are bitwise those of a full
    Euler pass per level.  Returns ("truncation", "n_lo->n_hi", N, value,
    passed) rows in level order, the row shape of `step_halving_checks`; a
    row fails iff its value exceeds the previous row's by > 1e-15.  Needs
    n_paths >= 2, the floor of `bound_checks`.
    """
    if n_paths < 2:
        raise ValueError(f"converge needs at least 2 paths, got {n_paths}")
    levels = _distinct_levels(levels)
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    if not p >= 1:
        raise ValueError("p must be >= 1")
    task = functools.partial(_convergence_chunk, base, levels, grid, seed, p)
    parts = map_chunks(task, n_paths, chunk, workers)
    vals = [float((sum(col) / n_paths) ** (1.0 / p)) for col in zip(*parts)]
    passed = [True] + [b <= a + 1e-15 for a, b in zip(vals, vals[1:])]
    return [("truncation", f"{n1:g}->{n2:g}", grid.steps, val, ok)
            for n1, n2, val, ok in zip(levels, levels[1:], vals, passed)]


def step_halving_checks(model, grid: TimeGrid, halving_steps) -> list:
    """(study, param, N, value, passed) rows of the Euler chain's weak error
    max|mean_N - mean| + max|var_N - var| (`gaussian_law`), one "halving"
    row per step count, then, given two or more errors, all nonzero, the
    "halving_slope" row: their log-log slope in dt, which passes iff within
    0.3 of 1.  Only Brownian and OU dynamics have the law to get rows."""
    if not isinstance(model, OrnsteinUhlenbeckModel):
        return []
    mean, var = gaussian_law(model, grid.horizon)
    laws = [gaussian_law(model, grid.horizon, steps=steps) for steps in halving_steps]
    errs = [float(np.max(np.abs(m - mean)) + np.max(np.abs(v - var))) for m, v in laws]
    rows = [("halving", f"N={steps}", steps, err, True)
            for steps, err in zip(halving_steps, errs)]
    if len(errs) >= 2 and min(errs) > 0:
        hs = np.asarray(halving_steps, dtype=float)
        order = float(np.polyfit(np.log(grid.horizon / hs), np.log(errs), 1)[0])
        rows.append(("halving_slope", "dt_order", grid.steps, order,
                     abs(order - 1.0) <= 0.3))
    return rows

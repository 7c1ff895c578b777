"""Empirical verification harness for moment, exponential, and tail bounds.

Constants are fitted from each model (generator domination fit), then every
bound is checked by Monte Carlo against its displayed right-hand side.  Where
a bound carries unknown absolute constants, the check is split into a
scaling-exponent fit and a uniformity-in-truncation-level spread check, which
are constant-free.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize
from scipy.special import logsumexp

from .malliavin import DegenerateCovarianceError, chain_batch
from .models import TruncationFamily, generator_apply
from .parallel import map_chunks
from .simulate import TimeGrid, euler_states, sample_noise_block

ALPHA_FLOOR = 0.01
SPREAD_LIMIT = 0.10


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

    p: int
    alpha_p: float
    gamma_p: float
    alpha_raw: float
    gamma0: float
    radius: float
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


def generator_violations(fam, p, alpha, gamma, n_samples=10000, radius=None,
                         seed=1, tol=1e-9) -> int:
    """Count of sampled points where L_n f > alpha f + gamma + tol."""
    radius = _default_radius(fam) if radius is None else float(radius)
    rng = np.random.default_rng(seed)
    x0 = np.asarray(fam.x0, dtype=float)
    xs = _ball_sample(rng, x0, radius, n_samples, fam.dim)
    f = np.sum((xs - x0) ** 2, axis=-1) ** (p / 2)
    lf = generator_apply(fam, p, xs)
    return int(np.count_nonzero(lf > alpha * f + gamma + tol))


def _polished_gamma(fam, p, alpha, xs, surplus, x0, radius):
    """max over the ball of L_n f - alpha f, refined beyond the sample max.

    Local maximization from the best sample points (clipped to the ball)
    closes the gap between the sample max and the true max, so fresh holdout
    samples cannot violate the fitted inequality.
    """
    def neg(x):
        y = x - x0
        r = np.linalg.norm(y)
        if r > radius:
            x = x0 + y * (radius / r)
        fx = float(np.sum((x - x0) ** 2) ** (p / 2))
        return -(float(generator_apply(fam, p, x)) - alpha * fx)

    order = np.argsort(surplus)[::-1]
    best = float(np.max(surplus))
    for i in order[:8]:
        res = minimize(neg, xs[i], method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12,
                                "maxiter": 2000})
        best = max(best, -float(res.fun))
    return best + 1e-10 * max(1.0, abs(best))


def _default_radius(fam):
    level = getattr(fam, "level", None)
    return float(level) + 2.0 if level is not None else 8.0


def fit_generator_constants(fam, p=2, radius=None, n_samples=4000, seed=0,
                            alpha_floor=ALPHA_FLOOR, alpha_max=64.0) -> GeneratorFit:
    """Fit (alpha_p, gamma_p) with L_n|x-x0|^p <= alpha_p|x-x0|^p + gamma_p.

    Two passes: (1) minimal-slope fit alpha_raw = max over samples with
    f >= 1 of (L_n f - gamma0)/f, where gamma0 = max L_n f on the unit ball;
    (2) grid over candidate alpha >= alpha_floor, each paired with its
    minimal feasible gamma(alpha) = max(L_n f - alpha f), keeping the pair
    with the smallest gamma/alpha.  The fitted pair is validated on a fresh
    holdout sample.
    """
    radius = _default_radius(fam) if radius is None else float(radius)
    level = getattr(fam, "level", None)
    if level is not None and radius < level:
        raise ValueError("sampling radius must cover the truncation level")
    rng = np.random.default_rng(seed)
    x0 = np.asarray(fam.x0, dtype=float)
    xs = _ball_sample(rng, x0, radius, n_samples, fam.dim)
    f = np.sum((xs - x0) ** 2, axis=-1) ** (p / 2)
    lf = generator_apply(fam, p, xs)

    near = f <= 1.0
    if not np.any(near) or not np.any(~near):
        raise ValueError("sample does not straddle the unit ball")
    gamma0 = float(np.max(lf[near]))
    alpha_raw = float(np.max((lf[~near] - gamma0) / f[~near]))

    candidates = np.geomspace(alpha_floor, alpha_max, 49)
    if alpha_raw > alpha_floor:
        candidates = np.append(candidates, alpha_raw)
    best = None
    for a in candidates:
        g = float(np.max(lf - a * f))
        ratio = g / a
        if best is None or ratio < best[2]:
            best = (float(a), g, ratio)
    alpha_p = best[0]
    gamma_p = _polished_gamma(fam, p, alpha_p, xs, lf - alpha_p * f, x0, radius)
    viol = generator_violations(fam, p, alpha_p, gamma_p,
                                radius=radius, seed=seed + 1)
    return GeneratorFit(p=int(p), alpha_p=alpha_p, gamma_p=gamma_p,
                        alpha_raw=alpha_raw, gamma0=gamma0, radius=radius,
                        holdout_violations=viol)


# ---------------------------------------------------------------------------
# Bound reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    check: str
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


def _sup_exponent_chunk(fam, grid, seed, zeta, eta, lo, hi):
    dW = sample_noise_block(grid, seed, lo, hi, fam.dim)
    X = euler_states(fam, grid.dt, dW)
    x0 = np.asarray(fam.x0, dtype=float)
    r2 = np.sum((X - x0) ** 2, axis=-1)
    damp = np.exp(-eta * grid.times)
    return zeta * np.max(damp * r2, axis=1)


def exp_moment_check(fam, grid: TimeGrid, n_paths: int, zeta: float,
                     fit: GeneratorFit, seed=0, chunk=16384, workers=1) -> BoundReport:
    """E[exp(sup_t zeta e^(-eta t)|X_t - x0|^2)] vs (8 C2 zeta^2 + 2) e^(-zeta gamma2/alpha2).

    eta = alpha2 + 2 C2 zeta + 1/zeta.  The sup is realized as the max over
    grid times (a lower bound on the path sup, preserving the inequality
    direction of the LHS estimate).  Accumulation is done in log space.
    """
    c2 = fam.constants.c2
    eta = fit.alpha_p + 2 * c2 * zeta + 1.0 / zeta
    task = functools.partial(_sup_exponent_chunk, fam, grid, seed, zeta, eta)
    z = np.concatenate(map_chunks(task, n_paths, chunk, workers))
    zmax = float(np.max(z))
    w = np.exp(z - zmax)
    lhs = float(np.exp(zmax + np.log(np.mean(w))))
    se = float(np.exp(zmax) * np.std(w, ddof=1) / np.sqrt(len(z)))
    rhs = float((8 * c2 * zeta ** 2 + 2) * np.exp(-zeta * fit.ratio))
    return BoundReport(
        check="exp_moment", lhs=lhs, se=se, rhs=rhs,
        constants={"zeta": zeta, "eta": eta, "c2": c2,
                   "alpha2": fit.alpha_p, "gamma2": fit.gamma_p,
                   "alpha2_raw": fit.alpha_raw})


def _terminal_chunk(fam, grid, seed, lo, hi):
    dW = sample_noise_block(grid, seed, lo, hi, fam.dim)
    return euler_states(fam, grid.dt, dW)[:, -1, :]


def tail_check(fam, grid: TimeGrid, n_paths: int, y_offsets, fit: GeneratorFit,
               seed=0, chunk=16384, workers=1) -> list[BoundReport]:
    """P(X_T > x0 + off componentwise) vs (32 C2 + 2) e^(-2 gamma2/alpha2 - 2 e^(-eta T)|y-x0|^2).

    eta = alpha2 + 4 C2 + 1/2.  One report per offset.
    """
    c2 = fam.constants.c2
    eta = fit.alpha_p + 4 * c2 + 0.5
    x0 = np.asarray(fam.x0, dtype=float)
    task = functools.partial(_terminal_chunk, fam, grid, seed)
    xt = np.concatenate(map_chunks(task, n_paths, chunk, workers), axis=0)
    reports = []
    for off in y_offsets:
        y = x0 + float(off)
        hit = np.all(xt > y, axis=1)
        lhs = float(hit.mean())
        se = float(np.sqrt(max(lhs * (1 - lhs), 1.0 / n_paths) / n_paths))
        r2 = float(np.sum((y - x0) ** 2))
        rhs = float((32 * c2 + 2) * np.exp(-2 * fit.ratio - 2 * np.exp(-eta * grid.horizon) * r2))
        reports.append(BoundReport(
            check="tail", lhs=lhs, se=se, rhs=rhs,
            constants={"offset": float(off), "eta": eta, "c2": c2,
                       "alpha2": fit.alpha_p, "gamma2": fit.gamma_p}))
    return reports


def _dnorm_chunk(fam, grid, seed, p_list, lo, hi):
    dW = sample_noise_block(grid, seed, lo, hi, fam.dim)
    ch = chain_batch(fam, grid.dt, dW, want_weight_terms=False)
    h2 = grid.dt * np.sum(ch.G ** 2, axis=(1, 2, 3))
    vs = [h2 ** (p / 2) for p in p_list]
    return np.array([[v.sum(), (v * v).sum(), len(v)] for v in vs]).reshape(-1, 3)


def _spread(values, what) -> float:
    """(max - min) / max; a non-finite value or a max <= 0 is a degenerate
    covariance (a zero diffusion makes every value 0)."""
    values = np.asarray(values, dtype=float)
    if not (np.all(np.isfinite(values)) and values.max() > 0):
        raise DegenerateCovarianceError(f"{what} degenerate: level values {values.tolist()}")
    return float((values.max() - values.min()) / values.max())


def _spread_report(check, values, extra) -> BoundReport:
    spread = _spread(values, f"{check} moment")
    consts = dict(extra)
    consts["values"] = [float(v) for v in values]
    return BoundReport(check=check, lhs=spread, se=0.0, rhs=SPREAD_LIMIT,
                       constants=consts)


def dnorm_check(base, levels, grid: TimeGrid, n_paths: int, p_list,
                seed=0, chunk=16384, workers=1) -> list[BoundReport]:
    """Uniformity in n of E[(sum_k dt |G_k|^2)^(p/2)] at t = T, p in {2, 4}.

    One chain pass per level serves every p.  One report per p, in p_list
    order; each passes iff its spread across truncation levels is <= 10%.
    """
    p_list = list(p_list)
    if any(p not in (2, 4) for p in p_list):
        raise ValueError("p must be 2 or 4")
    means = []
    for n in levels:
        fam = TruncationFamily(base, n)
        task = functools.partial(_dnorm_chunk, fam, grid, seed, p_list)
        s = np.sum(map_chunks(task, n_paths, chunk, workers), axis=0)
        means.append(s[:, 0] / s[:, 2])
    return [_spread_report("dnorm", [m[i] for m in means],
                           {"p": p, "levels": list(levels)})
            for i, p in enumerate(p_list)]


def _covq_chunk(fam, grid, seed, lo, hi):
    dW = sample_noise_block(grid, seed, lo, hi, fam.dim)
    ch = chain_batch(fam, grid.dt, dW, want_weight_terms=False)
    q2 = np.sum(ch.Q ** 2, axis=(1, 2))
    return np.array([q2.sum(), len(q2)])


def covQ_moment_check(base, levels, grid: TimeGrid, n_paths: int,
                      time_fractions=(0.25, 0.5, 1.0), seed=0, chunk=16384,
                      workers=1) -> BoundReport:
    """E[|Q_n(t)|_F^2] across truncation levels and grid times.

    All values must be finite; the spread across n at each time must be
    <= 10%.  The report's lhs is the worst spread; constants carry the table.
    """
    table = {}
    spreads = []
    for frac in time_fractions:
        steps = max(1, round(grid.steps * frac))
        sub = TimeGrid(grid.dt * steps, steps)
        vals = []
        for n in levels:
            fam = TruncationFamily(base, n)
            task = functools.partial(_covq_chunk, fam, sub, seed)
            s = np.sum(map_chunks(task, n_paths, chunk, workers), axis=0)
            vals.append(s[0] / s[1])
        table[f"t={sub.horizon:g}"] = [float(v) for v in vals]
        spreads.append(_spread(vals, "covariance moment"))
    lhs = max(spreads)
    return BoundReport(check="covQ", lhs=lhs, se=0.0, rhs=SPREAD_LIMIT,
                       constants={"levels": list(levels), "table": table})


# ---------------------------------------------------------------------------
# Inverse-covariance moment scaling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvCovScaling:
    times: np.ndarray
    p_list: tuple
    log_moments: np.ndarray   # (len(p_list), len(times)), natural log
    slopes: np.ndarray        # fitted d log E[det Q^-p] / d log t
    ess_warnings: list


def _logdet_chunk(fam, grid, seed, lo, hi):
    dW = sample_noise_block(grid, seed, lo, hi, fam.dim)
    ch = chain_batch(fam, grid.dt, dW, want_weight_terms=False)
    sign, ld = np.linalg.slogdet(ch.Q)
    if np.any(sign <= 0):
        raise DegenerateCovarianceError(
            "nonpositive covariance determinant encountered")
    return ld


def invcov_moment_scaling(fam, times, p_list, n_paths: int, steps: int = 32,
                          seed=0, chunk=16384, workers=1) -> InvCovScaling:
    """log-log scaling of E[det Q(t)^(-p)] in t, one fitted slope per p.

    Moments are accumulated in log space.  A warning is recorded whenever the
    top 1% of terms carries more than half of a moment's sum (heavy-tail
    effective-sample-size alarm).
    """
    times = np.asarray(times, dtype=float)
    if times.max() / times.min() < 10 - 1e-9:
        raise ValueError("time grid must span at least a decade")
    p_list = tuple(p_list)
    log_m = np.empty((len(p_list), len(times)))
    ess_warnings = []
    for j, t in enumerate(times):
        grid = TimeGrid(float(t), steps)
        task = functools.partial(_logdet_chunk, fam, grid, seed)
        ld = np.concatenate(map_chunks(task, n_paths, chunk, workers))
        for i, p in enumerate(p_list):
            terms = -p * ld
            log_m[i, j] = logsumexp(terms) - np.log(len(terms))
            top = np.sort(terms)[-max(1, len(terms) // 100):]
            share = np.exp(logsumexp(top) - logsumexp(terms))
            if share > 0.5:
                ess_warnings.append((float(t), float(p), float(share)))
                warnings.warn(
                    f"det Q^-{p} at t={t:g}: top 1% of terms carries "
                    f"{share:.0%} of the moment", RuntimeWarning, stacklevel=2)
    slopes = np.array([np.polyfit(np.log(times), log_m[i], 1)[0]
                       for i in range(len(p_list))])
    return InvCovScaling(times=times, p_list=p_list, log_moments=log_m,
                         slopes=slopes, ess_warnings=ess_warnings)


def invcov_reference_slopes(dim: int, p: float) -> dict:
    """The three displayed exponents the fitted slope is compared against."""
    return {
        "constant_sigma": -dim * p,
        "moment_hypothesis": -dim * (p - 0.5),
        "appendix_lemma": -dim * (p - 0.5) - 2,
    }


# ---------------------------------------------------------------------------
# Truncation convergence
# ---------------------------------------------------------------------------

def _convergence_chunk(base, levels, grid, seed, p, lo, hi):
    """Per consecutive level pair, the chunk's sum of max_k |X^{n_i} - X^{n_{i+1}}|^p;
    one noise draw drives every level, and two levels' states are held at most."""
    dW = sample_noise_block(grid, seed, lo, hi, base.dim)
    prev = euler_states(TruncationFamily(base, levels[0]), grid.dt, dW)
    sums = []
    for n in levels[1:]:
        X = euler_states(TruncationFamily(base, n), grid.dt, dW)
        d = np.max(np.linalg.norm(prev - X, axis=-1), axis=1)
        sums.append(float(np.sum(d ** p)))
        prev = X
    return sums


def truncation_convergence(base, levels, grid: TimeGrid, n_paths: int, p: int = 2,
                           seed=0, chunk=16384, workers=1):
    """E[max_k |X^{n_i} - X^{n_{i+1}}|^p]^(1/p) for consecutive coupled levels.

    Returns a list of (n_lo, n_hi, value) rows, in level order.
    """
    levels = list(levels)
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    task = functools.partial(_convergence_chunk, base, levels, grid, seed, p)
    parts = map_chunks(task, n_paths, chunk, workers)
    return [(n1, n2, float((sum(col) / n_paths) ** (1.0 / p)))
            for n1, n2, col in zip(levels, levels[1:], zip(*parts))]

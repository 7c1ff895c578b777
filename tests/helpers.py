"""Estimators and references the tests share that the package itself does not need."""

import numpy as np
from scipy.optimize import minimize

from malsde.density import _orthant_estimates, count_drops, full_alpha, weight_samples
from malsde.models import generator_apply
from malsde.simulate import TimeGrid


def density_mc(fam, grid: TimeGrid, n_paths: int, seed: int, ys, alpha=(),
               chunk: int = 8192, workers: int = 1):
    """Weight-based estimate of d_alpha rho at the grid points ys; alpha = ()
    gives the density itself, and |alpha| + dim <= 2.

    Returns (estimates, standard_errors, n_dropped).
    """
    xn, h, valid = weight_samples(fam, grid, n_paths, seed,
                                  [full_alpha(fam.dim, alpha)], chunk, workers)
    dropped = count_drops(valid, n_paths)
    est, se = _orthant_estimates(xn, h[0], valid, ys, alpha)
    return est, se, dropped


def one_point_surplus(fam, p, alpha, x0, radius, x):
    """The reference for `malsde.bounds._clipped_surplus` at one point x:
    (L_n f - alpha f at x pulled onto the ball, whether x left the ball)."""
    y = x - x0
    r = np.linalg.norm(y)
    if r > radius:
        x = x0 + y * (radius / r)
    fx = float(np.sum((x - x0) ** 2) ** (p / 2))
    return float(generator_apply(fam, p, x)) - alpha * fx, bool(r > radius)


def scipy_polished_gamma(fam, p, alpha, xs, surplus, x0, radius):
    """The reference for `malsde.bounds._polished_gamma`: one
    `scipy.optimize.minimize` Nelder-Mead search per start, on one point at a
    time.  Returns (gamma, the number of evaluations clipped to the ball)."""
    clipped = 0

    def neg(x):
        nonlocal clipped
        value, out = one_point_surplus(fam, p, alpha, x0, radius, x)
        clipped += out
        return -value

    order = np.argsort(surplus)[::-1]
    best = float(np.max(surplus))
    for i in order[:8]:
        res = minimize(neg, xs[i], method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000})
        best = max(best, -float(res.fun))
    return best + 1e-10 * max(1.0, abs(best)), clipped

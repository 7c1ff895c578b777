"""Estimators the tests share that the package itself does not need."""

from malsde.density import _orthant_estimates, count_drops, full_alpha, weight_samples
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

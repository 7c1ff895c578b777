"""Reference computations made apart from `malsde`.

* `EulerLaw`: the exact law of a 1-D Euler chain X_{k+1} = X_k + b(X_k) dt
  + s(X_k) dW_k, by iterating its Gaussian transition kernel
  (Chapman-Kolmogorov) on a fine grid.  The last step is applied in closed
  form, so the density, its derivative and the survival function at any
  point are sums of Gaussians.
* The truncated double-well drift and a coupled multi-level Euler
  recomputation for `converge`.
* The generator L|x - x0|^2 of the 1-D double well, in closed form.

Only numpy and the standard library are used here; the increments fed to the
coupled recomputation come from the caller.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT2PI = math.sqrt(2.0 * math.pi)


def clamp_1d(x, level):
    """Radial clamp in one dimension: identity on |x| <= level,
    sign(x) (level + tanh(|x| - level)) beyond."""
    ax = np.abs(x)
    return np.where(ax > level, np.sign(x) * (level + np.tanh(ax - level)), x)


def double_well_drift(x, level=None):
    """b(x) = x - x^3, evaluated at the clamped point when `level` is set."""
    k = x if level is None else clamp_1d(x, level)
    return k - k * k * k


def _phi(z):
    return np.exp(-0.5 * z * z) / _SQRT2PI


def _upper_tail(z):
    return 0.5 * np.vectorize(math.erfc)(z / math.sqrt(2.0))


class EulerLaw:
    """Law of X_N for a 1-D Euler chain started at x0.

    The density of X_{N-1} is carried on the grid [lo, hi] with spacing h
    (trapezoid weights); X_N given X_{N-1} = x is Gaussian with mean
    x + b(x) dt and standard deviation s(x) sqrt(dt).
    """

    def __init__(self, drift, diffusion, x0, horizon, steps,
                 lo=-6.0, hi=6.0, h=0.01):
        dt = horizon / steps
        self.sqdt = math.sqrt(dt)

        def step(x):
            x = np.asarray(x, dtype=float)
            return x + drift(x) * dt, np.abs(diffusion(x)) * self.sqdt

        if steps == 1:
            nodes, mass = np.array([float(x0)]), np.array([1.0])
        else:
            nodes = np.arange(lo, hi + 0.5 * h, h)
            m0, s0 = step(np.array([float(x0)]))
            p = _phi((nodes - m0) / s0) / s0  # density of X_1
            mean, sd = step(nodes)
            # kernel[j, i] = h * density of X_{k+1} = nodes[j] given nodes[i]
            kernel = _phi((nodes[:, None] - mean[None, :]) / sd[None, :]) \
                * (h / sd[None, :])
            for _ in range(steps - 2):
                p = kernel @ p
            mass = p * h
        self.lost_mass = abs(1.0 - float(mass.sum()))
        if self.lost_mass > 1e-7:
            raise ValueError(f"grid [{lo}, {hi}] loses {self.lost_mass:.2e} "
                             "of the probability mass")
        self.mass = mass
        self.mean, self.sd = step(nodes)

    def _z(self, y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return (y[:, None] - self.mean[None, :]) / self.sd[None, :]

    def density(self, y):
        return (_phi(self._z(y)) / self.sd) @ self.mass

    def derivative(self, y):
        z = self._z(y)
        return (-z * _phi(z) / self.sd ** 2) @ self.mass

    def survival(self, y):
        """P(X_N > y)."""
        return _upper_tail(self._z(y)) @ self.mass


def coupled_sups(drift, sigma, x0, dt, dW, levels):
    """Per-path max_k |X_k^{n_i} - X_k^{n_{i+1}}| for consecutive levels.

    All levels are driven by the same increments dW (paths, steps); `drift`
    takes (x, level) and `sigma` is a constant.  Returns (levels - 1, paths).
    """
    x = np.full((len(levels), dW.shape[0]), float(x0))
    sup = np.zeros((len(levels) - 1, dW.shape[0]))
    for k in range(dW.shape[1]):
        for i, n in enumerate(levels):
            x[i] = x[i] + (drift(x[i], n) * dt + sigma * dW[:, k])
        np.maximum(sup, np.abs(x[:-1] - x[1:]), out=sup)
    return sup


def double_well_generator(x, x0, sigma0, level):
    """L f for f(x) = |x - x0|^2 in 1-D with the truncated double-well drift:
    L f = 2 (x - x0) b_n(x) + sigma0^2."""
    return 2.0 * (x - x0) * double_well_drift(x, level) + sigma0 ** 2

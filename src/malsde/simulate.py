"""Euler chains for truncated SDEs with deterministic, parallel-safe noise.

Single-path objects (NoisePath, EulerChain) carry everything needed to replay
a step bitwise; batch helpers operate on (paths, steps, dim) arrays and are
the workhorses for the Monte Carlo estimators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng


class NumericalBlowupError(RuntimeError):
    """A chain state became non-finite (reports the offending step)."""


@dataclass(frozen=True)
class TimeGrid:
    horizon: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.steps + 1)


@dataclass(frozen=True)
class NoisePath:
    """Brownian increments for one path: increments[k] ~ N(0, dt*I)."""

    grid: TimeGrid
    seed: int
    path_id: int
    increments: np.ndarray  # (steps, dim)

    @property
    def dim(self) -> int:
        return self.increments.shape[1]


@dataclass(frozen=True)
class EulerChain:
    grid: TimeGrid
    noise: NoisePath
    states: np.ndarray  # (steps + 1, dim)
    level: float | None = None


def sample_noise(grid: TimeGrid, seed: int, path_id: int, dim: int) -> NoisePath:
    """Counter-based increments; a pure function of (seed, path_id, grid, dim)."""
    inc = rng.gaussian_increments(seed, path_id, path_id + 1, grid.steps, dim, grid.dt)[0]
    return NoisePath(grid=grid, seed=seed, path_id=path_id, increments=inc)


def sample_noise_block(grid: TimeGrid, seed: int, path_lo: int, path_hi: int, dim: int) -> np.ndarray:
    """Increments for a contiguous path range, shape (paths, steps, dim).

    Row i is bitwise identical to sample_noise(..., path_id=path_lo+i).
    """
    return rng.gaussian_increments(seed, path_lo, path_hi, grid.steps, dim, grid.dt)


def euler_states(model, dt: float, dW: np.ndarray, x0=None) -> np.ndarray:
    """All Euler states X_0..X_N for a batch of increment arrays (B, N, d).

    Returns (B, N+1, d).  `model` may be an SdeModel or a TruncationFamily.
    Accepts complex dW (for complex-step sensitivities); blow-up checks only
    apply to real input.
    """
    dW = np.asarray(dW)
    B, N, d = dW.shape
    x0 = model.x0 if x0 is None else np.asarray(x0)
    X = np.empty((B, N + 1, d), dtype=dW.dtype)
    X[:, 0, :] = x0
    real = not np.iscomplexobj(dW)
    for k in range(N):
        xk = X[:, k, :]
        step = model.drift(xk) * dt + np.einsum("...il,...l->...i", model.diffusion(xk), dW[:, k, :])
        X[:, k + 1, :] = xk + step
        if real and not np.all(np.isfinite(X[:, k + 1, :])):
            raise NumericalBlowupError(f"non-finite state at step {k + 1}")
    return X


def simulate_chain(fam, grid: TimeGrid, noise: NoisePath) -> EulerChain:
    """One full Euler chain X_{k+1} = X_k + b_n(X_k) dt + sigma(X_k) dW_k."""
    states = euler_states(fam, grid.dt, noise.increments[None])[0]
    level = getattr(fam, "level", None)
    return EulerChain(grid=grid, noise=noise, states=states, level=level)


def coupled_truncation_pair(base, n1: float, n2: float, grid: TimeGrid, noise: NoisePath):
    """Chains at two truncation levels driven by the identical noise, plus
    their sup-norm distance max_k |X_k^{n1} - X_k^{n2}|."""
    from .models import TruncationFamily

    if n1 > n2:
        raise ValueError("expected n1 <= n2")
    c1 = simulate_chain(TruncationFamily(base, n1), grid, noise)
    c2 = simulate_chain(TruncationFamily(base, n2), grid, noise)
    dist = float(np.max(np.linalg.norm(c1.states - c2.states, axis=-1)))
    return c1, c2, dist


def coupled_distance_block(base, n1, n2, grid: TimeGrid, seed: int, path_lo: int, path_hi: int):
    """Per-path sup-norm distances between coupled truncation levels."""
    from .models import TruncationFamily

    dW = sample_noise_block(grid, seed, path_lo, path_hi, base.dim)
    X1 = euler_states(TruncationFamily(base, n1), grid.dt, dW)
    X2 = euler_states(TruncationFamily(base, n2), grid.dt, dW)
    return np.max(np.linalg.norm(X1 - X2, axis=-1), axis=1)


def moment_estimate(fam, grid: TimeGrid, p_list, n_paths: int, seed: int, chunk: int = 16384):
    """Monte Carlo estimates of sup_k E|X_k^n|^p over the time grid for every
    p in p_list, from one Euler pass per chunk.

    Returns one (sup_estimate, standard_error_of_that_maximum, per_step_means)
    per p, in p_list order.
    """
    p_list = list(p_list)
    if any(p < 1 for p in p_list):
        raise ValueError("p must be >= 1")
    if n_paths < 100:
        raise ValueError("need at least 100 paths")
    s1 = np.zeros((len(p_list), grid.steps + 1))
    s2 = np.zeros((len(p_list), grid.steps + 1))
    for lo in range(0, n_paths, chunk):
        dW = sample_noise_block(grid, seed, lo, min(lo + chunk, n_paths), fam.dim)
        r = np.linalg.norm(euler_states(fam, grid.dt, dW), axis=-1)
        for i, p in enumerate(p_list):
            v = r ** p
            if not np.all(np.isfinite(v)):
                raise NumericalBlowupError("|X|^p overflowed; reduce p or horizon")
            s1[i] += v.sum(axis=0)
            s2[i] += (v * v).sum(axis=0)
    means = s1 / n_paths
    var = np.maximum(s2 / n_paths - means ** 2, 0.0)
    return [(float(m[k]), float(np.sqrt(var_p[k] / n_paths)), m)
            for m, var_p, k in zip(means, var, np.argmax(means, axis=1))]

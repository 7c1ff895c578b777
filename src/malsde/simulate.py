"""Euler chains for truncated SDEs with deterministic, parallel-safe noise.

Noise and states are (paths, steps, dim) arrays, held step major: the noise
is drawn into a (steps, paths, dim) buffer and `euler_states` builds the
states in a (steps + 1, paths, dim) one, and both are handed out as
batch-first views.  So each Euler step reads and writes one contiguous
(paths, dim) slice.  `euler_rerun` steps paths of such a state array again
at another model, each from its own first step.  A path's increments are a
pure function of (seed, path id, grid, dim), so any path range can be
regenerated bitwise independently of batch or worker layout; a single path
is a batch of one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import rng
from .parallel import map_chunks


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


def sample_noise_block(grid: TimeGrid, seed: int, path_lo: int, path_hi: int, dim: int) -> np.ndarray:
    """N(0, dt I) increments of paths path_lo..path_hi-1, shape (paths, steps,
    dim), a batch-first view of a step-major buffer (`rng.gaussian_increments`).
    A path's row is bitwise the same in any block that contains it.
    """
    return rng.gaussian_increments(seed, path_lo, path_hi, grid.steps, dim, grid.dt)


def _euler_step(model, dt, k, x, dw, out):
    """Euler step k, X_{k+1} = x + b(x) dt + sigma(x) dw, of states x (B, d)
    with increments dw (B, d), written to out.  A non-finite real state
    raises NumericalBlowupError naming step k + 1."""
    step = model.drift(x) * dt + np.einsum("...il,...l->...i", model.diffusion(x), dw)
    np.add(x, step, out=out)
    if not np.iscomplexobj(out) and not np.all(np.isfinite(out)):
        raise NumericalBlowupError(f"non-finite state at step {k + 1}")


def euler_states(model, dt: float, dW: np.ndarray) -> np.ndarray:
    """All Euler states X_0..X_N from model.x0 for a batch of increment arrays (B, N, d).

    Returns (B, N+1, d), X[:, k] being state k.  The states are built step
    major, in an (N+1, B, d) array, so each step reads and writes one
    contiguous (B, d) slice; the result is a batch-first view of it, not a
    copy.  Step k reads dW[:, k], which is contiguous when dW is the
    step-major noise of `sample_noise_block`.  `model` may be an SdeModel or
    a TruncationFamily.  Accepts complex dW (for complex-step
    sensitivities); blow-up checks only apply to real input.
    """
    dW = np.asarray(dW)
    B, N, d = dW.shape
    X = np.empty((N + 1, B, d), dtype=dW.dtype)
    X[0] = model.x0
    for k in range(N):
        _euler_step(model, dt, k, X[k], dW[:, k], X[k + 1])
    return np.swapaxes(X, 0, 1)


def euler_rerun(model, dt: float, dW: np.ndarray, X: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Re-run at `model` the Euler steps of the states X (B, N+1, d) of
    `euler_states` on dW (B, N, d), path i from its step first[i] on, in place.

    X[i, :first[i]+1] are kept as they are, so they must already be the
    states at `model`.  A path with first[i] = N is left as it is.  The
    paths are sorted by their first step, and step k runs only the ones with
    first <= k, so the re-run costs sum(N - first) path-steps.  Returns, per
    path, the max over k of |X_k - X'_k| between the states it overwrote and
    the new ones (0 for a path left as it is).  Real input only.
    """
    B, N, d = dW.shape
    Xs, dWs = np.swapaxes(X, 0, 1), np.swapaxes(dW, 0, 1)  # step major
    order = np.argsort(first, kind="stable")
    # active[k]: the paths with first <= k, a prefix of order
    active = np.searchsorted(first[order], np.arange(N), side="right")
    n = int(active[-1])
    gap = np.zeros(B)
    if n == 0:
        return gap
    order = order[:n]
    # work buffers, allocated once per call and written with out=
    x, dw, new, old = (np.empty((n, d)) for _ in range(4))
    dist, dmax = np.empty(n), np.zeros(n)
    for k in range(int(first[order[0]]), N):
        a = active[k]
        idx = order[:a]
        np.take(Xs[k], idx, axis=0, out=x[:a])
        np.take(dWs[k], idx, axis=0, out=dw[:a])
        _euler_step(model, dt, k, x[:a], dw[:a], new[:a])
        # |X_{k+1} - X'_{k+1}| in np.linalg.norm's operation order
        np.take(Xs[k + 1], idx, axis=0, out=old[:a])
        np.subtract(old[:a], new[:a], out=old[:a])
        np.multiply(old[:a], old[:a], out=old[:a])
        np.sqrt(np.add.reduce(old[:a], axis=-1, out=dist[:a]), out=dist[:a])
        np.maximum(dmax[:a], dist[:a], out=dmax[:a])
        Xs[k + 1, idx] = new[:a]
    gap[order] = dmax
    return gap


def _moment_chunk(fam, grid: TimeGrid, seed: int, p_list, lo: int, hi: int):
    """Per-step sums of |X_k|^p and |X_k|^(2p) over paths lo..hi-1, one row per p."""
    dW = sample_noise_block(grid, seed, lo, hi, fam.dim)
    r = np.linalg.norm(euler_states(fam, grid.dt, dW), axis=-1)
    s1 = np.empty((len(p_list), grid.steps + 1))
    s2 = np.empty((len(p_list), grid.steps + 1))
    for i, p in enumerate(p_list):
        v = r ** p
        if not np.all(np.isfinite(v)):
            raise NumericalBlowupError("|X|^p overflowed; reduce p or horizon")
        s1[i] = v.sum(axis=0)
        s2[i] = (v * v).sum(axis=0)
    return s1, s2


def moment_estimate(fam, grid: TimeGrid, p_list, n_paths: int, seed: int,
                    chunk: int = 16384, workers: int = 1):
    """Monte Carlo estimates of sup_k E|X_k^n|^p over the time grid for every
    p in p_list, from one Euler pass per chunk.

    Returns one (sup_estimate, standard_error_of_that_maximum) per p, in
    p_list order.
    """
    p_list = list(p_list)
    if any(p < 1 for p in p_list):
        raise ValueError("p must be >= 1")
    if n_paths < 100:
        raise ValueError("need at least 100 paths")
    task = functools.partial(_moment_chunk, fam, grid, seed, p_list)
    s1 = s2 = 0.0
    for c1, c2 in map_chunks(task, n_paths, chunk, workers):  # chunk order
        s1, s2 = s1 + c1, s2 + c2
    means = s1 / n_paths
    var = np.maximum(s2 / n_paths - means ** 2, 0.0)
    return [(float(m[k]), float(np.sqrt(var_p[k] / n_paths)))
            for m, var_p, k in zip(means, var, np.argmax(means, axis=1))]

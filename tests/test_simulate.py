import numpy as np
import pytest
from scipy.stats import kstest

from malsde.models import (
    BrownianModel,
    DoubleWell1DModel,
    OrnsteinUhlenbeckModel,
    TruncationFamily,
    _outside,
)
from malsde.simulate import (
    NumericalBlowupError,
    TimeGrid,
    euler_rerun,
    euler_states,
    moment_estimate,
    sample_noise_block,
)


def _one_path(g, seed, path_id, dim):
    """Increments of one path, shape (steps, dim)."""
    return sample_noise_block(g, seed, path_id, path_id + 1, dim)[0]


def test_grid_validation_and_dt():
    g = TimeGrid(1.0, 256)
    assert g.dt * g.steps == g.horizon
    assert len(g.times) == 257 and g.times[0] == 0.0
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 4)


def test_noise_determinism_and_block_consistency():
    g = TimeGrid(1.0, 16)
    n1 = _one_path(g, 42, 7, 2)
    n2 = _one_path(g, 42, 7, 2)
    assert np.array_equal(n1, n2)
    block = sample_noise_block(g, 42, 5, 10, 2)
    assert np.array_equal(block[2], n1)


def test_constant_paths_zero_coefficients():
    m = BrownianModel(dim=1, x0=[1.5], sigma0=0.0)
    fam = TruncationFamily(m, 8.0)
    g = TimeGrid(1.0, 32)
    states = euler_states(fam, g.dt, _one_path(g, 0, 0, 1)[None])[0]
    assert np.all(states == 1.5)  # [TRIVIAL]


def test_brownian_telescoping_exact():
    m = BrownianModel(dim=1, x0=[0.25], sigma0=1.0)
    fam = TruncationFamily(m, 50.0)
    g = TimeGrid(1.0, 64)
    dW = _one_path(g, 3, 11, 1)
    states = euler_states(fam, g.dt, dW[None])[0]
    # [TRIVIAL] X_N = x0 + sum of increments up to float summation order
    assert states[-1, 0] == pytest.approx(0.25 + dW.sum(), rel=1e-14)


def test_ou_deterministic_euler_recursion():
    # [DERIVED] sigma = 0: X_N = x0 (1 - dt)^N, close to e^-1 at N = 1000
    m = OrnsteinUhlenbeckModel(dim=1, x0=[1.0], kappa=1.0,
                               mu=[0.0], sigma0=0.0)
    fam = TruncationFamily(m, 8.0)
    g = TimeGrid(1.0, 1000)
    states = euler_states(fam, g.dt, _one_path(g, 0, 0, 1)[None])[0]
    assert states[-1, 0] == pytest.approx((1 - g.dt) ** 1000, rel=1e-13)
    assert states[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-3)


def test_chain_replay_bitwise(dw1):
    fam = TruncationFamily(dw1, 4.0)
    g = TimeGrid(1.0, 32)
    dW = _one_path(g, 9, 2, 1)
    states = euler_states(fam, g.dt, dW[None])[0]
    for k in range(g.steps):
        xk = states[k]
        step = fam.drift(xk) * g.dt + fam.diffusion(xk) @ dW[k]
        assert np.array_equal(xk + step, states[k + 1])


def test_brownian_terminal_law_ks():
    # [DERIVED] X_N ~ N(x0, sigma^2 T) exactly; KS below the 1% critical value
    m = BrownianModel(dim=1, x0=[0.0], sigma0=1.0)
    fam = TruncationFamily(m, 50.0)
    g = TimeGrid(1.0, 8)
    dW = sample_noise_block(g, 123, 0, 100000, 1)
    xn = dW.sum(axis=1).ravel()
    stat = kstest(xn, "norm").statistic
    assert stat < 1.63 / np.sqrt(len(xn))  # 1% critical value


def _euler_batch_first(model, dt, dW):
    """The Euler loop on a batch-first (B, N+1, d) state array."""
    B, N, d = dW.shape
    X = np.empty((B, N + 1, d), dtype=dW.dtype)
    X[:, 0, :] = model.x0
    for k in range(N):
        xk = X[:, k, :]
        step = model.drift(xk) * dt + np.einsum("...il,...l->...i", model.diffusion(xk), dW[:, k, :])
        X[:, k + 1, :] = xk + step
    return X


@pytest.mark.parametrize("which, level, leave", [
    ("dw1", 1.0, "most"), ("dw1", 2.0, "some"), ("dw1", 8.0, "none"), ("dw2", 1.5, "some"),
])
@pytest.mark.parametrize("step", [0.0, 1e-100])
def test_step_major_states_match_batch_first_loop(which, level, leave, step, dw1, dw2):
    model, T = {"dw1": (dw1, 1.0), "dw2": (dw2, 0.5)}[which]
    fam = TruncationFamily(model, level)
    g = TimeGrid(T, 128)
    dW = sample_noise_block(g, 13, 0, 2000, model.dim)
    if step:
        dW = dW + 1j * step * sample_noise_block(g, 14, 0, 2000, model.dim)
    X = euler_states(fam, g.dt, dW)
    assert X.shape == (2000, g.steps + 1, model.dim)
    assert np.array_equal(X, _euler_batch_first(fam, g.dt, dW))  # X[:, k] is state k
    left = np.mean(np.any(_outside(X[:, :-1], level), axis=1))
    assert {"most": left > 0.5, "some": 0 < left < 0.5, "none": left == 0}[leave]


def test_blowup_reports_step():
    class _Explode(DoubleWell1DModel):
        def drift(self, x):
            x = np.asarray(x)
            return np.where(np.real(x) > 0, np.inf, 0.0) * x

    m = _Explode(x0=[1.0], sigma0=1.0)
    g = TimeGrid(1.0, 4)
    with pytest.raises(NumericalBlowupError, match="step"):
        euler_states(m, g.dt, _one_path(g, 0, 0, 1)[None])


class _ExplodeAbove(BrownianModel):
    """Brownian motion whose drift is infinite where Re x > 0.5."""

    def drift(self, x):
        x = np.asarray(x)
        return np.where(np.real(x) > 0.5, np.inf, 0.0) * x


def test_rerun_blowup_reports_the_full_pass_step():
    # the paths agree up to their first state above 0.5, so a re-run from
    # that step, or from step 0, blows up at the step a full pass names
    m = BrownianModel(dim=1, x0=[0.0], sigma0=1.0)
    bad = _ExplodeAbove(dim=1, x0=[0.0], sigma0=1.0)
    g = TimeGrid(1.0, 16)
    dW = sample_noise_block(g, 2, 0, 50, 1)
    X = euler_states(m, g.dt, dW)
    above = X[:, :-1, 0] > 0.5
    first = np.where(above.any(axis=1), above.argmax(axis=1), g.steps)
    assert 0 < first.min() < g.steps
    with pytest.raises(NumericalBlowupError) as full:
        euler_states(bad, g.dt, dW)
    assert str(full.value) == f"non-finite state at step {first.min() + 1}"
    for start in (first, np.zeros_like(first)):
        with pytest.raises(NumericalBlowupError) as rerun:
            euler_rerun(bad, g.dt, dW, X.copy(), start)
        assert str(rerun.value) == str(full.value)


def test_rerun_from_step_zero_is_a_full_pass(dw1):
    g = TimeGrid(1.0, 32)
    dW = sample_noise_block(g, 4, 0, 500, 1)
    X = euler_states(TruncationFamily(dw1, 8.0), g.dt, dW)
    want = euler_states(TruncationFamily(dw1, 0.2), g.dt, dW)  # |x0| = 0.3
    gap = np.max(np.linalg.norm(X - want, axis=-1), axis=1)
    got = euler_rerun(TruncationFamily(dw1, 0.2), g.dt, dW, X, np.zeros(500, dtype=int))
    assert np.array_equal(X, want) and np.array_equal(got, gap)
    assert np.all(gap > 0)


def test_coupled_pair_identical_levels_bitwise(dw1):
    g = TimeGrid(1.0, 32)
    dW = _one_path(g, 5, 0, 1)[None]
    X1 = euler_states(TruncationFamily(dw1, 4.0), g.dt, dW)
    X2 = euler_states(TruncationFamily(dw1, 4.0), g.dt, dW)
    assert np.max(np.linalg.norm(X1 - X2, axis=-1)) == 0.0


def test_coupled_pair_zero_inside_ball(dw1):
    # paths staying inside B(0, n1) give exactly zero distance
    g = TimeGrid(1.0, 64)
    base = DoubleWell1DModel(x0=[0.0], sigma0=0.8)
    dW = sample_noise_block(g, 0, 0, 10000, base.dim)
    X1 = euler_states(TruncationFamily(base, 4.0), g.dt, dW)
    X2 = euler_states(TruncationFamily(base, 8.0), g.dt, dW)
    d = np.max(np.linalg.norm(X1 - X2, axis=-1), axis=1)
    # [DERIVED] exit fraction for the double-well defaults is <= 1e-3
    assert np.mean(d > 0) <= 1e-3


def test_moment_estimate_constant_and_brownian():
    g = TimeGrid(1.0, 32)
    m0 = BrownianModel(dim=1, x0=[2.0], sigma0=0.0)
    [(sup, se)] = moment_estimate(TruncationFamily(m0, 8.0), g, (2,), 500, 0)
    assert sup == pytest.approx(4.0) and se == 0.0  # [TRIVIAL] |x0|^p
    m1 = BrownianModel(dim=1, x0=[0.0], sigma0=1.0)
    [(sup, se)] = moment_estimate(TruncationFamily(m1, 50.0), g, (2,), 20000, 1)
    assert abs(sup - 1.0) <= 3 * se  # [DERIVED] E W_T^2 = T


def test_moment_monotone_in_p(dw1):
    fam = TruncationFamily(dw1, 4.0)
    g = TimeGrid(1.0, 32)
    (s2, _), (s4, _) = moment_estimate(fam, g, (2, 4), 20000, 2)
    assert s4 >= s2**2 * (1 - 1e-9)  # [DERIVED] E|X|^4 >= (E|X|^2)^2

import numpy as np
import pytest
from scipy.stats import kstest

from malsde.models import (
    BrownianModel,
    DoubleWell1DModel,
    OrnsteinUhlenbeckModel,
    TruncationFamily,
)
from malsde.simulate import (
    NumericalBlowupError,
    TimeGrid,
    coupled_truncation_pair,
    euler_states,
    moment_estimate,
    sample_noise,
    sample_noise_block,
    simulate_chain,
)


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
    n1 = sample_noise(g, 42, 7, 2)
    n2 = sample_noise(g, 42, 7, 2)
    assert np.array_equal(n1.increments, n2.increments)
    block = sample_noise_block(g, 42, 5, 10, 2)
    assert np.array_equal(block[2], n1.increments)


def test_constant_paths_zero_coefficients():
    m = BrownianModel(dim=1, x0=[1.5], horizon=1.0, sigma0=0.0)
    fam = TruncationFamily(m, 8.0)
    g = TimeGrid(1.0, 32)
    chain = simulate_chain(fam, g, sample_noise(g, 0, 0, 1))
    assert np.all(chain.states == 1.5)  # [TRIVIAL]


def test_brownian_telescoping_exact():
    m = BrownianModel(dim=1, x0=[0.25], horizon=1.0, sigma0=1.0)
    fam = TruncationFamily(m, 50.0)
    g = TimeGrid(1.0, 64)
    noise = sample_noise(g, 3, 11, 1)
    chain = simulate_chain(fam, g, noise)
    # [TRIVIAL] X_N = x0 + sum of increments up to float summation order
    assert chain.states[-1, 0] == pytest.approx(
        0.25 + noise.increments.sum(), rel=1e-14)


def test_ou_deterministic_euler_recursion():
    # [DERIVED] sigma = 0: X_N = x0 (1 - dt)^N, close to e^-1 at N = 1000
    m = OrnsteinUhlenbeckModel(dim=1, x0=[1.0], horizon=1.0, kappa=1.0,
                               mu=[0.0], sigma0=0.0)
    fam = TruncationFamily(m, 8.0)
    g = TimeGrid(1.0, 1000)
    chain = simulate_chain(fam, g, sample_noise(g, 0, 0, 1))
    assert chain.states[-1, 0] == pytest.approx((1 - g.dt) ** 1000, rel=1e-13)
    assert chain.states[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-3)


def test_chain_replay_bitwise(dw1):
    fam = TruncationFamily(dw1, 4.0)
    g = TimeGrid(1.0, 32)
    noise = sample_noise(g, 9, 2, 1)
    chain = simulate_chain(fam, g, noise)
    for k in range(g.steps):
        xk = chain.states[k]
        step = fam.drift(xk) * g.dt + fam.diffusion(xk) @ noise.increments[k]
        assert np.array_equal(xk + step, chain.states[k + 1])


def test_brownian_terminal_law_ks():
    # [DERIVED] X_N ~ N(x0, sigma^2 T) exactly; KS below the 1% critical value
    m = BrownianModel(dim=1, x0=[0.0], horizon=1.0, sigma0=1.0)
    fam = TruncationFamily(m, 50.0)
    g = TimeGrid(1.0, 8)
    dW = sample_noise_block(g, 123, 0, 100000, 1)
    xn = dW.sum(axis=1).ravel()
    stat = kstest(xn, "norm").statistic
    assert stat < 1.63 / np.sqrt(len(xn))  # 1% critical value


def test_blowup_reports_step():
    class _Explode(DoubleWell1DModel):
        def drift(self, x):
            x = np.asarray(x)
            return np.where(np.real(x) > 0, np.inf, 0.0) * x

    m = _Explode(x0=[1.0], horizon=1.0, sigma0=1.0)
    g = TimeGrid(1.0, 4)
    with pytest.raises(NumericalBlowupError, match="step"):
        simulate_chain(m, g, sample_noise(g, 0, 0, 1))


def test_coupled_pair_identical_levels_bitwise(dw1):
    g = TimeGrid(1.0, 32)
    noise = sample_noise(g, 5, 0, 1)
    _, _, dist = coupled_truncation_pair(dw1, 4.0, 4.0, g, noise)
    assert dist == 0.0


def test_coupled_pair_zero_inside_ball(dw1):
    # paths staying inside B(0, n1) give exactly zero distance
    g = TimeGrid(1.0, 64)
    base = DoubleWell1DModel(x0=[0.0], horizon=1.0, sigma0=0.8)
    dW = sample_noise_block(g, 0, 0, 10000, base.dim)
    X1 = euler_states(TruncationFamily(base, 4.0), g.dt, dW)
    X2 = euler_states(TruncationFamily(base, 8.0), g.dt, dW)
    d = np.max(np.linalg.norm(X1 - X2, axis=-1), axis=1)
    # [DERIVED] exit fraction for the double-well defaults is <= 1e-3
    assert np.mean(d > 0) <= 1e-3


def test_coupled_pair_order_validation(dw1):
    g = TimeGrid(1.0, 8)
    with pytest.raises(ValueError):
        coupled_truncation_pair(dw1, 8.0, 4.0, g, sample_noise(g, 0, 0, 1))


def test_moment_estimate_constant_and_brownian():
    g = TimeGrid(1.0, 32)
    m0 = BrownianModel(dim=1, x0=[2.0], horizon=1.0, sigma0=0.0)
    [(sup, se, _)] = moment_estimate(TruncationFamily(m0, 8.0), g, (2,), 500, 0)
    assert sup == pytest.approx(4.0) and se == 0.0  # [TRIVIAL] |x0|^p
    m1 = BrownianModel(dim=1, x0=[0.0], horizon=1.0, sigma0=1.0)
    [(sup, se, _)] = moment_estimate(TruncationFamily(m1, 50.0), g, (2,), 20000, 1)
    assert abs(sup - 1.0) <= 3 * se  # [DERIVED] E W_T^2 = T


def test_moment_monotone_in_p(dw1):
    fam = TruncationFamily(dw1, 4.0)
    g = TimeGrid(1.0, 32)
    (s2, _, _), (s4, _, _) = moment_estimate(fam, g, (2, 4), 20000, 2)
    assert s4 >= s2**2 * (1 - 1e-9)  # [DERIVED] E|X|^4 >= (E|X|^2)^2

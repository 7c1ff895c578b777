import numpy as np
import pytest

from malsde.malliavin import (
    DegenerateCovarianceError,
    chain_batch,
    derivative_chain,
    malliavin_cov,
    second_derivative_chain,
    skorokhod,
)
from malsde.models import (
    BrownianModel,
    OrnsteinUhlenbeckModel,
    TruncationFamily,
)
from malsde.simulate import (
    TimeGrid,
    euler_states,
    sample_noise,
    sample_noise_block,
    simulate_chain,
)


def _chain(model, level, steps, seed=0, path=0):
    fam = TruncationFamily(model, level)
    grid = TimeGrid(model.horizon, steps)
    noise = sample_noise(grid, seed, path, model.dim)
    return fam, grid, noise, simulate_chain(fam, grid, noise)


# ---------------------------------------------------------------------------
# First derivative chains
# ---------------------------------------------------------------------------

def test_constant_diffusion_zero_drift_gives_sigma(bm):
    fam, grid, noise, chain = _chain(bm, 50.0, 16)
    deriv = derivative_chain(chain, fam)
    assert np.allclose(deriv.first, np.eye(1), atol=1e-15)  # [TRIVIAL]


def test_ou_closed_form_chain():
    m = OrnsteinUhlenbeckModel(dim=1, x0=[0.0], horizon=1.0, kappa=1.0,
                               mu=[0.0], sigma0=1.0)
    fam, grid, noise, chain = _chain(m, 50.0, 32)
    deriv = derivative_chain(chain, fam)
    N, dt = grid.steps, grid.dt
    expected = (1 - dt) ** (N - 1 - np.arange(N))  # [DERIVED] linear recursion
    assert np.allclose(deriv.first[:, 0, 0], expected, rtol=1e-13)


def test_double_well_chain_matches_fd(dw1):
    fam, grid, noise, chain = _chain(dw1, 4.0, 64, seed=5)
    deriv = derivative_chain(chain, fam)
    h = 1e-5 * np.sqrt(grid.dt)
    rng = np.random.default_rng(0)
    for k in rng.integers(0, grid.steps, 12):
        dp = noise.increments.copy()
        dm = noise.increments.copy()
        dp[k, 0] += h
        dm[k, 0] -= h
        fd = (euler_states(fam, grid.dt, dp[None])[0, -1, 0]
              - euler_states(fam, grid.dt, dm[None])[0, -1, 0]) / (2 * h)
        ref = deriv.first[k, 0, 0]
        assert abs(fd - ref) / max(abs(ref), 1e-10) <= 1e-5  # [DERIVED]


def test_flow_factorization_consistency(dw2):
    # G_k equals (flow from k+1 to N) sigma(X_k) to relative error 1e-10
    fam, grid, noise, chain = _chain(dw2, 4.0, 32, seed=2)
    deriv = derivative_chain(chain, fam)
    for k in range(grid.steps):
        fac = deriv.jacobian_flow[k + 1] @ fam.diffusion(chain.states[k])
        assert np.allclose(fac, deriv.first[k], rtol=1e-10, atol=1e-13)


# ---------------------------------------------------------------------------
# Covariance matrix
# ---------------------------------------------------------------------------

def test_cov_gram_structure_brownian(bm):
    fam, grid, noise, chain = _chain(bm, 50.0, 64)
    cov = malliavin_cov(derivative_chain(chain, fam), grid.dt)
    # [TRIVIAL] Q = sigma sigma* T up to summation round-off
    assert abs(cov.Q[0, 0] - 1.0) <= 1e-12
    assert cov.det_q == pytest.approx(1.0, rel=1e-12)
    assert cov.q_inverse[0, 0] == pytest.approx(1.0, rel=1e-12)


def test_cov_ou_geometric_sum():
    m = OrnsteinUhlenbeckModel(dim=1, x0=[0.0], horizon=1.0, kappa=1.0,
                               mu=[0.0], sigma0=1.0)
    fam, grid, noise, chain = _chain(m, 50.0, 128)
    cov = malliavin_cov(derivative_chain(chain, fam), grid.dt)
    a = 1 - grid.dt
    expected = grid.dt * (1 - a ** (2 * grid.steps)) / (1 - a * a)
    assert cov.Q[0, 0] == pytest.approx(expected, rel=1e-12)  # [DERIVED]
    # continuum limit (1 - e^-2)/2 is approached at order dt
    assert cov.Q[0, 0] == pytest.approx((1 - np.exp(-2)) / 2, abs=0.01)


def test_cov_degenerate_raises():
    m = BrownianModel(dim=1, x0=[0.0], horizon=1.0, sigma0=0.0)
    fam, grid, noise, chain = _chain(m, 8.0, 8)
    with pytest.raises(DegenerateCovarianceError):
        malliavin_cov(derivative_chain(chain, fam), grid.dt)


def test_cov_psd_double_well(dw2):
    fam, grid, noise, chain = _chain(dw2, 4.0, 32, seed=7)
    cov = malliavin_cov(derivative_chain(chain, fam), grid.dt)
    eigs = np.linalg.eigvalsh(cov.Q)
    assert np.all(eigs >= 0)
    assert np.allclose(cov.Q, cov.Q.T, atol=1e-14)


# ---------------------------------------------------------------------------
# Second derivative chains
# ---------------------------------------------------------------------------

def test_second_chain_linear_model_is_zero():
    m = OrnsteinUhlenbeckModel(dim=1, x0=[0.3], horizon=1.0, kappa=1.0,
                               mu=[0.0], sigma0=1.0)
    fam, grid, noise, chain = _chain(m, 50.0, 16)
    sd = second_derivative_chain(chain, fam)
    assert np.all(sd.second == 0.0)  # [TRIVIAL]


def test_second_chain_symmetry_and_fd(dw1):
    fam, grid, noise, chain = _chain(dw1, 4.0, 32, seed=3)
    sd = second_derivative_chain(chain, fam).second
    sym = np.transpose(sd, (1, 0, 2, 4, 3))
    assert np.allclose(sd, sym, atol=1e-14)  # [TRIVIAL] Schwarz symmetry
    # [DERIVED] nested central differences, relative error 1e-3 at N=32
    h = 1e-4
    rng = np.random.default_rng(1)
    for _ in range(10):
        j, k = rng.integers(0, grid.steps, 2)
        vals = np.zeros((2, 2))
        for sj in (0, 1):
            for sk in (0, 1):
                dw = noise.increments.copy()
                dw[j, 0] += (1 if sj else -1) * h
                dw[k, 0] += (1 if sk else -1) * h
                vals[sj, sk] = euler_states(fam, grid.dt, dw[None])[0, -1, 0]
        fd = (vals[1, 1] - vals[1, 0] - vals[0, 1] + vals[0, 0]) / (4 * h * h)
        ref = sd[j, k, 0, 0, 0]
        assert abs(fd - ref) / max(abs(ref), 1e-6) <= 1e-3


def test_second_chain_fd_2d(dw2):
    fam, grid, noise, chain = _chain(dw2, 4.0, 16, seed=4)
    sd = second_derivative_chain(chain, fam).second
    h = 1e-4
    rng = np.random.default_rng(2)
    for _ in range(8):
        j, k = rng.integers(0, grid.steps, 2)
        a, b = rng.integers(0, 2, 2)
        vals = np.zeros((2, 2, 2))
        for sj in (0, 1):
            for sk in (0, 1):
                dw = noise.increments.copy()
                dw[j, a] += (1 if sj else -1) * h
                dw[k, b] += (1 if sk else -1) * h
                vals[sj, sk] = euler_states(fam, grid.dt, dw[None])[0, -1]
        fd = (vals[1, 1] - vals[1, 0] - vals[0, 1] + vals[0, 0]) / (4 * h * h)
        ref = sd[j, k, :, a, b]
        scale = max(float(np.max(np.abs(ref))), 1e-6)
        assert float(np.max(np.abs(fd - ref))) / scale <= 1e-3


# ---------------------------------------------------------------------------
# Engine reductions vs the full second-derivative tensor
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("which", ["dw1", "dw2"])
def test_divergence_and_cov_derivative_reductions(which, dw1, dw2):
    model = {"dw1": dw1, "dw2": dw2}[which]
    fam, grid, noise, chain = _chain(model, 4.0, 12, seed=6)
    N, d = grid.steps, model.dim
    dW = noise.increments
    ch = chain_batch(fam, grid.dt, dW[None])
    sd = second_derivative_chain(chain, fam).second
    G = ch.G[0]
    diag2 = np.einsum("kjaa->j", np.array([sd[k, k] for k in range(N)]))
    delta_full = np.einsum("kja,ka->j", G, dW) - grid.dt * diag2
    assert np.allclose(delta_full, ch.delta[0], rtol=1e-12, atol=1e-13)
    gamma_full = np.zeros((d, d, d))
    for k in range(N):
        for b in range(d):
            m = sd[:, k, :, :, b]
            dq = grid.dt * (np.einsum("mia,mqa->iq", m, G)
                            + np.einsum("mia,mqa->iq", G, m))
            for j in range(d):
                gamma_full[j] += grid.dt * dq * G[k, j, b]
    assert np.allclose(gamma_full, ch.gamma[0], rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("step", [0.0, 1e-100])
def test_chain_without_weight_terms_matches_full_chain(dw2, step):
    fam = TruncationFamily(dw2, 1.5)
    grid = TimeGrid(dw2.horizon, 16)
    dW = sample_noise_block(grid, 3, 0, 200, dw2.dim)
    if step:
        dW = dW + 1j * step * dW[::-1]
    full = chain_batch(fam, grid.dt, dW)
    flow = chain_batch(fam, grid.dt, dW, want_weight_terms=False)
    assert np.any(np.linalg.norm(full.X.real, axis=-1) > 1.5)  # both branches run
    for name in ("G", "Q", "Qinv", "det_q"):
        assert np.array_equal(getattr(flow, name), getattr(full, name)), name
    assert flow.E is None and flow.delta is None and flow.gamma is None


# ---------------------------------------------------------------------------
# Skorokhod divergence
# ---------------------------------------------------------------------------

def test_skorokhod_deterministic_integrand():
    g = TimeGrid(1.0, 32)
    noise = sample_noise(g, 0, 0, 1)
    u = np.full((g.steps, 1), 1.0 / g.horizon)
    # [TRIVIAL] deterministic integrand: divergence is the Ito sum W_T / T
    assert skorokhod(u, noise, g.dt) == pytest.approx(
        float(noise.increments.sum()) / g.horizon, rel=1e-14)


def test_skorokhod_quadratic_identity():
    g = TimeGrid(1.0, 64)
    noise = sample_noise(g, 1, 0, 1)
    u = noise.increments.copy()
    du = np.broadcast_to(np.eye(1), (g.steps, 1, 1))
    got = skorokhod(u, noise, g.dt, du_diag=du)
    expected = float(np.sum(noise.increments**2)) - g.horizon
    assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("adapted", [True, False])
def test_skorokhod_centered(adapted):
    # E[delta(u)] = 0 within 3 SE for adapted and non-adapted integrands
    g = TimeGrid(1.0, 16)
    from malsde.simulate import sample_noise_block
    dW = sample_noise_block(g, 11, 0, 20000, 1)
    w_cum = np.cumsum(dW, axis=1) - dW  # W_{t_k}, adapted
    w_total = dW.sum(axis=1, keepdims=True) * np.ones_like(dW)
    if adapted:
        vals = np.sum(w_cum * dW, axis=(1, 2))  # trace term is zero
    else:
        # u_k = W_T for every k; d u_k / d dW_k = 1
        vals = np.sum(w_total * dW, axis=(1, 2)) - g.dt * g.steps
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean()) <= 3 * se

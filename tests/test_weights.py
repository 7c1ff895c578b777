import dataclasses

import numpy as np
import pytest

from malsde import malliavin
from malsde.malliavin import (
    _inner_pairing,
    chain_batch,
    quadrature_oracle,
    weight_alpha,
    weight_from_chain,
    weights_from_chain,
)
from malsde.models import (
    BrownianModel,
    DoubleWell1DModel,
    OrnsteinUhlenbeckModel,
    TruncationFamily,
    _outside,
)
from malsde.simulate import TimeGrid, euler_states, sample_noise_block

COS = (np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x))


def _path(model, level, steps, seed=0, path=0, horizon=1.0):
    """Family, grid and the (1, steps, dim) increments of one path."""
    fam = TruncationFamily(model, level)
    grid = TimeGrid(horizon, steps)
    return fam, grid, sample_noise_block(grid, seed, path, path + 1, model.dim)


# ---------------------------------------------------------------------------
# Closed forms on constant-coefficient models
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sigma", [1.0, 2.0])
def test_brownian_first_weight_closed_form(sigma):
    # [DERIVED] H_{(1)} = W_T / (sigma T) exactly, path by path
    m = BrownianModel(dim=1, x0=[0.0], sigma0=sigma)
    fam, grid, dW = _path(m, 50.0, 32, seed=4)
    got = weight_alpha(fam, grid.dt, dW, (0,))[0][0]
    wt = float(dW.sum())
    assert got == pytest.approx(wt / (sigma * grid.horizon), rel=1e-12)


def test_brownian_iterated_weight_closed_form():
    # [DERIVED] H_{(1,1)} = (W_T^2 - T) / T^2 for sigma = 1
    m = BrownianModel(dim=1, x0=[0.0], sigma0=1.0)
    fam, grid, dW = _path(m, 50.0, 32, seed=8)
    got = weight_alpha(fam, grid.dt, dW, (0, 0))[0][0]
    wt = float(dW.sum())
    T = grid.horizon
    assert got == pytest.approx((wt * wt - T) / (T * T), rel=1e-11, abs=1e-12)


@pytest.mark.parametrize("alpha", [(0,), (0, 0)])
def test_weight_mean_zero_linear_model(alpha):
    # [DERIVED] E[H_alpha] = E[d_alpha 1] = 0; check within 3 SE
    m = OrnsteinUhlenbeckModel(dim=1, x0=[0.5], kappa=1.0,
                               mu=[0.0], sigma0=1.0)
    fam = TruncationFamily(m, 8.0)
    grid = TimeGrid(1.0, 32)
    dW = sample_noise_block(grid, 21, 0, 20000, 1)
    H, _ = weight_alpha(fam, grid.dt, dW, alpha)
    H = np.real(H)
    se = H.std(ddof=1) / np.sqrt(len(H))
    assert abs(H.mean()) <= 3 * se


def test_weight_order_cap():
    m = BrownianModel(dim=1, x0=[0.0], sigma0=1.0)
    fam, grid, dW = _path(m, 50.0, 8)
    # order 3, and coordinates outside 0..d-1 (-1 would index from the end)
    for alpha in [(0, 0, 0), (1,), (-1,), (0, 1)]:
        with pytest.raises(ValueError):
            weight_alpha(fam, grid.dt, dW, alpha)


def test_weight_degenerate_covariance():
    m = BrownianModel(dim=1, x0=[0.0], sigma0=0.0)
    fam, grid, dW = _path(m, 8.0, 8)
    _, ch = weight_alpha(fam, grid.dt, dW, (0,))
    assert ch.degenerate[0]


@pytest.mark.parametrize("dim", [1, 2])
def test_brownian_chain_is_ou_kappa_zero(dim):
    # one linear model: Brownian motion runs OU's code with kappa = 0, mu = 0,
    # and every state, chain field and weight is bitwise OU's
    assert not {"drift", "drift_jac", "drift_hess", "diffusion"} & set(vars(BrownianModel))
    x0 = [0.3, -0.2][:dim]
    bm = BrownianModel(dim=dim, x0=x0, sigma0=1.3)
    ou = OrnsteinUhlenbeckModel(dim=dim, x0=x0, kappa=0.0, mu=0.0,
                                sigma0=1.3)
    grid = TimeGrid(1.0, 16)
    dW = sample_noise_block(grid, 7, 0, 400, dim)
    alphas = [(0,), (dim - 1,), (0, 0), (0, dim - 1), (dim - 1, dim - 1)]
    for level in (0.5, 8.0):  # most paths leave the ball, or none do
        fb, fo = TruncationFamily(bm, level), TruncationFamily(ou, level)
        assert np.array_equal(euler_states(fb, grid.dt, dW), euler_states(fo, grid.dt, dW))
        cb, co = chain_batch(fb, grid.dt, dW), chain_batch(fo, grid.dt, dW)
        for f in dataclasses.fields(cb):
            assert np.array_equal(getattr(cb, f.name), getattr(co, f.name)), f.name
        for hb, ho in zip(weights_from_chain(fb, cb, alphas),
                          weights_from_chain(fo, co, alphas)):
            assert np.array_equal(hb, ho)


# ---------------------------------------------------------------------------
# Inner pairings <D H_(i), DX^j> of the order-2 weights
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("which", ["dw1", "dw2"])
def test_inner_pairing_matches_fd(which, dw1, dw2):
    # [DERIVED] the complex-step pairing is the derivative of H_(i1) along
    # w = dt sum_j Qinv_{i2 j} G[:, :, j, :]; central differences agree to
    # relative error 1e-6
    model, T = {"dw1": (dw1, 1.0), "dw2": (dw2, 0.5)}[which]
    fam, grid, dW = _path(model, 4.0, 8, seed=2, horizon=T)
    ch = chain_batch(fam, grid.dt, dW)
    h = 1e-4
    for i1 in range(model.dim):
        for i2 in range(model.dim):
            pair = _inner_pairing(fam, ch, i1, i2)
            w = grid.dt * np.einsum("bj,bkja->bka", ch.Qinv[:, i2], ch.G)
            hp, _ = weight_alpha(fam, grid.dt, dW + h * w, (i1,))
            hm, _ = weight_alpha(fam, grid.dt, dW - h * w, (i1,))
            fd = float(hp[0] - hm[0]) / (2 * h)
            ref = float(pair[0].real)
            assert abs(fd - ref) / max(abs(ref), 1e-8) <= 1e-6


def test_brownian_inner_pairing_is_one():
    # [DERIVED] H = W_T / (sigma T), so D_k H = 1 / (sigma T); with G_k = sigma
    # and Qinv = 1 / (sigma^2 T) = 1 at sigma = T = 1 the pairing
    # dt sum_k D_k H Qinv G_k is exactly 1
    m = BrownianModel(dim=1, x0=[0.0], sigma0=1.0)
    fam, grid, dW = _path(m, 50.0, 8)
    pair = _inner_pairing(fam, chain_batch(fam, grid.dt, dW), 0, 0)
    assert np.allclose(pair.real, 1.0, rtol=1e-11)


@pytest.mark.parametrize("which", ["dw1", "dw2"])
def test_inner_pairing_is_qinv_row_of_per_direction_steps(which, dw1, dw2):
    # [DERIVED] the pairing is linear in its direction, so the one step along
    # w equals sum_j Qinv_{i2 j} times the step along dt G[:, :, j, :]
    model, T = {"dw1": (dw1, 1.0), "dw2": (dw2, 0.5)}[which]
    fam = TruncationFamily(model, 0.5)
    grid = TimeGrid(T, 8)
    dW = sample_noise_block(grid, 5, 0, 64, model.dim)
    ch = chain_batch(fam, grid.dt, dW)
    assert _outside(ch.X, fam.level).any()  # clamp terms enter Q and its inverse
    eps = 1e-100

    def step(i1, v):  # derivative of H_(i1) along v, one complex step
        return weight_from_chain(chain_batch(fam, grid.dt, dW + 1j * eps * v), i1).imag / eps

    for i1 in range(model.dim):
        per_j = [step(i1, grid.dt * ch.G[:, :, j, :]) for j in range(model.dim)]
        for i2 in range(model.dim):
            got = _inner_pairing(fam, ch, i1, i2)
            ref = sum(ch.Qinv[:, i2, j] * per_j[j] for j in range(model.dim))
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("which,alpha", [("dw2", (0, 1)), ("dw1", (0, 0))])
def test_order2_weight_makes_no_complex_chain_pass(which, alpha, dw1, dw2, monkeypatch):
    # the pairing is a real tangent pass over the stored chain: no chain is
    # re-run, and complex numbers reach only the pointwise second-derivative
    # calls that give the third derivatives
    model, T = {"dw1": (dw1, 1.0), "dw2": (dw2, 0.5)}[which]
    fam = TruncationFamily(model, 4.0)
    grid = TimeGrid(T, 8)
    dW = sample_noise_block(grid, 3, 0, 16, model.dim)
    ch = chain_batch(fam, grid.dt, dW)
    chains, complex_inputs = [], set()

    def counted(model, dt, dW):
        chains.append(dW)
        return chain_batch(model, dt, dW)

    def watched(name):
        method = getattr(fam, name)

        def call(x):
            if np.iscomplexobj(x):
                complex_inputs.add(name)
            return method(x)
        return call

    monkeypatch.setattr(malliavin, "chain_batch", counted)
    for name in ("drift", "drift_jac", "drift_hess", "diffusion", "diffusion_jac",
                 "diffusion_hess"):
        monkeypatch.setattr(fam, name, watched(name))
    weights_from_chain(fam, ch, [alpha])
    assert chains == []
    assert complex_inputs == {"drift_hess", "diffusion_hess"}


# ---------------------------------------------------------------------------
# Quadrature verification of the integration-by-parts identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha,tol", [((0,), 1e-10), ((0, 0), 1e-9)])
def test_oracle_linear_model(alpha, tol):
    m = OrnsteinUhlenbeckModel(dim=1, x0=[0.5], kappa=1.0,
                               mu=[0.0], sigma0=1.0)
    fam = TruncationFamily(m, 8.0)
    [(lhs, rhs, gap)] = quadrature_oracle(fam, 2, [COS], [alpha], horizon=1.0, nodes=64)
    assert gap <= tol  # [DERIVED] Gaussian integrands converge fast


@pytest.mark.parametrize("steps", [1, 2, 3])
def test_oracle_brownian_all_step_counts(steps):
    m = BrownianModel(dim=1, x0=[0.0], sigma0=1.0)
    fam = TruncationFamily(m, 50.0)
    [(lhs, rhs, gap)] = quadrature_oracle(fam, steps, [COS], [(0,)], horizon=1.0,
                                          nodes=48)
    # [DERIVED] E[-sin(W_1)] = -sin(0) e^{-1/2} = 0 exactly by symmetry
    assert abs(lhs) <= 1e-12
    assert gap <= 1e-12


@pytest.mark.parametrize("alpha,tol", [((0,), 1e-8), ((0, 0), 1e-6)])
def test_oracle_nonlinear_model(alpha, tol):
    # short horizon keeps the Gauss-Hermite truncation error below tol
    m = DoubleWell1DModel(x0=[0.3], sigma0=0.8)
    fam = TruncationFamily(m, 4.0)
    [(lhs, rhs, gap)] = quadrature_oracle(fam, 2, [COS], [alpha], horizon=0.5, nodes=128)
    assert abs(lhs) > 1e-3  # the identity is checked on a nontrivial value
    assert gap <= tol


def test_oracle_input_validation(dw2, dw1):
    fam2 = TruncationFamily(dw2, 4.0)
    with pytest.raises(ValueError):
        quadrature_oracle(fam2, 2, [COS], [(0,)], horizon=0.5)
    fam1 = TruncationFamily(dw1, 4.0)
    with pytest.raises(ValueError):
        quadrature_oracle(fam1, 4, [COS], [(0,)], horizon=1.0)
    with pytest.raises(ValueError):
        quadrature_oracle(fam1, 2, [COS], [(0,)], horizon=1.0, nodes=10)


# ---------------------------------------------------------------------------
# Stability across truncation levels
# ---------------------------------------------------------------------------

def test_weight_l2_stable_across_levels():
    # paths rarely leave B(0, 2), so weights barely depend on the level
    m = DoubleWell1DModel(x0=[0.0], sigma0=0.8)
    grid = TimeGrid(1.0, 32)
    dW = sample_noise_block(grid, 31, 0, 5000, 1)
    norms = []
    for level in (2.0, 4.0, 8.0):
        fam = TruncationFamily(m, level)
        H, _ = weight_alpha(fam, grid.dt, dW, (0,))
        norms.append(float(np.sqrt(np.mean(np.real(H) ** 2))))
    spread = (max(norms) - min(norms)) / min(norms)
    assert spread < 0.05  # [DERIVED] truncation-stability of the L2 norm

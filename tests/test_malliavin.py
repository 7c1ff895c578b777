import itertools
import tracemalloc

import numpy as np
import pytest

from malsde import malliavin
from malsde.density import count_drops
from malsde.malliavin import (
    DegenerateCovarianceError,
    chain_batch,
    flow,
    weights_from_chain,
)
from malsde.models import (
    BrownianModel,
    DoubleWell1DModel,
    DoubleWell2DModel,
    OrnsteinUhlenbeckModel,
    TruncationFamily,
)
from malsde.simulate import (
    TimeGrid,
    euler_states,
    sample_noise_block,
)


def second_derivative_chain(fam, dt, dW) -> np.ndarray:
    """out[j, k, i, a, b] = d^2 X_N^i / dW_j^a dW_k^b for one path, dW (N, d),
    by differentiating the flow recursion.  O(N^2) storage: an independent
    reference for the O(N) reductions of `chain_batch`.
    """
    dW = np.asarray(dW)
    N, d = dW.shape
    X = euler_states(fam, dt, dW[None])[0]
    D = np.zeros((N, d, d))
    SD = np.zeros((N, N, d, d, d))
    for m in range(N):
        xm = X[m]
        Jb = fam.drift_jac(xm)
        Js = fam.diffusion_jac(xm)
        A = np.eye(d) + Jb * dt + np.einsum("ilp,l->ip", Js, dW[m])
        E = fam.drift_hess(xm) * dt + np.einsum("ilpq,l->ipq", fam.diffusion_hess(xm), dW[m])
        if m > 0:
            T = np.einsum("ipq,jpa,kqb->jkiab", E, D[:m], D[:m])
            SD[:m, :m] = np.einsum("iq,jkqab->jkiab", A, SD[:m, :m]) + T
            nb = np.einsum("ibp,jpa->jiab", Js, D[:m])
            SD[:m, m] = nb
            SD[m, :m] = np.swapaxes(nb, -1, -2)
            D[:m] = np.einsum("iq,jqa->jia", A, D[:m])
        SD[m, m] = 0.0
        D[m] = fam.diffusion(xm)
    return SD


def _path(model, level, steps, seed=0, path=0, horizon=1.0):
    """Family, grid and the (steps, dim) increments of one path."""
    fam = TruncationFamily(model, level)
    grid = TimeGrid(horizon, steps)
    dW = sample_noise_block(grid, seed, path, path + 1, model.dim)[0]
    return fam, grid, dW


def _flow(fam, grid, dW):
    """chain_batch for one path."""
    return chain_batch(fam, grid.dt, dW[None])


# ---------------------------------------------------------------------------
# First derivative chains
# ---------------------------------------------------------------------------

def test_constant_diffusion_zero_drift_gives_sigma(bm):
    fam, grid, dW = _path(bm, 50.0, 16)
    G = _flow(fam, grid, dW).G[0]
    assert np.allclose(G, np.eye(1), atol=1e-15)  # [TRIVIAL]


def test_ou_closed_form_chain():
    m = OrnsteinUhlenbeckModel(dim=1, x0=[0.0], kappa=1.0,
                               mu=[0.0], sigma0=1.0)
    fam, grid, dW = _path(m, 50.0, 32)
    G = _flow(fam, grid, dW).G[0]
    N, dt = grid.steps, grid.dt
    expected = (1 - dt) ** (N - 1 - np.arange(N))  # [DERIVED] linear recursion
    assert np.allclose(G[:, 0, 0], expected, rtol=1e-13)


def test_double_well_chain_matches_fd(dw1):
    fam, grid, dW = _path(dw1, 4.0, 64, seed=5)
    G = _flow(fam, grid, dW).G[0]
    h = 1e-5 * np.sqrt(grid.dt)
    rng = np.random.default_rng(0)
    for k in rng.integers(0, grid.steps, 12):
        dp = dW.copy()
        dm = dW.copy()
        dp[k, 0] += h
        dm[k, 0] -= h
        fd = (euler_states(fam, grid.dt, dp[None])[0, -1, 0]
              - euler_states(fam, grid.dt, dm[None])[0, -1, 0]) / (2 * h)
        ref = G[k, 0, 0]
        assert abs(fd - ref) / max(abs(ref), 1e-10) <= 1e-5  # [DERIVED]


def test_flow_factorization_consistency(dw2):
    # G_k equals (flow from k+1 to N) sigma(X_k) to relative error 1e-10,
    # with the flow P_{k+1} = A_{N-1} ... A_{k+1} built here from the
    # model's step Jacobians A_m = I + grad b dt + grad sigma dW_m
    fam, grid, dW = _path(dw2, 4.0, 32, seed=2, horizon=0.5)
    ch = _flow(fam, grid, dW)
    X = ch.X[0]
    P = np.eye(2)
    for k in reversed(range(grid.steps)):
        fac = P @ fam.diffusion(X[k])
        assert np.allclose(fac, ch.G[0, k], rtol=1e-10, atol=1e-13)
        A = (np.eye(2) + fam.drift_jac(X[k]) * grid.dt
             + np.einsum("ilp,l->ip", fam.diffusion_jac(X[k]), dW[k]))
        P = P @ A


@pytest.mark.parametrize("step", [0.0, 1e-100])
def test_chain_is_batch_independent(dw2, step):
    # every path of a batch is the same as that path alone; with B = d = 2 a
    # batch index swapped with a coordinate index raises no shape error
    fam = TruncationFamily(dw2, 0.3)
    grid = TimeGrid(0.5, 16)
    dW = sample_noise_block(grid, 4, 0, 2, dw2.dim)
    if step:
        dW = dW + 1j * step * dW[::-1, ::-1]
    ch = chain_batch(fam, grid.dt, dW)
    assert np.all(np.any(np.linalg.norm(ch.X.real, axis=-1) > 0.3, axis=1))
    for b in range(2):
        one = chain_batch(fam, grid.dt, dW[b:b + 1])
        for name in ("X", "G", "Q", "delta", "gamma"):
            for part in (np.real, np.imag) if step else (np.real,):
                got, want = part(getattr(ch, name)[b]), part(getattr(one, name)[0])
                scale = np.max(np.abs(want))
                assert scale > 0 and np.max(np.abs(got - want)) <= 1e-15 * scale, (
                    name, part.__name__, b)


# ---------------------------------------------------------------------------
# Covariance matrix
# ---------------------------------------------------------------------------

def test_cov_gram_structure_brownian(bm):
    fam, grid, dW = _path(bm, 50.0, 64)
    ch = _flow(fam, grid, dW)
    # [TRIVIAL] Q = sigma sigma* T up to summation round-off
    assert abs(ch.Q[0, 0, 0] - 1.0) <= 1e-12
    assert ch.det_q[0] == pytest.approx(1.0, rel=1e-12)
    assert ch.Qinv[0, 0, 0] == pytest.approx(1.0, rel=1e-12)


def test_cov_ou_geometric_sum():
    m = OrnsteinUhlenbeckModel(dim=1, x0=[0.0], kappa=1.0,
                               mu=[0.0], sigma0=1.0)
    fam, grid, dW = _path(m, 50.0, 128)
    Q = _flow(fam, grid, dW).Q[0]
    a = 1 - grid.dt
    expected = grid.dt * (1 - a ** (2 * grid.steps)) / (1 - a * a)
    assert Q[0, 0] == pytest.approx(expected, rel=1e-12)  # [DERIVED]
    # continuum limit (1 - e^-2)/2 is approached at order dt
    assert Q[0, 0] == pytest.approx((1 - np.exp(-2)) / 2, abs=0.01)


def test_cov_degenerate_raises():
    m = BrownianModel(dim=1, x0=[0.0], sigma0=0.0)
    fam, grid, dW = _path(m, 8.0, 8)
    ch = _flow(fam, grid, dW)
    assert ch.degenerate[0]
    with pytest.raises(DegenerateCovarianceError):
        count_drops(~ch.degenerate, 1)


@pytest.mark.parametrize("sigma0,degenerate", [(1.0, False), (1e-14, False), (0.0, True)])
def test_degeneracy_is_scale_free(sigma0, degenerate):
    # Q = sigma0^2 T I: perfectly conditioned at any sigma0 > 0, even where
    # det Q = 1e-56 is far below any absolute floor
    m = BrownianModel(dim=2, x0=[0.0, 0.0], sigma0=sigma0)
    fam = TruncationFamily(m, 8.0)
    grid = TimeGrid(1.0, 8)
    ch = chain_batch(fam, grid.dt, sample_noise_block(grid, 0, 0, 10, 2))
    assert np.all(ch.degenerate == degenerate)
    if not degenerate:
        assert np.allclose(ch.Qinv @ ch.Q, np.eye(2), rtol=0, atol=1e-12)


def test_cov_psd_double_well(dw2):
    fam, grid, dW = _path(dw2, 4.0, 32, seed=7, horizon=0.5)
    Q = _flow(fam, grid, dW).Q[0]
    eigs = np.linalg.eigvalsh(Q)
    assert np.all(eigs >= 0)
    assert np.allclose(Q, Q.T, atol=1e-14)


# ---------------------------------------------------------------------------
# Second derivative chains
# ---------------------------------------------------------------------------

def test_second_chain_linear_model_is_zero():
    m = OrnsteinUhlenbeckModel(dim=1, x0=[0.3], kappa=1.0,
                               mu=[0.0], sigma0=1.0)
    fam, grid, dW = _path(m, 50.0, 16)
    sd = second_derivative_chain(fam, grid.dt, dW)
    assert np.all(sd == 0.0)  # [TRIVIAL]


def test_second_chain_symmetry_and_fd(dw1):
    fam, grid, dW = _path(dw1, 4.0, 32, seed=3)
    sd = second_derivative_chain(fam, grid.dt, dW)
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
                dw = dW.copy()
                dw[j, 0] += (1 if sj else -1) * h
                dw[k, 0] += (1 if sk else -1) * h
                vals[sj, sk] = euler_states(fam, grid.dt, dw[None])[0, -1, 0]
        fd = (vals[1, 1] - vals[1, 0] - vals[0, 1] + vals[0, 0]) / (4 * h * h)
        ref = sd[j, k, 0, 0, 0]
        assert abs(fd - ref) / max(abs(ref), 1e-6) <= 1e-3


def test_second_chain_fd_2d(dw2):
    fam, grid, dW = _path(dw2, 4.0, 16, seed=4, horizon=0.5)
    sd = second_derivative_chain(fam, grid.dt, dW)
    h = 1e-4
    rng = np.random.default_rng(2)
    for _ in range(8):
        j, k = rng.integers(0, grid.steps, 2)
        a, b = rng.integers(0, 2, 2)
        vals = np.zeros((2, 2, 2))
        for sj in (0, 1):
            for sk in (0, 1):
                dw = dW.copy()
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

def _check_reductions(fam, grid, dW):
    """delta and gamma of chain_batch against the O(N^2) reference; returns X."""
    N, d = dW.shape
    ch = chain_batch(fam, grid.dt, dW[None])
    sd = second_derivative_chain(fam, grid.dt, dW)
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
    return ch.X[0]


@pytest.mark.parametrize("which", ["dw1", "dw2"])
def test_divergence_and_cov_derivative_reductions(which, dw1, dw2):
    model, T = {"dw1": (dw1, 1.0), "dw2": (dw2, 0.5)}[which]
    _check_reductions(*_path(model, 4.0, 12, seed=6, horizon=T))


@pytest.mark.parametrize("which", ["dw1", "dw2"])
def test_reductions_on_a_path_that_leaves_the_ball(which, dw1, dw2):
    # the clamp branch of E (K2 terms) feeds tA only outside the ball
    model, T = {"dw1": (dw1, 1.0), "dw2": (dw2, 0.5)}[which]
    X = _check_reductions(*_path(model, 0.5, 12, seed=6, horizon=T))
    assert np.any(np.linalg.norm(X, axis=-1) > 0.5)


@pytest.mark.parametrize("which,level", [("dw1", 1.0), ("dw2", 1.5)])
def test_cov_derivative_is_complex_step_of_q(which, level, dw1, dw2):
    # gamma[:, j] is the derivative of Q along dt G[:, :, j, :]; a complex
    # step through the flow alone gives it with no subtractive error
    model, T = {"dw1": (dw1, 1.0), "dw2": (dw2, 0.5)}[which]
    fam = TruncationFamily(model, level)
    grid = TimeGrid(T, 16)
    dW = sample_noise_block(grid, 8, 0, 200, model.dim)
    ch = chain_batch(fam, grid.dt, dW)
    assert np.any(np.linalg.norm(ch.X, axis=-1) > level)
    for j in range(model.dim):
        step = (1j * 1e-100 * grid.dt) * ch.G[:, :, j, :]
        cs = chain_batch(fam, grid.dt, dW + step).Q.imag / 1e-100
        err = np.max(np.abs(cs - ch.gamma[:, j]), axis=(1, 2))
        scale = np.max(np.abs(ch.gamma[:, j]), axis=(1, 2))
        assert np.all(err <= 1e-12 * scale)


@pytest.mark.parametrize("step", [0.0, 1e-100])
def test_q_from_recursion_is_dt_gram_of_g(dw2, step):
    # Q = dt S_N from the covariance recursion equals dt sum_k G_k G_k^T,
    # in the real part and in the complex-step part
    fam = TruncationFamily(dw2, 1.5)
    grid = TimeGrid(0.5, 16)
    dW = sample_noise_block(grid, 3, 0, 200, dw2.dim)
    if step:
        dW = dW + 1j * step * dW[::-1]
    ch = chain_batch(fam, grid.dt, dW)
    assert np.any(np.linalg.norm(ch.X.real, axis=-1) > 1.5)  # both branches run
    gram = grid.dt * np.einsum("bkia,bkja->bij", ch.G, ch.G)
    for part in (np.real, np.imag) if step else (np.real,):
        err = np.max(np.abs(part(ch.Q) - part(gram)), axis=(1, 2))
        scale = np.max(np.abs(part(gram)), axis=(1, 2))
        assert np.all(scale > 0) and np.all(err <= 1e-13 * scale), part.__name__


# ---------------------------------------------------------------------------
# Step blocks built batch last against the batch-first formulation
# ---------------------------------------------------------------------------

def _batch_first_steps(model, dt, dW, hess=False):
    """`malliavin._steps` as formulated batch first: every model callable on
    the whole (B, N, d) states, the dW contractions batch first, and each
    array moved batch last whole."""
    d = dW.shape[-1]
    X = euler_states(model, dt, dW)
    Xk = X[:, :-1, :]
    Js = model.diffusion_jac(Xk)
    A = model.drift_jac(Xk) * dt
    A += np.eye(d, dtype=dW.dtype)
    A += np.einsum("bnilp,bnl->bnip", Js, dW)
    E = None
    if hess:
        E = model.drift_hess(Xk) * dt
        E += np.einsum("bnilpq,bnl->bnipq", model.diffusion_hess(Xk), dW)
        E = malliavin._last(E)
    return X, malliavin._last(model.diffusion(Xk)), malliavin._last(Js), malliavin._last(A), E


def _batch_first_pairing(model, ch, i1, i2):
    """`malliavin._inner_pairing` with w built from the batch-first view of G."""
    w = ch.dt * np.einsum("bj,bkja->bka", ch.Qinv[:, i2], ch.G)
    hc = malliavin.weight_from_chain(
        chain_batch(model, ch.dt, ch.dW + (1j * malliavin._CSTEP) * w), i1)
    return hc.imag / malliavin._CSTEP


_CHAIN_FIELDS = ("dW", "X", "G", "Q", "Qinv", "det_q", "degenerate", "delta", "gamma",
                 "sig", "Js", "A", "E", "S", "P")


@pytest.mark.parametrize("which,level,leave", [
    ("dw2", 4.0, "none"), ("dw2", 1.5, "some"), ("dw2", 1.0, "most"),
    ("dw1", 4.0, "none"), ("dw1", 1.0, "some"), ("ou", 8.0, "none"), ("bm2", 8.0, "none")])
def test_step_blocks_are_bitwise_the_batch_first_chain(which, level, leave, dw1, dw2, ou,
                                                       monkeypatch):
    # every ChainBatch field and flow's (X, S) equal the batch-first
    # formulation bit for bit, real and complex-step, for one path, a batch in
    # one step block and a batch whose blocks do not divide N; the order-2
    # weights, whose pairing is a real tangent pass here and a complex step
    # through the batch-first chain in the reference, agree to 1e-12 relative
    model = {"dw1": dw1, "dw2": dw2, "ou": ou,
             "bm2": BrownianModel(dim=2, x0=[0.0, 0.0])}[which]
    fam = TruncationFamily(model, level)
    grid = TimeGrid(0.5 if which == "dw2" else 1.0, 16)
    d = model.dim
    alphas = [(i,) for i in range(d)] + [(i, j) for i in range(d) for j in range(i, d)]
    for B in (1, 50, {1: 5000, 2: 700}[d]):
        step = max(1, malliavin._BLOCK_WORDS // (B * d * d))
        assert B < 700 or (step < grid.steps and grid.steps % step)
        dW = sample_noise_block(grid, 3, 0, B, d)
        for cstep in (0.0, 1e-100):
            dw = dW + 1j * cstep * dW[::-1] if cstep else dW
            got = chain_batch(fam, grid.dt, dw)
            got_flow = flow(fam, grid.dt, dw)
            got_h = None if cstep else weights_from_chain(fam, got, alphas)
            with monkeypatch.context() as mp:
                mp.setattr(malliavin, "_steps", _batch_first_steps)
                mp.setattr(malliavin, "_inner_pairing", _batch_first_pairing)
                want = chain_batch(fam, grid.dt, dw)
                want_flow = flow(fam, grid.dt, dw)
                want_h = None if cstep else weights_from_chain(fam, want, alphas)
            pairs = [(name, getattr(got, name), getattr(want, name)) for name in _CHAIN_FIELDS]
            pairs += [("flow X", got_flow[0], want_flow[0]), ("flow S", got_flow[1], want_flow[1])]
            for name, g, w in pairs:
                assert g.dtype == w.dtype and np.array_equal(g, w), (name, B, cstep)
            for a, g, w in zip(alphas, got_h or [], want_h or []):
                assert g.dtype == w.dtype, a
                if len(a) == 1:
                    assert np.array_equal(g, w), (a, B)
                else:
                    assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w)), (a, B)
        if B > 1:
            frac = np.mean(np.any(np.linalg.norm(got.X[:, :-1].real, axis=-1) > level, axis=1))
            assert {"none": frac == 0, "some": 0 < frac < 1, "most": frac > 0.5}[leave], frac


@pytest.mark.parametrize("which,level,B,N", [
    ("dw2", 1.5, 1000, 12), ("dw2", 1.0, 50, 16), ("dw1", 1.0, 700, 16)])
@pytest.mark.parametrize("cstep", [0.0, 1e-100])
def test_chain_is_a_function_of_dw_values_alone(which, level, B, N, cstep, dw1):
    # the same dW values in each of the six memory orders of (B, N, d) give
    # every ChainBatch field, and the order-2 weights, bit for bit
    model = {"dw1": dw1, "dw2": DoubleWell2DModel(x0=[0.5, 0.0])}[which]
    fam = TruncationFamily(model, level)
    grid = TimeGrid(0.5 if which == "dw2" else 1.0, N)
    d = model.dim
    dW = sample_noise_block(grid, 3, 0, B, d)
    if cstep:
        dW = dW + 1j * cstep * sample_noise_block(grid, 4, 0, B, d)
    alphas = [(i, j) for i in range(d) for j in range(d)]
    want = None
    for perm in itertools.permutations(range(3)):
        dw = np.ascontiguousarray(dW.transpose(perm)).transpose(np.argsort(perm))
        assert np.array_equal(dw, dW)
        ch = chain_batch(fam, grid.dt, dw)
        got = [getattr(ch, name) for name in _CHAIN_FIELDS]
        got += [] if cstep else weights_from_chain(fam, ch, alphas)
        if want is None:
            want = got
        for name, g, w in zip(_CHAIN_FIELDS + tuple(map(str, alphas)), got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w), (name, perm)


def test_complex_chain_memory_peak_below_batch_first_peak():
    # one complex-step chain at the density-2d chunk shape (B = 2000, N = 32,
    # d = 2).  This code reads a tracemalloc peak of 55.5 MB on the batch-first
    # formulation, which made full-size (B, N, ...) tensors and moved them
    # batch last whole, and 41.7 MB on the step blocks
    m = DoubleWell2DModel(x0=[0.0, 0.0])
    fam = TruncationFamily(m, 4.0)
    grid = TimeGrid(0.5, 32)
    dW = sample_noise_block(grid, 0, 0, 2000, m.dim)
    dW = dW + 1j * 1e-100 * dW
    tracemalloc.start()
    try:
        chain_batch(fam, grid.dt, dW)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48e6, peak / 1e6


def test_order2_weights_memory_peak_below_complex_pass_peak():
    # one real chain and its order-1 and order-2 weights at the density-1d
    # chunk shape (B = 8192, N = 64, d = 1).  This code reads a tracemalloc
    # peak of 90.8 MB when the order-2 pairing re-runs the whole chain on a
    # complex dW, and 61.7 MB with the real tangent pass over the stored chain
    m = DoubleWell1DModel(x0=[0.3], sigma0=0.8)
    fam = TruncationFamily(m, 4.0)
    grid = TimeGrid(1.0, 64)
    dW = sample_noise_block(grid, 0, 0, 8192, m.dim)
    tracemalloc.start()
    try:
        weights_from_chain(fam, chain_batch(fam, grid.dt, dW), [(0,), (0, 0)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 76e6, peak / 1e6


# ---------------------------------------------------------------------------
# Skorokhod divergence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("adapted", [True, False])
def test_skorokhod_centered(adapted):
    # E[delta(u)] = 0 within 3 SE for adapted and non-adapted integrands
    g = TimeGrid(1.0, 16)
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

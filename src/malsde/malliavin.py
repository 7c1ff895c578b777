"""Exact discrete Malliavin calculus on Euler chains.

The chain X_0..X_N is a smooth function of the Gaussian increment vector
(dW_0..dW_{N-1}), so derivative chains, the covariance matrix Q, the
Skorokhod divergence and the integration-by-parts weights are all computed
as exact finite-dimensional objects.  The IBP identity
E[d_alpha g(X_N) G] = E[g(X_N) H_alpha] then holds exactly at every N.

Per-path cost is O(N d^3) for first-order weights:
  * G_k = P_{k+1} sigma(X_k) with P the suffix product of the step Jacobians
    A_m = I + grad b dt + grad sigma dW_m;
  * the diagonal second-derivative sum (the divergence trace term) collapses
    to sum_m Lambda_m(S_m) with S_{m+1} = A_m S_m A_m^T + sigma sigma^T;
  * derivatives of Q entering the weight appear only contracted against the
    rows of G, i.e. as d directional derivatives, propagated by an analytic
    tangent (JVP) pass.
Iterated weights (|alpha| = 2) additionally need directional derivatives of
the inner weight; these are obtained by complex-step differentiation through
the (everywhere complex-analytic) first-order pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simulate import EulerChain, NoisePath, euler_states

DET_Q_FLOOR = 1e-30
_CSTEP = 1e-100


class DegenerateCovarianceError(RuntimeError):
    """det Q fell below the floating-point floor; covariance not invertible."""


# ---------------------------------------------------------------------------
# Chain quantities
# ---------------------------------------------------------------------------

@dataclass
class ChainBatch:
    """All per-path quantities needed by the weight formulas.

    Shapes (B = paths, N = steps, d = dim):
      X (B,N+1,d), sig/A (B,N,d,d), E (B,N,d,d,d) or None without weight
      terms, P (B,N+1,d,d),
      G (B,N,d,d) with G[b,k,i,a] = dX_N^i / dW_k^a,
      Q/Qinv (B,d,d), det_q (B,), delta (B,d) = divergence of row j of DX,
      gamma (B,d,d,d) with gamma[b,j] = dt * sum_{k,a} (D_k^a Q) G[b,k,j,a].
    """

    dt: float
    dW: np.ndarray
    X: np.ndarray
    sig: np.ndarray
    A: np.ndarray
    E: np.ndarray | None
    Js: np.ndarray
    P: np.ndarray
    G: np.ndarray
    Q: np.ndarray
    det_q: np.ndarray
    Qinv: np.ndarray
    degenerate: np.ndarray
    delta: np.ndarray | None = None
    gamma: np.ndarray | None = None


def _suffix_products(A):
    B, N, d, _ = A.shape
    P = np.empty((B, N + 1, d, d), dtype=A.dtype)
    P[:, N] = np.eye(d, dtype=A.dtype)
    for m in range(N - 1, -1, -1):
        P[:, m] = P[:, m + 1] @ A[:, m]
    return P


def chain_batch(model, dt, dW, want_weight_terms=True) -> ChainBatch:
    """Forward/backward passes producing every ChainBatch field.

    Without weight terms only the flow (G, Q, Qinv) is built: no second
    derivatives of the model are evaluated and E, delta, gamma stay None.
    Accepts complex dW; every operation is complex-analytic so the whole
    object supports complex-step differentiation.
    """
    dW = np.asarray(dW)
    B, N, d = dW.shape
    X = euler_states(model, dt, dW)
    Xk = X[:, :-1, :]
    sig = model.diffusion(Xk)
    Jb = model.drift_jac(Xk)
    Js = model.diffusion_jac(Xk)
    eye = np.eye(d, dtype=dW.dtype)
    A = eye + Jb * dt + np.einsum("bnilp,bnl->bnip", Js, dW)
    E = None
    if want_weight_terms:
        # E[b,n,i,p,q] = d(A_n)_{ip} / dX_n^q
        E = (model.drift_hess(Xk) * dt
             + np.einsum("bnilpq,bnl->bnipq", model.diffusion_hess(Xk), dW))
    P = _suffix_products(A)
    G = np.einsum("bnij,bnjl->bnil", P[:, 1:], sig)
    Q = dt * np.einsum("bkia,bkja->bij", G, G)

    det_q = np.linalg.det(Q)
    degenerate = np.real(det_q) <= DET_Q_FLOOR
    Q_safe = np.where(degenerate[:, None, None], eye, Q)
    Qinv = np.linalg.inv(Q_safe)

    ch = ChainBatch(dt=dt, dW=dW, X=X, sig=sig, A=A, E=E, Js=Js, P=P, G=G,
                    Q=Q, det_q=det_q, Qinv=Qinv, degenerate=degenerate)
    if want_weight_terms:
        ch.delta = _row_divergences(ch)
        ch.gamma = _cov_row_derivatives(ch)
    return ch


def _row_divergences(ch: ChainBatch):
    """delta_j = sum_k G[k,j,:].dW_k - dt * sum_{k,a} D_k^a G[k,j,a].

    The trace part is sum_m Lambda_m(S_m): S_m = sum_{k<m} D_kX_m (D_kX_m)^T
    satisfies S_{m+1} = A_m S_m A_m^T + sigma_m sigma_m^T, and
    Lambda_m(C)_j = (P_{m+1})_{jq} E_m[q,r,p] C_{rp}.
    """
    B, N, d = ch.dW.shape
    S = np.zeros((B, d, d), dtype=ch.dW.dtype)
    S_all = np.empty((B, N, d, d), dtype=ch.dW.dtype)
    for m in range(N):
        S_all[:, m] = S
        AS = ch.A[:, m] @ S
        S = AS @ np.swapaxes(ch.A[:, m], -1, -2) + ch.sig[:, m] @ np.swapaxes(ch.sig[:, m], -1, -2)
    diag2 = np.einsum("bmjq,bmqrp,bmrp->bj", ch.P[:, 1:], ch.E, S_all)
    ito = np.einsum("bkja,bka->bj", ch.G, ch.dW)
    return ito - ch.dt * diag2


def _cov_row_derivatives(ch: ChainBatch):
    """gamma[b,j] = directional derivative of Q along v^j_{k,a} = dt G[b,k,j,a].

    One analytic tangent pass, vectorized over the d directions.
    """
    B, N, d = ch.dW.shape
    V = ch.dt * np.transpose(ch.G, (0, 2, 1, 3))  # (B, j, k, a)
    tX = np.zeros((B, d, d), dtype=ch.dW.dtype)   # (B, j, i)
    tA = np.empty((B, d, N, d, d), dtype=ch.dW.dtype)
    tsig = np.empty((B, d, N, d, d), dtype=ch.dW.dtype)
    for m in range(N):
        tsig[:, :, m] = np.einsum("bilp,bjp->bjil", ch.Js[:, m], tX)
        tA[:, :, m] = (
            np.einsum("bipq,bjq->bjip", ch.E[:, m], tX)
            + np.einsum("bilp,bjl->bjip", ch.Js[:, m], V[:, :, m])
        )
        tX = (
            np.einsum("bip,bjp->bji", ch.A[:, m], tX)
            + np.einsum("bil,bjl->bji", ch.sig[:, m], V[:, :, m])
        )
    tQ = np.zeros((B, d, d, d), dtype=ch.dW.dtype)
    tP = np.zeros((B, d, d, d), dtype=ch.dW.dtype)  # tP_{k+1}, starts at tP_N = 0
    for k in range(N - 1, -1, -1):
        tG = (
            np.einsum("bjip,bpl->bjil", tP, ch.sig[:, k])
            + np.einsum("bip,bjpl->bjil", ch.P[:, k + 1], tsig[:, :, k])
        )
        tQ += (
            np.einsum("bjia,bqa->bjiq", tG, ch.G[:, k])
            + np.einsum("bia,bjqa->bjiq", ch.G[:, k], tG)
        )
        tP = (
            np.einsum("bjip,bpq->bjiq", tP, ch.A[:, k])
            + np.einsum("bip,bjpq->bjiq", ch.P[:, k + 1], tA[:, :, k])
        )
    return ch.dt * tQ


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

def weight_from_chain(ch: ChainBatch, i: int, g_value=None, g_pairing=None):
    """H_{(i)}(G) per path from precomputed chain quantities.

    H_{(i)}(G) = sum_j [ G Qinv_{ij} delta_j + G (Qinv gamma^j Qinv)_{ij}
                         - Qinv_{ij} <DG, DX^j> ]
    with <DG, DX^j> = dt sum_{k,a} (D_k^a G) G[k,j,a] passed as g_pairing.
    G defaults to the constant 1.
    """
    qrow = ch.Qinv[:, i, :]
    base = np.einsum("bj,bj->b", qrow, ch.delta)
    base = base + np.einsum("bp,bjpq,bqj->b", qrow, ch.gamma, ch.Qinv)
    if g_value is None:
        return base
    return g_value * base - np.einsum("bj,bj->b", qrow, g_pairing)


def _inner_pairing(model, ch: ChainBatch, i: int):
    """<D H_(i), DX^j> per path and j, by a complex step along dt G[:, :, j, :]."""
    B, N, d = ch.dW.shape
    pair = np.empty((B, d), dtype=ch.dW.dtype)
    for j in range(d):
        v = ch.dt * ch.G[:, :, j, :]
        hc = weight_from_chain(chain_batch(model, ch.dt, ch.dW + (1j * _CSTEP) * v), i)
        pair[:, j] = hc.imag / _CSTEP
    return pair


def weights_from_chain(model, ch: ChainBatch, alphas):
    """H_alpha(1) per path for each alpha in alphas (0-based coords, |alpha|
    in {1, 2}), all from the one chain `ch`.

    For alpha = (i1, i2) the recursion H_alpha = H_{i2}(H_{(i1)}) is used, with
    the pairings <D H_(i1), DX^j> from complex-step differentiation of the
    first-order pipeline.  Each H_(i1) and its pairings are computed once.
    """
    alphas = [tuple(int(a) for a in alpha) for alpha in alphas]
    if any(len(alpha) not in (1, 2) for alpha in alphas):
        raise ValueError("weights are implemented for |alpha| <= 2 only")
    inner = {i: weight_from_chain(ch, i) for i in sorted({a[0] for a in alphas})}
    pairs = {i: _inner_pairing(model, ch, i)
             for i in sorted({a[0] for a in alphas if len(a) == 2})}
    return [inner[a[0]] if len(a) == 1 else
            weight_from_chain(ch, a[1], g_value=inner[a[0]], g_pairing=pairs[a[0]])
            for a in alphas]


def weight_alpha(model, dt, dW, alpha):
    """H_alpha(1) per path for |alpha| in {1, 2} (alpha holds 0-based coords).

    Returns (H, ChainBatch).
    """
    ch = chain_batch(model, dt, dW)
    return weights_from_chain(model, ch, [alpha])[0], ch


# ---------------------------------------------------------------------------
# Per-path API: derivative chains, covariance, divergence, weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivativeChain:
    """first[k] = dX_N / dW_k (d x d); jacobian_flow[m] = A_{N-1}...A_m."""

    first: np.ndarray            # (N, d, d)
    jacobian_flow: np.ndarray    # (N+1, d, d)


@dataclass(frozen=True)
class SecondDerivativeChain:
    """second[j, k, i, a, b] = d^2 X_N^i / dW_j^a dW_k^b (symmetric)."""

    second: np.ndarray           # (N, N, d, d, d)


@dataclass(frozen=True)
class CovMatrix:
    Q: np.ndarray
    det_q: float
    q_inverse: np.ndarray | None


@dataclass(frozen=True)
class WeightValue:
    value: float
    increment_derivatives: np.ndarray | None = None  # (N, d): D_k^a of value


def derivative_chain(chain: EulerChain, fam) -> DerivativeChain:
    """Exact dX_N / dW_k for one chain via the forward flow recursion."""
    ch = chain_batch(fam, chain.grid.dt, chain.noise.increments[None], want_weight_terms=False)
    return DerivativeChain(first=ch.G[0], jacobian_flow=ch.P[0])


def malliavin_cov(deriv: DerivativeChain, dt: float) -> CovMatrix:
    """Q = dt sum_k G_k G_k^T, with determinant and (guarded) inverse."""
    G = deriv.first
    Q = dt * np.einsum("kia,kja->ij", G, G)
    det_q = float(np.linalg.det(Q))
    eigs = np.linalg.eigvalsh(0.5 * (Q + Q.T))
    if np.min(eigs) < -1e-10 * max(1.0, np.max(np.abs(eigs))):
        raise DegenerateCovarianceError("covariance matrix not positive semidefinite")
    if det_q <= DET_Q_FLOOR:
        raise DegenerateCovarianceError(f"det Q = {det_q:.3e} below floor")
    return CovMatrix(Q=Q, det_q=det_q, q_inverse=np.linalg.inv(Q))


def second_derivative_chain(chain: EulerChain, fam) -> SecondDerivativeChain:
    """Full second-derivative tensor by differentiating the flow recursion.

    O(N^2) storage; intended for moderate N (oracles and validation).
    """
    dt = chain.grid.dt
    dW = chain.noise.increments
    N, d = dW.shape
    X = chain.states
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
    return SecondDerivativeChain(second=SD)


def skorokhod(u, noise: NoisePath | np.ndarray, dt: float, du_diag=None) -> float:
    """Discrete Skorokhod divergence of the process u.

    delta(u) = sum_k <u_k, dW_k> - dt * sum_k trace(du_k / dW_k), the exact
    divergence for the Gaussian vector of increments.  `du_diag[k]` is the
    d x d matrix of diagonal increment-derivatives d u_k^a / d dW_k^b; omit it
    for deterministic (or increment-independent) integrands.
    """
    dW = noise.increments if isinstance(noise, NoisePath) else np.asarray(noise)
    u = np.atleast_2d(np.asarray(u, dtype=float))
    ito = float(np.sum(u * dW))
    if du_diag is None:
        return ito
    du = np.asarray(du_diag, dtype=float)
    return ito - dt * float(np.trace(du, axis1=-2, axis2=-1).sum())


def _single_path_weight(chain: EulerChain, fam, alpha):
    dt = chain.grid.dt
    dW = chain.noise.increments[None]
    H, ch = weight_alpha(fam, dt, dW, alpha)
    if bool(ch.degenerate[0]):
        raise DegenerateCovarianceError("degenerate covariance on this path")
    return float(H[0].real if np.iscomplexobj(H) else H[0])


def ibp_weight_first(chain: EulerChain, fam, i: int = 0,
                     with_increment_derivatives: bool = False) -> WeightValue:
    """First-order IBP weight H_{(i)}(1) for one chain.

    When requested, the full family D_k^a H (needed to feed this weight into a
    further integration by parts) is evaluated by complex steps along every
    unit increment direction; this is O(N d) weight evaluations, meant for
    moderate N.
    """
    value = _single_path_weight(chain, fam, (i,))
    inc = None
    if with_increment_derivatives:
        dt = chain.grid.dt
        dW = chain.noise.increments
        N, d = dW.shape
        inc = np.empty((N, d))
        for k in range(N):
            for a in range(d):
                v = np.zeros((1, N, d))
                v[0, k, a] = 1.0
                ch = chain_batch(fam, dt, dW[None] + (1j * _CSTEP) * v)
                inc[k, a] = float(weight_from_chain(ch, i)[0].imag) / _CSTEP
    return WeightValue(value=value, increment_derivatives=inc)


def ibp_weight_iterated(chain: EulerChain, fam, alpha) -> WeightValue:
    """Iterated IBP weight H_alpha(1) for |alpha| in {1, 2}."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) > 2:
        raise ValueError("weights of order |alpha| > 2 are not supported")
    return WeightValue(value=_single_path_weight(chain, fam, alpha))


# ---------------------------------------------------------------------------
# Gauss-Hermite oracle for the IBP identity
# ---------------------------------------------------------------------------

def quadrature_oracle(fam, steps, g_derivatives, alpha, nodes=64, horizon=None):
    """Verify E[d_alpha g(X_N) ] = E[g(X_N) H_alpha] by tensor quadrature.

    d = 1 and steps <= 3 so the increment space is at most 3-dimensional;
    both expectations are computed with `nodes` Gauss-Hermite points per
    dimension.  `g_derivatives` is a sequence (g, g', g'', ...) of callables.
    Returns (lhs, rhs, gap).
    """
    if fam.dim != 1:
        raise ValueError("quadrature oracle is one-dimensional")
    if steps > 3:
        raise ValueError("steps must be <= 3 for the tensor oracle")
    if nodes < 40:
        raise ValueError("need at least 40 quadrature nodes per dimension")
    alpha = tuple(int(a) for a in alpha)
    T = fam.horizon if horizon is None else float(horizon)
    dt = T / steps
    z, w = np.polynomial.hermite.hermgauss(nodes)
    grids = np.meshgrid(*([z] * steps), indexing="ij")
    dW = np.sqrt(2.0 * dt) * np.stack([g.ravel() for g in grids], axis=1)[:, :, None]
    wgrids = np.meshgrid(*([w] * steps), indexing="ij")
    wt = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1) / np.pi ** (steps / 2.0)

    H, ch = weight_alpha(fam, dt, dW, alpha)
    XN = ch.X[:, -1, 0]
    g0 = g_derivatives[0]
    gm = g_derivatives[len(alpha)]
    lhs = float(np.sum(wt * gm(XN)))
    rhs = float(np.sum(wt * g0(XN) * H))
    return lhs, rhs, abs(lhs - rhs)

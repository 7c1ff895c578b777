"""Exact discrete Malliavin calculus on Euler chains.

The chain X_0..X_N is a smooth function of the Gaussian increment vector
(dW_0..dW_{N-1}), so derivative chains, the covariance matrix Q, the row
divergences and the integration-by-parts weights are all computed as exact
finite-dimensional objects.  The IBP identity
E[d_alpha g(X_N) G] = E[g(X_N) H_alpha] then holds exactly at every N.

`flow`, `chain_batch` and `weights_from_chain` work on (paths, steps, dim)
batches; a single path is a batch of one.  Per-path cost is O(N d^3) for
first-order weights:
  * G_k = P_{k+1} sigma(X_k) with P the suffix product of the step Jacobians
    A_m = I + grad b dt + grad sigma dW_m;
  * `flow` runs S_{m+1} = A_m S_m A_m^T + sigma sigma^T, so Q(t_k) = dt S_k
    and Q = dt S_N; the diagonal second-derivative sum (the divergence trace
    term) collapses to sum_m Lambda_m(S_m);
  * derivatives of Q entering the weight appear only contracted against the
    rows of G, i.e. as d directional derivatives; since Q = dt S_N they come
    from one forward tangent-linear pass of the S recursion, with no stored
    per-step tangents and no backward pass.
Iterated weights H_(i1,i2) = H_(i1) H_(i2) - <D H_(i1), sum_j Qinv_{i2 j} DX^j>
additionally need one directional derivative of the inner weight, along
w = dt sum_j Qinv_{i2 j} G[:, :, j, :]; it is obtained by one complex step
through the (everywhere complex-analytic) first-order pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .simulate import euler_states

# det Q / prod diag Q lies in [0, 1] (Hadamard) and is invariant under
# rescaling a coordinate; a path whose ratio is not above this is degenerate
DET_Q_RTOL = 1e-12
_CSTEP = 1e-100


class DegenerateCovarianceError(RuntimeError):
    """Q is numerically singular: det Q <= DET_Q_RTOL prod diag Q, or NaN."""


# ---------------------------------------------------------------------------
# Chain quantities
# ---------------------------------------------------------------------------

@dataclass
class ChainBatch:
    """All per-path quantities needed by the weight formulas.

    Shapes (B = paths, N = steps, d = dim):
      X (B,N+1,d), sig/A (B,N,d,d), E (B,N,d,d,d), P (B,N+1,d,d),
      G (B,N,d,d) with G[b,k,i,a] = dX_N^i / dW_k^a,
      Q = dt S_N and Qinv (B,d,d), det_q (B,), delta (B,d) = divergence of row j of DX,
      gamma (B,d,d,d) with gamma[b,j] = dt * sum_{k,a} (D_k^a Q) G[b,k,j,a].
    """

    dt: float
    dW: np.ndarray
    X: np.ndarray
    sig: np.ndarray
    A: np.ndarray
    E: np.ndarray
    Js: np.ndarray
    P: np.ndarray
    G: np.ndarray
    Q: np.ndarray
    det_q: np.ndarray
    Qinv: np.ndarray
    degenerate: np.ndarray
    delta: np.ndarray = field(init=False)
    gamma: np.ndarray = field(init=False)


def flow(model, dt, dW):
    """(X, sig, Js, A, S) of a batch dW (B,N,d): Euler states, sigma, grad sigma
    and the step Jacobians A_m, and S (B,N+1,d,d) from S_0 = 0,
    S_{m+1} = A_m S_m A_m^T + sigma_m sigma_m^T, so Q(t_k) = dt S_k."""
    dW = np.asarray(dW)
    B, N, d = dW.shape
    X = euler_states(model, dt, dW)
    Xk = X[:, :-1, :]
    sig = model.diffusion(Xk)
    Js = model.diffusion_jac(Xk)
    A = np.eye(d, dtype=dW.dtype) + model.drift_jac(Xk) * dt + np.einsum("bnilp,bnl->bnip", Js, dW)
    S = np.zeros((B, N + 1, d, d), dtype=dW.dtype)
    for m in range(N):
        AS = A[:, m] @ S[:, m]
        S[:, m + 1] = AS @ np.swapaxes(A[:, m], -1, -2) + sig[:, m] @ np.swapaxes(sig[:, m], -1, -2)
    return X, sig, Js, A, S


def _suffix_products(A):
    B, N, d, _ = A.shape
    P = np.empty((B, N + 1, d, d), dtype=A.dtype)
    P[:, N] = np.eye(d, dtype=A.dtype)
    for m in range(N - 1, -1, -1):
        P[:, m] = P[:, m + 1] @ A[:, m]
    return P


def chain_batch(model, dt, dW) -> ChainBatch:
    """Every ChainBatch field from one `flow` pass and one suffix product.

    Accepts complex dW; every operation is complex-analytic so the whole
    object supports complex-step differentiation.
    """
    dW = np.asarray(dW)
    X, sig, Js, A, S = flow(model, dt, dW)
    Xk = X[:, :-1, :]
    # E[b,n,i,p,q] = d(A_n)_{ip} / dX_n^q
    E = (model.drift_hess(Xk) * dt
         + np.einsum("bnilpq,bnl->bnipq", model.diffusion_hess(Xk), dW))
    P = _suffix_products(A)
    G = np.einsum("bnij,bnjl->bnil", P[:, 1:], sig)
    Q = dt * S[:, -1]

    det_q = np.linalg.det(Q)
    diag_prod = np.prod(np.real(np.diagonal(Q, axis1=-2, axis2=-1)), axis=-1)
    degenerate = ~(np.real(det_q) > DET_Q_RTOL * diag_prod)
    Q_safe = np.where(degenerate[:, None, None], np.eye(dW.shape[-1], dtype=dW.dtype), Q)
    Qinv = np.linalg.inv(Q_safe)

    ch = ChainBatch(dt=dt, dW=dW, X=X, sig=sig, A=A, E=E, Js=Js, P=P, G=G,
                    Q=Q, det_q=det_q, Qinv=Qinv, degenerate=degenerate)
    ch.delta = _row_divergences(ch, S)
    ch.gamma = _cov_row_derivatives(ch, S)
    return ch


def _row_divergences(ch: ChainBatch, S):
    """delta_j = sum_k G[k,j,:].dW_k - dt * sum_{k,a} D_k^a G[k,j,a].

    The trace part is sum_m Lambda_m(S_m) with S from `flow`
    (S_m = sum_{k<m} D_kX_m (D_kX_m)^T) and
    Lambda_m(C)_j = (P_{m+1})_{jq} E_m[q,r,p] C_{rp}.
    """
    diag2 = np.einsum("bmjq,bmqrp,bmrp->bj", ch.P[:, 1:], ch.E, S[:, :-1])
    ito = np.einsum("bkja,bka->bj", ch.G, ch.dW)
    return ito - ch.dt * diag2


def _cov_row_derivatives(ch: ChainBatch, S):
    """gamma[b,j] = directional derivative of Q along v^j_{k,a} = dt G[b,k,j,a].

    Q = dt S_N, so gamma[b,j] = dt tS_N with tS the tangent of the S
    recursion along v^j, given S from `flow`.  One forward pass carries tS
    and the state tangent tX for all d directions:
      tA = E.tX + Js.v_m,  tsig = Js.tX,  M = tA S_m A^T + tsig sig^T,
      tS_{m+1} = A tS A^T + M + M^T,  tX_{m+1} = A tX + sig v_m.
    """
    B, N, d = ch.dW.shape
    tX = np.zeros((B, d, d), dtype=ch.dW.dtype)     # (B, j, i)
    tS = np.zeros((B, d, d, d), dtype=ch.dW.dtype)  # (B, j, i, q)
    for m in range(N):
        A, sig, Js = ch.A[:, m], ch.sig[:, m], ch.Js[:, m]
        v = ch.dt * ch.G[:, m]                       # (B, j, a)
        tA = (np.einsum("bipq,bjq->bjip", ch.E[:, m], tX)
              + np.einsum("bilp,bjl->bjip", Js, v))
        tsig = np.einsum("bilp,bjp->bjil", Js, tX)
        M = (np.einsum("bjip,bpr,bqr->bjiq", tA, S[:, m], A, optimize=True)
             + np.einsum("bjil,bql->bjiq", tsig, sig))
        tS = (np.einsum("bip,bjpq,brq->bjir", A, tS, A, optimize=True)
              + M + np.swapaxes(M, -1, -2))
        tX = np.einsum("bip,bjp->bji", A, tX) + np.einsum("bil,bjl->bji", sig, v)
    return ch.dt * tS


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

def weight_from_chain(ch: ChainBatch, i: int):
    """H_{(i)}(1) per path from precomputed chain quantities:
    sum_j [ Qinv_{ij} delta_j + (Qinv gamma^j Qinv)_{ij} ]."""
    qrow = ch.Qinv[:, i, :]
    base = np.einsum("bj,bj->b", qrow, ch.delta)
    return base + np.einsum("bp,bjpq,bqj->b", qrow, ch.gamma, ch.Qinv)


def _inner_pairing(model, ch: ChainBatch, i1: int, i2: int):
    """<D H_(i1), sum_j Qinv_{i2 j} DX^j> per path: the pairing is linear in
    its direction, so one complex step along w = dt sum_j Qinv_{i2 j} G[:, :, j, :]."""
    w = ch.dt * np.einsum("bj,bkja->bka", ch.Qinv[:, i2], ch.G)
    hc = weight_from_chain(chain_batch(model, ch.dt, ch.dW + (1j * _CSTEP) * w), i1)
    return hc.imag / _CSTEP


def weights_from_chain(model, ch: ChainBatch, alphas):
    """H_alpha(1) per path for each alpha in alphas (0-based coords, |alpha|
    in {1, 2}), all from the one chain `ch`.

    For alpha = (i1, i2) the recursion H_alpha = H_{i2}(H_{(i1)})
    = H_(i1) H_(i2) - <D H_(i1), sum_j Qinv_{i2 j} DX^j> is used, with the
    pairing from one complex step through the first-order pipeline.  Each
    H_(i) is computed once, and one complex pass is made per distinct
    order-2 alpha.
    """
    alphas = [tuple(int(a) for a in alpha) for alpha in alphas]
    if any(len(alpha) not in (1, 2) for alpha in alphas):
        raise ValueError("weights are implemented for |alpha| <= 2 only")
    d = ch.dW.shape[-1]
    if any(not 0 <= a < d for alpha in alphas for a in alpha):
        raise ValueError(f"alpha coordinates must name one of the model's {d} dimensions")
    first = {i: weight_from_chain(ch, i) for i in sorted({a for alpha in alphas for a in alpha})}
    second = {a: first[a[0]] * first[a[1]] - _inner_pairing(model, ch, *a)
              for a in sorted({a for a in alphas if len(a) == 2})}
    return [first[a[0]] if len(a) == 1 else second[a] for a in alphas]


def weight_alpha(model, dt, dW, alpha):
    """H_alpha(1) per path for |alpha| in {1, 2} (alpha holds 0-based coords).

    Returns (H, ChainBatch).
    """
    ch = chain_batch(model, dt, dW)
    return weights_from_chain(model, ch, [alpha])[0], ch


# ---------------------------------------------------------------------------
# Gauss-Hermite oracle for the IBP identity
# ---------------------------------------------------------------------------

def quadrature_oracle(fam, steps, funcs, alphas, nodes=64, horizon=None):
    """Verify E[d_alpha g(X_N) ] = E[g(X_N) H_alpha] by tensor quadrature.

    d = 1 and steps <= 3 so the increment space is at most 3-dimensional;
    both expectations are computed with `nodes` Gauss-Hermite points per
    dimension, from one chain on the nodes.  Each entry of `funcs` is a
    sequence (g, g', g'', ...) of callables.  Returns (lhs, rhs, gap) per
    (g, alpha), g outer.
    """
    if fam.dim != 1:
        raise ValueError("quadrature oracle is one-dimensional")
    if steps > 3:
        raise ValueError("steps must be <= 3 for the tensor oracle")
    if nodes < 40:
        raise ValueError("need at least 40 quadrature nodes per dimension")
    T = fam.horizon if horizon is None else float(horizon)
    dt = T / steps
    z, w = np.polynomial.hermite.hermgauss(nodes)
    grids = np.meshgrid(*([z] * steps), indexing="ij")
    dW = np.sqrt(2.0 * dt) * np.stack([g.ravel() for g in grids], axis=1)[:, :, None]
    wgrids = np.meshgrid(*([w] * steps), indexing="ij")
    wt = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1) / np.pi ** (steps / 2.0)

    ch = chain_batch(fam, dt, dW)
    hs = weights_from_chain(fam, ch, alphas)
    XN = ch.X[:, -1, 0]
    out = []
    for g in funcs:
        for alpha, H in zip(alphas, hs):
            lhs = float(np.sum(wt * g[len(alpha)](XN)))
            rhs = float(np.sum(wt * g[0](XN) * H))
            out.append((lhs, rhs, abs(lhs - rhs)))
    return out

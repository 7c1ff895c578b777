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
Inside this module the per-step quantities (sigma, grad sigma, A, its
derivative E, the suffix products P, S and G) are held batch last, as
contiguous (N, d, ..., B) arrays: each of the N steps then contracts whole
(d, ..., B) slices, so a step costs a few vector operations of length B
instead of B tiny matrix products.  The model is called on the step-major
Euler states in blocks of steps, and each block is written batch last
straight into these arrays, so no full-size batch-first tensor is made.
dW is read batch last per block and step major whole (`_row_divergences`),
each in one fixed layout, so the results do not depend on the memory order
of the dW they are given.  The results (`flow`'s X and S, the weight inputs
of `ChainBatch`) have the batch axis first; X, S and G are views of the
arrays they come from.  `ChainBatch` also keeps the batch-last per-step
arrays, for the order-2 weights.
Iterated weights H_(i1,i2) = H_(i1) H_(i2) - <D H_(i1), sum_j Qinv_{i2 j} DX^j>
additionally need one directional derivative of the inner weight, along
w = dt sum_j Qinv_{i2 j} G[:, :, j, :].  It comes from one real forward
tangent pass along w over the stored chain (`_inner_pairing`): the values
are read, only tangents are computed, and complex numbers appear only in
one complex step of the model's second derivatives per step block, which
gives the third derivatives no model provides.
A model with constant sigma (`constant_diffusion`) has no grad sigma and
no grad^2 sigma: its chain holds Js = None, no `diffusion_jac` or
`diffusion_hess` call is made, and every term that would multiply one is
skipped, in the chain and in both tangent passes.  A None value, like a
None tangent, is zero and adds no term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simulate import euler_states

# det Q / prod diag Q lies in [0, 1] (Hadamard) and is invariant under
# rescaling a coordinate; a path whose ratio is not above this is degenerate
DET_Q_RTOL = 1e-12
_CSTEP = 1e-100
# words in one (steps, B, d, d) block of `_steps` (its d^3 and d^4 tensors
# hold d and d^2 times as many): larger blocks raise the peak RSS, smaller
# ones pay the model callables' per-call cost on more blocks
_BLOCK_WORDS = 2 ** 14


class DegenerateCovarianceError(RuntimeError):
    """Q is numerically singular: det Q <= DET_Q_RTOL prod diag Q, or NaN."""


# ---------------------------------------------------------------------------
# Chain quantities
# ---------------------------------------------------------------------------

@dataclass
class ChainBatch:
    """The per-path quantities the weight formulas read, batch axis first,
    and the batch-last per-step arrays they are built from.

    Shapes (B = paths, N = steps, d = dim):
      dW (B,N,d), X (B,N+1,d),
      G (B,N,d,d) with G[b,k,i,a] = dX_N^i / dW_k^a (a view of the
        contiguous batch-last array the chain is built from, which
        np.moveaxis(G, 0, -1) gives back),
      Q = dt S_N and Qinv (B,d,d), det_q and degenerate (B,),
      delta (B,d) = divergence of row j of DX,
      gamma (B,d,d,d) with gamma[b,j] = dt * sum_{k,a} (D_k^a Q) G[b,k,j,a];
    batch last, as `_steps` and `chain_batch` build them:
      sig (N,d,d,B), Js (N,d,d,d,B) = grad sigma, A (N,d,d,B) the step
      Jacobians, E (N,d,d,d,B) their derivatives, S (N+1,d,d,B) and
      P (N,d,d,B) the suffix products; the order-2 weights' tangent pass
      reads them.  Js is None when the model's sigma is constant
      (`constant_diffusion`): its grad sigma terms are skipped, not zeroed.
    """

    dt: float
    dW: np.ndarray
    X: np.ndarray
    G: np.ndarray
    Q: np.ndarray
    Qinv: np.ndarray
    det_q: np.ndarray
    degenerate: np.ndarray
    delta: np.ndarray
    gamma: np.ndarray
    sig: np.ndarray
    Js: np.ndarray | None
    A: np.ndarray
    E: np.ndarray
    S: np.ndarray
    P: np.ndarray


def _last(a):
    """a (B, ...) as a contiguous (..., B) array."""
    return np.ascontiguousarray(np.moveaxis(a, 0, -1))


def _first(a):
    """a (..., B) as a contiguous (B, ...) array."""
    return np.ascontiguousarray(np.moveaxis(a, -1, 0))


def _steps(model, dt, dW, hess=False):
    """Euler states X (B,N+1,d) and, batch last, sigma (N,d,d,B), grad sigma
    Js (N,d,d,d,B) and the step Jacobians A (N,d,d,B); with hess=True also
    E (N,d,d,d,B), E[n,i,p,q] = d(A_n)_{ip} / dX_n^q (else None).  For a
    model with constant sigma, Js is None: `diffusion_jac` and
    `diffusion_hess` are not called and A and E get no dW terms.

    The model is called on the step-major states in blocks of steps whose
    sigma holds about `_BLOCK_WORDS` words.  Each block's values are moved
    batch last straight into the arrays above and contracted there with the
    block's own batch-last slice of dW, so no full-size batch-first tensor
    is made.
    """
    B, N, d = dW.shape
    X = euler_states(model, dt, dW)
    Xs = np.swapaxes(X, 0, 1)  # the contiguous step-major states (N+1, B, d)
    sig = np.empty((N, d, d, B), dtype=dW.dtype)
    A = np.empty_like(sig)
    Js = None if model.constant_diffusion else np.empty((N, d, d, d, B), dtype=dW.dtype)
    E = np.empty((N, d, d, d, B), dtype=dW.dtype) if hess else None
    eye = np.eye(d, dtype=dW.dtype)[..., None]
    step = max(1, _BLOCK_WORDS // (max(B, 1) * d * d))
    for lo in range(0, N, step):
        blk = slice(lo, min(lo + step, N))
        x, w = Xs[blk], _last(dW[:, blk])
        sig[blk] = np.moveaxis(model.diffusion(x), 1, -1)
        np.multiply(np.moveaxis(model.drift_jac(x), 1, -1), dt, out=A[blk])
        A[blk] += eye
        if Js is not None:
            Js[blk] = np.moveaxis(model.diffusion_jac(x), 1, -1)
            A[blk] += np.einsum("nilpb,nlb->nipb", Js[blk], w)
        if hess:
            np.multiply(np.moveaxis(model.drift_hess(x), 1, -1), dt, out=E[blk])
            if Js is not None:
                # a contiguous block copy: einsum's fast loop runs along unit-stride b
                hs = np.ascontiguousarray(np.moveaxis(model.diffusion_hess(x), 1, -1))
                E[blk] += np.einsum("nilpqb,nlb->nipqb", hs, w)
    return X, sig, Js, A, E


def _covariances(A, sig):
    """S (N+1,d,d,B) from S_0 = 0, S_{m+1} = A_m S_m A_m^T + sigma_m sigma_m^T."""
    N, d, _, B = A.shape
    S = np.zeros((N + 1, d, d, B), dtype=A.dtype)
    for m in range(N):
        S[m + 1] = (np.einsum("ipb,pqb,rqb->irb", A[m], S[m], A[m])
                    + np.einsum("ilb,qlb->iqb", sig[m], sig[m]))
    return S


def flow(model, dt, dW):
    """(X, S) of a batch dW (B,N,d): the Euler states X (B,N+1,d) and
    S (B,N+1,d,d) from S_0 = 0, S_{m+1} = A_m S_m A_m^T + sigma_m sigma_m^T
    with A_m the step Jacobians, so Q(t_k) = dt S_k."""
    dW = np.asarray(dW)
    X, sig, _, A, _ = _steps(model, dt, dW)
    return X, np.moveaxis(_covariances(A, sig), -1, 0)


def chain_batch(model, dt, dW) -> ChainBatch:
    """Every ChainBatch field from one Euler pass, one S recursion and one
    suffix product.

    Also accepts complex dW: every operation is complex-analytic, so a
    complex step through the whole chain differentiates it.  That is the
    reference `_inner_pairing`'s real tangent pass is checked against; the
    pipeline itself passes only real dW.
    """
    dW = np.asarray(dW)
    _, N, d = dW.shape
    X, sig, Js, A, E = _steps(model, dt, dW, hess=True)
    S = _covariances(A, sig)
    # P[m] = P_{m+1} = A_{N-1} ... A_{m+1}, so G_m = P[m] sigma_m
    P = np.empty_like(A)
    P[-1] = np.eye(d, dtype=A.dtype)[..., None]
    for m in range(N - 1, 0, -1):
        P[m - 1] = np.einsum("ipb,pjb->ijb", P[m], A[m])
    G = np.einsum("nijb,njlb->nilb", P, sig)
    Q = _first(dt * S[-1])

    det_q = np.linalg.det(Q)
    diag_prod = np.prod(np.real(np.diagonal(Q, axis1=-2, axis2=-1)), axis=-1)
    degenerate = ~(np.real(det_q) > DET_Q_RTOL * diag_prod)
    Q_safe = np.where(degenerate[:, None, None], np.eye(d, dtype=dW.dtype), Q)
    Qinv = np.linalg.inv(Q_safe)

    delta = _row_divergences(dt, dW, G, P, E, S)
    gamma, _ = _cov_row_derivatives(dt, G, sig, Js, A, E, S)
    return ChainBatch(dt=dt, dW=dW, X=X, G=np.moveaxis(G, -1, 0), Q=Q, Qinv=Qinv,
                      det_q=det_q, degenerate=degenerate, delta=delta, gamma=gamma,
                      sig=sig, Js=Js, A=A, E=E, S=S, P=P)


def _row_divergences(dt, dW, G, P, E, S):
    """delta (B,d): delta_j = sum_k G[k,j,:].dW_k - dt * sum_{k,a} D_k^a G[k,j,a],
    from dW (B,N,d) and the batch-last G, P, E and S of `chain_batch`.

    The trace part is sum_m Lambda_m(S_m) with S_m = sum_{k<m} D_kX_m (D_kX_m)^T
    and Lambda_m(C)_j = (P_{m+1})_{jq} E_m[q,r,p] C_{rp}.  The Ito part is
    contracted on the contiguous step-major (N,B,d) dW, copied only when dW
    is not laid out so: einsum's summation order follows its operands'
    strides, and with every operand in one fixed layout delta is a function
    of dW's values alone.
    """
    diag2 = np.einsum("mjqb,mqrpb,mrpb->jb", P, E, S[:-1])
    ito = np.einsum("kjab,kba->jb", G, np.ascontiguousarray(np.swapaxes(dW, 0, 1)))
    return _first(ito - dt * diag2)


def _cov_row_derivatives(dt, G, sig, Js, A, E, S, tangents=None):
    """gamma (B,d,d,d): gamma[b,j] = directional derivative of Q along
    v^j_{k,a} = dt G[b,k,j,a], from the batch-last arrays of `chain_batch`.

    Q = dt S_N, so gamma[b,j] = dt tS_N with tS the tangent of the S
    recursion along v^j.  One forward pass carries tS and the state tangent
    tX for all d directions:
      tA = E.tX + Js.v_m,  tsig = Js.tX,  M = tA S_m A^T + tsig sig^T,
      tS_{m+1} = A tS A^T + M + M^T,  tX_{m+1} = A tX + sig v_m.

    Returns (gamma, its tangent).  The tangent is None unless `tangents`
    holds the batch-last tangents (tG, tsig, tJs, tA, tE, tS) of
    (G, sig, Js, A, E, S) along one direction of dW; the pass then carries
    every quantity above as a (value, tangent) pair and differentiates each
    product by `_dual`.  Js None (constant sigma) makes tsig and every
    product with Js or tsig None, so they are skipped.
    """
    N, d, _, B = sig.shape
    values, tans = (G, sig, Js, A, E, S), tangents or (None,) * 6
    tX = (np.zeros((d, d, B), dtype=sig.dtype), None)     # (j, i, b)
    tS = (np.zeros((d, d, d, B), dtype=sig.dtype), None)  # (j, i, q, b)
    for m in range(N):
        Gm, sm, Jm, Am, Em, Sm = [(_at(a, m), _at(t, m)) for a, t in zip(values, tans)]
        v = _scaled(dt, Gm)                               # (j, a, b)
        tA = _add(_dual("ipqb,jqb->jipb", Em, tX), _dual("ilpb,jlb->jipb", Jm, v))
        tsig = _dual("ilpb,jpb->jilb", Jm, tX)
        M = _add(_dual("jipb,prb,qrb->jiqb", tA, Sm, Am), _dual("jilb,qlb->jiqb", tsig, sm))
        MT = [None if x is None else np.swapaxes(x, 1, 2) for x in M]
        tS = _add(_add(_dual("ipb,jpqb,rqb->jirb", Am, tS, Am), M), MT)
        tX = _add(_dual("ipb,jpb->jib", Am, tX), _dual("ilb,jlb->jib", sm, v))
    gamma, tgamma = _scaled(dt, tS)
    return _first(gamma), None if tgamma is None else _first(tgamma)


# (value, tangent) pairs carry a tangent along one direction of dW; a None
# value or tangent is zero and adds no term
def _plus(x, y):
    return y if x is None else x if y is None else x + y


def _at(a, m):
    return None if a is None else a[m]


def _add(p, q):
    return _plus(p[0], q[0]), _plus(p[1], q[1])


def _scaled(c, p):
    return c * p[0], None if p[1] is None else c * p[1]


def _tangent(spec, *ops):
    """The tangent of np.einsum(spec) of the values of ops, by the product rule."""
    vals = [v for v, _ in ops]
    tan = None
    for k, (_, t) in enumerate(ops):
        if t is not None:
            term = np.einsum(spec, *vals[:k], t, *vals[k + 1:])
            tan = term if tan is None else np.add(tan, term, out=tan)
    return tan


def _dual(spec, *ops):
    if any(v is None for v, _ in ops):
        return None, None
    return np.einsum(spec, *(v for v, _ in ops)), _tangent(spec, *ops)


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
    """<D H_(i1), sum_j Qinv_{i2 j} DX^j> per path: the derivative of H_(i1)
    along w = dt sum_j Qinv_{i2 j} G[:, :, j, :] (the pairing is linear in
    its direction), by one real forward tangent of the chain along w.

    Every value is read from `ch`; only tangents are computed, batch last:
    tX_{m+1} = A_m tX_m + sigma_m w_m, tsig = Js.tX, tA = E.tX + Js.w,
    tS forward, tP backward, tG = tP sigma + P tsig, tQ^-1 = -Q^-1 tQ Q^-1
    (tQ = 0 on degenerate paths, whose Q^-1 is that of I), then tdelta, the
    tangent of gamma and of H_(i1).  The third derivatives of b and sigma
    in tE come from one complex step of the model's `drift_hess` and
    `diffusion_hess` per step block at X + i eps tX, whose real part also
    gives grad^2 sigma; those pointwise calls are the only complex arithmetic.
    With constant sigma (ch.Js None) tsig, tJs, the `diffusion_hess` call
    and their terms are skipped: tA = E.tX and tE is the drift's part alone.
    tX and w are dropped once read and tP is carried one step at a time, so
    at most six (N, ..., B) tangent arrays are held beside `ch`.
    """
    dt, sig, Js, A, E, S, P = ch.dt, ch.sig, ch.Js, ch.A, ch.E, ch.S, ch.P
    N, d, _, B = sig.shape
    G = np.moveaxis(ch.G, 0, -1)
    w = dt * np.einsum("jb,kjab->kab", _last(ch.Qinv[:, i2]), G)  # (N, d, B)
    tX = np.zeros((N + 1, d, B))
    for m in range(N):
        tX[m + 1] = np.einsum("ipb,pb->ib", A[m], tX[m]) + np.einsum("ilb,lb->ib", sig[m], w[m])
    tA = np.einsum("nipqb,nqb->nipb", E, tX[:-1])
    tsig = tJs = None
    if Js is not None:
        tA += np.einsum("nilpb,nlb->nipb", Js, w)
        tsig = np.einsum("nilpb,npb->nilb", Js, tX[:-1])
        tJs = np.empty_like(Js)

    # tJs = grad^2 sigma . tX and tE, step block by step block as in `_steps`
    Xs = np.swapaxes(ch.X, 0, 1)
    tE = np.empty_like(E)
    step = max(1, _BLOCK_WORDS // (max(B, 1) * d * d))
    for lo in range(0, N, step):
        blk = slice(lo, min(lo + step, N))
        x = Xs[blk] + (1j * _CSTEP) * np.swapaxes(tX[blk], 1, 2)
        np.multiply(np.moveaxis(model.drift_hess(x).imag, 1, -1), dt / _CSTEP, out=tE[blk])
        if Js is None:
            continue
        hs = np.moveaxis(model.diffusion_hess(x), 1, -1)
        hr = np.ascontiguousarray(hs.real)
        tJs[blk] = np.einsum("nilpqb,nqb->nilpb", hr, tX[blk])
        tE[blk] += np.einsum("nilpqb,nlb->nipqb", np.ascontiguousarray(hs.imag) / _CSTEP,
                             _last(ch.dW[:, blk]))
        tE[blk] += np.einsum("nilpqb,nlb->nipqb", hr, w[blk])
    ito = np.einsum("kjab,kab->jb", G, w)  # the Ito term's derivative along w itself
    del tX, w

    tS = np.zeros_like(S)
    for m in range(N):
        M = np.einsum("ipb,prb,qrb->iqb", tA[m], S[m], A[m])
        if tsig is not None:
            M += np.einsum("ilb,qlb->iqb", tsig[m], sig[m])
        tS[m + 1] = np.einsum("ipb,pqb,rqb->irb", A[m], tS[m], A[m]) + M + np.swapaxes(M, 0, 1)
    trace = _tangent("mjqb,mqrpb,mrpb->jb", (P, None), (E, tE), (S[:-1], tS[:-1]))
    # tP backward, one step at a time: tG and the trace term's tP part per step
    tG = np.empty_like(G)
    tP = np.zeros((d, d, B))
    for m in range(N - 1, -1, -1):
        tG[m] = _tangent("ijb,jlb->ilb", (P[m], tP), (sig[m], _at(tsig, m)))
        trace += np.einsum("jqb,qrpb,rpb->jb", tP, E[m], S[m])
        tP = _tangent("ipb,pjb->ijb", (P[m], tP), (A[m], tA[m]))
    ito += np.einsum("kjab,kba->jb", tG, np.ascontiguousarray(np.swapaxes(ch.dW, 0, 1)))
    tdelta = _first(ito - dt * trace)
    tQ = np.where(ch.degenerate[:, None, None], 0.0, _first(dt * tS[-1]))
    tQinv = -ch.Qinv @ tQ @ ch.Qinv
    _, tgamma = _cov_row_derivatives(dt, G, sig, Js, A, E, S,
                                     tangents=(tG, tsig, tJs, tA, tE, tS))

    # the tangent of weight_from_chain's H_(i1)
    q = (ch.Qinv[:, i1], tQinv[:, i1])
    return (_tangent("bj,bj->b", q, (ch.delta, tdelta))
            + _tangent("bp,bjpq,bqj->b", q, (ch.gamma, tgamma), (ch.Qinv, tQinv)))


def weights_from_chain(model, ch: ChainBatch, alphas):
    """H_alpha(1) per path for each alpha in alphas (0-based coords, |alpha|
    in {1, 2}), all from the one chain `ch`.

    For alpha = (i1, i2) the recursion H_alpha = H_{i2}(H_{(i1)})
    = H_(i1) H_(i2) - <D H_(i1), sum_j Qinv_{i2 j} DX^j> is used, with the
    pairing from one real tangent pass over `ch` (`_inner_pairing`); no
    chain is re-run.  Each H_(i) is computed once, and one tangent pass is
    made per distinct order-2 alpha.
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


def alpha_tag(alpha) -> str:
    """A multi-index as report rows write it; "0" is alpha = ()."""
    return "".join(str(a) for a in alpha) or "0"


# ---------------------------------------------------------------------------
# Gauss-Hermite oracle for the IBP identity
# ---------------------------------------------------------------------------

def quadrature_oracle(fam, steps, funcs, alphas, horizon, nodes=64):
    """Verify E[d_alpha g(X_N) ] = E[g(X_N) H_alpha] by tensor quadrature.

    d = 1 and steps <= 3 so the increment space is at most 3-dimensional;
    both expectations are computed with `nodes` Gauss-Hermite points per
    dimension, from one chain on the nodes over [0, horizon].  Each entry of
    `funcs` is a sequence (g, g', g'', ...) of callables.  Returns
    (lhs, rhs, gap) per (g, alpha), g outer.
    """
    if fam.dim != 1:
        raise ValueError("quadrature oracle is one-dimensional")
    if steps > 3:
        raise ValueError("steps must be <= 3 for the tensor oracle")
    if nodes < 40:
        raise ValueError("need at least 40 quadrature nodes per dimension")
    dt = float(horizon) / steps
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

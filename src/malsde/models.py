"""SDE problem definitions: drift/diffusion with analytic derivatives,
radially clamped (truncated) drifts, and sampling-based verification of the
structural constants (ellipticity, one-sided Lipschitz bound).

All model callables are batched (input shape (..., d)) and accept complex
inputs, so forward sensitivities can be propagated by complex-step
differentiation through any composition of them.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np


class ModelDefinitionError(ValueError):
    """Drift or diffusion produced a non-finite value, or constants are inconsistent."""


@dataclass(frozen=True)
class EllipticityConstants:
    """Structural constants declared for a model and verified by sampling.

    lambda_min / lambda_max bracket the eigenvalues of sigma sigma^T,
    c2 bounds |sigma^T u|^2 / |u|^2, sigma_lipschitz is the Lipschitz
    constant of sigma, and semi_monotone is the one-sided Lipschitz
    constant K of the drift: <b(x)-b(y), x-y> <= K |x-y|^2.
    """

    lambda_min: float
    lambda_max: float
    c2: float
    sigma_lipschitz: float = 0.0
    semi_monotone: float = 0.0

    def __post_init__(self):
        if not self.lambda_min > 0:
            raise ModelDefinitionError("lambda_min must be positive")
        if self.lambda_max < self.lambda_min:
            raise ModelDefinitionError("lambda_max must dominate lambda_min")
        if self.c2 < self.lambda_max:
            raise ModelDefinitionError("c2 must dominate lambda_max")
        if self.sigma_lipschitz < 0:
            raise ModelDefinitionError("sigma_lipschitz must be nonnegative")


class SdeModel:
    """Base class for dX = b(X) dt + sigma(X) dW on R^d; T is the time grid's.

    Subclasses supply b and sigma together with their derivatives up to
    second order; everything downstream (Euler chains, derivative chains,
    integration-by-parts weights) consumes exactly this interface.
    """

    def __init__(self, dim, x0, constants: EllipticityConstants):
        self.dim = int(dim)
        self.x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        self.constants = constants
        if self.dim < 1:
            raise ModelDefinitionError("dim must be >= 1")
        if self.x0.shape != (self.dim,):
            raise ModelDefinitionError(f"x0 must have shape ({self.dim},)")

    # drift and its derivatives; x has shape (..., d)
    def drift(self, x):  # (..., d)
        raise NotImplementedError

    def drift_jac(self, x):  # (..., d, d): [i, p] = d b_i / d x_p
        raise NotImplementedError

    def drift_hess(self, x):  # (..., d, d, d): [i, p, q]
        raise NotImplementedError

    # diffusion and its derivatives; a class that keeps the zero default
    # grad sigma has constant sigma (`constant_diffusion`)
    def diffusion(self, x):  # (..., d, d): [i, l]
        raise NotImplementedError

    @property
    def constant_diffusion(self) -> bool:
        """True iff the class keeps the zero default `diffusion_jac`: sigma is
        then constant, and every grad sigma and grad^2 sigma term is zero."""
        return type(self).diffusion_jac is SdeModel.diffusion_jac

    def diffusion_jac(self, x):  # (..., d, d, d): [i, l, p] = d sigma_il / d x_p
        d = self.dim
        return np.zeros(np.shape(x)[:-1] + (d, d, d), dtype=np.asarray(x).dtype)

    def diffusion_hess(self, x):  # (..., d, d, d, d): [i, l, p, q]
        d = self.dim
        return np.zeros(np.shape(x)[:-1] + (d, d, d, d), dtype=np.asarray(x).dtype)


def _const_matrix(x, mat):
    mat = np.asarray(mat)
    out = np.empty(np.shape(x)[:-1] + mat.shape, dtype=np.result_type(np.asarray(x).dtype, mat.dtype))
    out[...] = mat
    return out


class OrnsteinUhlenbeckModel(SdeModel):
    """b(x) = -kappa (x - mu), sigma = sigma0 * I: linear, closed-form law."""

    def __init__(self, dim=1, x0=0.0, kappa=1.0, mu=0.0, sigma0=1.0):
        self.kappa = float(kappa)
        self.mu = np.broadcast_to(np.atleast_1d(np.asarray(mu, float)), (dim,)).copy()
        self.sigma0 = float(sigma0)
        if self.kappa < 0:
            raise ModelDefinitionError("kappa must be nonnegative")
        if self.sigma0 < 0:
            raise ModelDefinitionError("sigma0 must be nonnegative")
        # sigma0 = 0 is allowed for degenerate control experiments (BrownianModel
        # is the kappa = 0 case); the placeholder constants then fail
        # check_ellipticity by design.
        lam = self.sigma0 ** 2 if self.sigma0 > 0 else 1.0
        c = EllipticityConstants(lam, lam, lam, 0.0, -self.kappa)
        x0 = np.broadcast_to(np.atleast_1d(np.asarray(x0, float)), (dim,)).copy()
        super().__init__(dim, x0, c)

    def drift(self, x):
        return -self.kappa * (np.asarray(x) - self.mu)

    def drift_jac(self, x):
        return _const_matrix(x, -self.kappa * np.eye(self.dim))

    def drift_hess(self, x):
        d = self.dim
        return np.zeros(np.shape(x)[:-1] + (d, d, d), dtype=np.asarray(x).dtype)

    def diffusion(self, x):
        return _const_matrix(x, self.sigma0 * np.eye(self.dim))


class BrownianModel(OrnsteinUhlenbeckModel):
    """b = 0, sigma = sigma0 * I: OU with kappa = 0 and mu = 0, the
    closed-form Gaussian control case."""

    def __init__(self, dim=1, x0=0.0, sigma0=1.0):
        super().__init__(dim, x0, kappa=0.0, mu=0.0, sigma0=sigma0)


class DoubleWell1DModel(SdeModel):
    """b(x) = x - x^3 on R: locally Lipschitz, semi-monotone with K = 1."""

    def __init__(self, x0=0.0, sigma0=1.0):
        self.sigma0 = float(sigma0)
        if self.sigma0 <= 0:
            raise ModelDefinitionError("sigma0 must be positive")
        lam = self.sigma0 ** 2
        c = EllipticityConstants(lam, lam, lam, 0.0, 1.0)
        super().__init__(1, [float(np.atleast_1d(x0)[0])], c)

    def drift(self, x):
        x = np.asarray(x)
        return x - x * x * x

    def drift_jac(self, x):
        x = np.asarray(x)
        return (1.0 - 3.0 * x ** 2)[..., None]

    def drift_hess(self, x):
        x = np.asarray(x)
        return (-6.0 * x)[..., None, None]

    def diffusion(self, x):
        return _const_matrix(x, self.sigma0 * np.eye(1))


class DoubleWell2DModel(SdeModel):
    """Componentwise double-well drift on R^2 with a smooth, uniformly
    elliptic, state-dependent diagonal diffusion sigma = I + 0.1 diag(sin x1, cos x2)."""

    def __init__(self, x0=(0.0, 0.0)):
        c = EllipticityConstants(0.81, 1.21, 1.21, 0.1, 1.0)
        super().__init__(2, x0, c)

    def drift(self, x):
        x = np.asarray(x)
        return x - x * x * x

    def drift_jac(self, x):
        x = np.asarray(x)
        out = np.zeros(x.shape + (2,), dtype=x.dtype)
        out[..., 0, 0] = 1.0 - 3.0 * x[..., 0] ** 2
        out[..., 1, 1] = 1.0 - 3.0 * x[..., 1] ** 2
        return out

    def drift_hess(self, x):
        x = np.asarray(x)
        out = np.zeros(x.shape + (2, 2), dtype=x.dtype)
        out[..., 0, 0, 0] = -6.0 * x[..., 0]
        out[..., 1, 1, 1] = -6.0 * x[..., 1]
        return out

    def diffusion(self, x):
        x = np.asarray(x)
        out = np.zeros(x.shape + (2,), dtype=x.dtype)
        out[..., 0, 0] = 1.0 + 0.1 * np.sin(x[..., 0])
        out[..., 1, 1] = 1.0 + 0.1 * np.cos(x[..., 1])
        return out

    def diffusion_jac(self, x):
        x = np.asarray(x)
        out = np.zeros(x.shape + (2, 2), dtype=x.dtype)
        out[..., 0, 0, 0] = 0.1 * np.cos(x[..., 0])
        out[..., 1, 1, 1] = -0.1 * np.sin(x[..., 1])
        return out

    def diffusion_hess(self, x):
        x = np.asarray(x)
        out = np.zeros(x.shape + (2, 2, 2), dtype=x.dtype)
        out[..., 0, 0, 0, 0] = -0.1 * np.sin(x[..., 0])
        out[..., 1, 1, 1, 1] = -0.1 * np.cos(x[..., 1])
        return out


# ---------------------------------------------------------------------------
# Radial clamp and truncated drift family.  One real-part mask, `_outside`,
# picks the points the clamp and the truncated derivatives act on; on the
# ball kappa_n is the identity and costs only that mask.
# ---------------------------------------------------------------------------

def _radius(x):
    return np.sqrt(np.sum(x * x, axis=-1))


def _real_radius(x):
    """|Re x| of points x (..., d).  The squares are summed one component at a
    time, the order np.sum takes over the d entries of a row."""
    xr = np.real(x)
    c0 = xr[..., 0]
    s = np.multiply(c0, c0, out=np.empty_like(c0))  # an array even for one point
    for i in range(1, xr.shape[-1]):
        s += xr[..., i] * xr[..., i]
    return np.sqrt(s, out=s)


def _outside(x, n):
    """The one truncation mask: points of x (..., d) with |Re x| > n.  It reads
    only real parts, so a complex-step pass takes its real pass's branch."""
    return _real_radius(x) > n


def clamp_point(x, n):
    """kappa_n(x): identity on the ball |x| <= n, radial tanh saturation beyond.

    The radial profile is g(r) = r on [0, n] and g(r) = n + tanh(r - n)
    beyond; it is C^2 at r = n (g(n) = n, g'(n) = 1, g''(n) = 0).  Range is
    contained in the closed ball of radius n + 1.  `x` may be complex (branch
    on `_outside`).  Only the rows outside the ball are computed, into a copy
    of x; when no point is outside, x itself is returned, not a copy.
    """
    x = np.asarray(x)
    n = float(n)
    out = _outside(x, n)
    if not out.any():
        return x
    xo = x[out]
    r = _radius(xo)
    y = x.copy()
    y[out] = xo * ((n + np.tanh(r - n)) / r)[..., None]
    return y


def clamp_derivatives(x, n):
    """kappa_n and its first two derivative tensors at points outside the
    ball, |x| > n (on the ball kappa_n is the identity: K1 = I, K2 = 0).

    Returns (k, K1, K2) with shapes (...,d), (...,d,d), (...,d,d,d); indices
    are [component, d/dx_p, d/dx_q].
    """
    x = np.asarray(x)
    n = float(n)
    eye = np.eye(x.shape[-1], dtype=x.dtype)
    r = _radius(x)
    th = np.tanh(r - n)
    sech2 = 1.0 - th ** 2             # g'(r)
    g = n + th
    xh = x / r[..., None]
    A = g / r
    B = sech2 - A
    C = B / r
    E = -2.0 * sech2 * th - 3.0 * C   # g''(r) - 3C

    k = g[..., None] * xh
    K1 = A[..., None, None] * eye + B[..., None, None] * xh[..., :, None] * xh[..., None, :]
    sym = (
        np.einsum("...q,up->...upq", xh, eye)
        + np.einsum("...p,uq->...upq", xh, eye)
        + np.einsum("...u,pq->...upq", xh, eye)
    )
    xxx = np.einsum("...u,...p,...q->...upq", xh, xh, xh)
    K2 = C[..., None, None, None] * sym + E[..., None, None, None] * xxx
    return k, K1, K2


class TruncationFamily:
    """Globally Lipschitz surrogate drift b_n(x) = b(kappa_n(x)).

    Exposes the same callable interface as SdeModel, so chains and weights can
    be built against a family exactly as against a raw model.  b_n agrees with
    b bitwise on the ball |x| <= n and is bounded by sup_{|y| <= n+1} |b(y)|.
    Its derivatives are b's own on the ball; only the rows outside it (one
    real-part mask, `_outside`, shared with `clamp_point`) go through the
    chain rule with the clamp derivatives.  Like its base model, it holds no T.
    """

    def __init__(self, base: SdeModel, level: float):
        if not level > 0:
            raise ModelDefinitionError("truncation level must be positive")
        self.base = base
        self.level = float(level)
        self.dim = base.dim
        self.x0 = base.x0
        self.constants = base.constants

    def drift(self, x):
        return self.base.drift(clamp_point(x, self.level))

    def drift_jac(self, x):
        x = np.asarray(x)
        J = self.base.drift_jac(x)
        out = _outside(x, self.level)
        if out.any():
            k, K1, _ = clamp_derivatives(x[out], self.level)
            J[out] = np.einsum("...iu,...up->...ip", self.base.drift_jac(k), K1)
        return J

    def drift_hess(self, x):
        x = np.asarray(x)
        H = self.base.drift_hess(x)
        out = _outside(x, self.level)
        if out.any():
            k, K1, K2 = clamp_derivatives(x[out], self.level)
            H[out] = (
                np.einsum("...iuv,...up,...vq->...ipq", self.base.drift_hess(k), K1, K1)
                + np.einsum("...iu,...upq->...ipq", self.base.drift_jac(k), K2)
            )
        return H

    # diffusion is left untouched by the truncation
    @property
    def constant_diffusion(self) -> bool:
        return self.base.constant_diffusion

    def diffusion(self, x):
        return self.base.diffusion(x)

    def diffusion_jac(self, x):
        return self.base.diffusion_jac(x)

    def diffusion_hess(self, x):
        return self.base.diffusion_hess(x)


# ---------------------------------------------------------------------------
# Model zoo
# ---------------------------------------------------------------------------

_ZOO = {
    "bm": BrownianModel,
    "ou": OrnsteinUhlenbeckModel,
    "double-well-1d": DoubleWell1DModel,
    "double-well-2d": DoubleWell2DModel,
}
MODEL_IDS = tuple(_ZOO)


def make_model(model_id: str, **params) -> SdeModel:
    """Instantiate a zoo model by string identifier."""
    if model_id not in _ZOO:
        raise ModelDefinitionError(f"unknown model id {model_id!r}; known: {MODEL_IDS}")
    cls = _ZOO[model_id]
    try:
        inspect.signature(cls).bind(**params)
    except TypeError as e:
        raise ModelDefinitionError(f"model {model_id!r}: {e}") from None
    return cls(**params)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def check_semi_monotone(model, pairs=None, n_pairs=2000, radius=5.0, seed=0, tol=1e-9):
    """Fitted one-sided Lipschitz constant K_hat over sampled point pairs.

    K_hat = max <b(x)-b(y), x-y> / |x-y|^2; passes when K_hat does not exceed
    the declared constants.semi_monotone (up to tol).  Coincident pairs are
    skipped.
    """
    if pairs is None:
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-radius, radius, size=(n_pairs, model.dim))
        ys = rng.uniform(-radius, radius, size=(n_pairs, model.dim))
    else:
        xs, ys = pairs
        xs = np.asarray(xs, float)
        ys = np.asarray(ys, float)
    if len(xs) < 100:
        raise ValueError("need at least 100 pairs")
    diff = xs - ys
    dist2 = np.sum(diff * diff, axis=-1)
    keep = dist2 > 0
    num = np.sum((model.drift(xs) - model.drift(ys)) * diff, axis=-1)
    k_hat = float(np.max(num[keep] / dist2[keep]))
    declared = model.constants.semi_monotone
    return k_hat, bool(k_hat <= declared + tol)


def check_ellipticity(model, xs=None, n_points=1000, radius=5.0, seed=0, tol=1e-12):
    """Extreme eigenvalues of sigma sigma^T over sample points vs the
    declared [lambda_min, lambda_max] window."""
    if xs is None:
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-radius, radius, size=(n_points, model.dim))
    xs = np.asarray(xs, float)
    if len(xs) < 100:
        raise ValueError("need at least 100 points")
    sig = model.diffusion(xs)
    a = sig @ np.swapaxes(sig, -1, -2)
    asym = np.max(np.abs(a - np.swapaxes(a, -1, -2)))
    if asym > 1e-10:
        raise RuntimeError(f"sigma sigma^T asymmetric beyond round-off ({asym:.3e})")
    eigs = np.linalg.eigvalsh(a)
    lo, hi = float(np.min(eigs)), float(np.max(eigs))
    c = model.constants
    ok = (lo >= c.lambda_min - tol) and (hi <= c.lambda_max + tol)
    return (lo, hi), bool(ok)


def generator_apply(model, p, x):
    """L f(x) for f(x) = |x - x0|^p (p even, >= 2), applied analytically.

    L = 1/2 sum (sigma sigma^T)_ij d_i d_j + sum b_i d_i.  `model` may be a
    raw SdeModel or a TruncationFamily (then L_n with the truncated drift).
    """
    p = int(p)
    if p < 2 or p % 2 != 0:
        raise ValueError("p must be an even integer >= 2")
    x = np.asarray(x, dtype=float)
    y = x - model.x0
    r2 = np.sum(y * y, axis=-1)
    b = model.drift(x)
    sig = model.diffusion(x)
    a = sig @ np.swapaxes(sig, -1, -2)

    # grad f = p r^(p-2) y; hess f = p r^(p-2) I + p(p-2) r^(p-4) y y^T
    rpow2 = r2 ** ((p - 2) // 2)
    first = p * rpow2 * np.sum(b * y, axis=-1)
    trace_a = np.trace(a, axis1=-2, axis2=-1)
    quad = np.einsum("...i,...ij,...j->...", y, a, y)
    if p == 2:
        cross = np.zeros_like(r2)
    else:
        safe = np.where(r2 > 0, r2, 1.0)
        cross = np.where(r2 > 0, p * (p - 2) * safe ** ((p - 4) // 2) * quad, 0.0)
    second = 0.5 * (p * rpow2 * trace_a + cross)
    return first + second

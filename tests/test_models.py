import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malsde import models
from malsde.models import (
    BrownianModel,
    DoubleWell1DModel,
    DoubleWell2DModel,
    EllipticityConstants,
    ModelDefinitionError,
    OrnsteinUhlenbeckModel,
    SdeModel,
    TruncationFamily,
    check_ellipticity,
    check_semi_monotone,
    clamp_derivatives,
    clamp_point,
    generator_apply,
    make_model,
)


# ---------------------------------------------------------------------------
# Drift evaluation
# ---------------------------------------------------------------------------

def test_drift_values(dw1, ou):
    base = DoubleWell1DModel(x0=[0.0], sigma0=1.0)
    assert base.drift(np.array([0.0])) == pytest.approx(0.0)  # [TRIVIAL]
    assert base.drift(np.array([2.0])) == pytest.approx(-6.0)  # [DERIVED] 2 - 8
    ou3 = OrnsteinUhlenbeckModel(dim=1, x0=[0.0], kappa=1.0,
                                 mu=[0.0], sigma0=1.0)
    assert ou3.drift(np.array([3.0])) == pytest.approx(-3.0)  # [DERIVED]


def test_truncated_drift_values():
    base = DoubleWell1DModel(x0=[0.0], sigma0=1.0)
    # [TRIVIAL] inside the ball the clamp is the identity
    assert TruncationFamily(base, 4.0).drift(np.array([1.0])) == pytest.approx(0.0)
    # [DERIVED] n=1, x=3: evaluate b at 1 + tanh(2)
    z = 1.0 + np.tanh(2.0)
    got = TruncationFamily(base, 1.0).drift(np.array([3.0]))
    assert got[0] == pytest.approx(z - z**3, rel=1e-12)
    # [DERIVED] clamp saturates at n + 1, so b_n(x) -> b(2) = -6 far out
    far = TruncationFamily(base, 1.0).drift(np.array([1e6]))
    assert far[0] == pytest.approx(2.0 - 8.0, rel=1e-9)


@given(r=st.floats(0.0, 4.0), angle=st.floats(0.0, 2 * np.pi))
@settings(max_examples=100, deadline=None)
def test_clamp_identity_inside_ball_bitwise(r, angle):
    x = np.array([r * np.cos(angle), r * np.sin(angle)])
    out = clamp_point(x, 4.0)
    assert np.array_equal(out, x)


@given(r=st.floats(0.0, 1e6), angle=st.floats(0.0, 2 * np.pi))
@settings(max_examples=100, deadline=None)
def test_clamp_range_bounded(r, angle):
    x = np.array([r * np.cos(angle), r * np.sin(angle)])
    assert np.linalg.norm(clamp_point(x, 3.0)) <= 4.0 + 1e-12


def test_clamp_radially_one_lipschitz():
    rng = np.random.default_rng(0)
    xs = rng.uniform(-8, 8, size=(2000, 2))
    ys = rng.uniform(-8, 8, size=(2000, 2))
    num = np.linalg.norm(clamp_point(xs, 3.0) - clamp_point(ys, 3.0), axis=1)
    den = np.linalg.norm(xs - ys, axis=1)
    assert np.all(num <= den * (1 + 1e-9))


def test_truncated_drift_matches_base_inside_ball_bitwise():
    base = DoubleWell2DModel(x0=[0.0, 0.0])
    fam = TruncationFamily(base, 3.0)
    rng = np.random.default_rng(1)
    xs = rng.uniform(-1.7, 1.7, size=(500, 2))  # |x| <= 3 guaranteed
    assert np.array_equal(fam.drift(xs), base.drift(xs))


def test_truncated_drift_bounded_by_ball_sup():
    base = DoubleWell1DModel(x0=[0.0], sigma0=1.0)
    fam = TruncationFamily(base, 2.0)
    xs = np.linspace(-50, 50, 5001)[:, None]
    sup_ball = np.max(np.abs(base.drift(np.linspace(-3, 3, 5001)[:, None])))
    assert np.max(np.abs(fam.drift(xs))) <= sup_ball + 1e-12


def test_clamp_profile_c2_at_boundary():
    # value, first and second radial derivative continuous at |x| = n
    n = 2.0
    h = 1e-6
    def radial(r):
        return clamp_point(np.array([r, 0.0]), n)[0]
    lo = np.array([radial(n - 3 * h), radial(n - 2 * h), radial(n - h)])
    hi = np.array([radial(n + h), radial(n + 2 * h), radial(n + 3 * h)])
    for order in range(3):
        dlo = np.diff(lo, order)[-1] / h**order
        dhi = np.diff(hi, order)[0] / h**order
        assert dhi == pytest.approx(dlo, abs=5e-4)


# ---------------------------------------------------------------------------
# Derivative tensors vs finite differences
# ---------------------------------------------------------------------------

def _fd_check(fn, jac_fn, x, h=1e-6, rtol=5e-6, atol=1e-7):
    """Central finite difference of fn along every coordinate vs jac_fn."""
    base_jac = jac_fn(x)
    d = x.shape[-1]
    for p in range(d):
        dx = np.zeros_like(x)
        dx[..., p] = h
        fd = (fn(x + dx) - fn(x - dx)) / (2 * h)
        got = base_jac[..., p]
        assert np.allclose(fd, got, rtol=rtol, atol=atol), f"coordinate {p}"


@pytest.mark.parametrize("level", [1.5, 4.0])
def test_truncated_drift_derivatives_fd(level):
    base = DoubleWell2DModel(x0=[0.0, 0.0])
    fam = TruncationFamily(base, level)
    rng = np.random.default_rng(3)
    xs = rng.uniform(-4, 4, size=(200, 2))
    _fd_check(fam.drift, fam.drift_jac, xs)
    _fd_check(fam.drift_jac, fam.drift_hess, xs)


def test_diffusion_derivatives_fd(dw2):
    rng = np.random.default_rng(4)
    xs = rng.uniform(-3, 3, size=(200, 2))
    _fd_check(dw2.diffusion, dw2.diffusion_jac, xs)
    _fd_check(dw2.diffusion_jac, dw2.diffusion_hess, xs)


def _chain_rule_one_row(fam, x):
    """Jacobian and Hessian of b(kappa_n(x)) at a single point x, (1, d)."""
    k, K1, K2 = clamp_derivatives(x, fam.level)
    J = np.einsum("...iu,...up->...ip", fam.base.drift_jac(k), K1)
    H = (np.einsum("...iuv,...up,...vq->...ipq", fam.base.drift_hess(k), K1, K1)
         + np.einsum("...iu,...upq->...ipq", fam.base.drift_jac(k), K2))
    return J[0], H[0]


@pytest.mark.parametrize("step", [0.0, 1e-100])
def test_truncated_derivatives_base_inside_chain_rule_outside(step):
    base = DoubleWell2DModel(x0=[0.0, 0.0])
    fam = TruncationFamily(base, 1.5)
    rng = np.random.default_rng(7)
    xs = np.concatenate([
        rng.uniform(-1.0, 1.0, size=(6, 2)),           # inside
        rng.uniform(1.2, 3.0, size=(6, 2)),            # outside
        [[1.5, 0.0], [0.0, -1.5], [-1.5, 0.0]],         # on |x| = n
    ])
    rng.shuffle(xs)
    if step:  # complex step: the branch follows the real part
        xs = xs + 1j * step * rng.standard_normal(xs.shape)
    inside = np.real(np.sqrt(np.sum(xs * xs, axis=-1))) <= 1.5
    assert 0 < inside.sum() < len(xs)
    J, H = fam.drift_jac(xs), fam.drift_hess(xs)
    assert np.array_equal(J[inside], base.drift_jac(xs[inside]))
    assert np.array_equal(H[inside], base.drift_hess(xs[inside]))
    for i in np.flatnonzero(~inside):
        J_row, H_row = _chain_rule_one_row(fam, xs[i:i + 1])
        assert np.array_equal(J[i], J_row)
        assert np.array_equal(H[i], H_row)
    for i, x in enumerate(xs):  # unbatched (d,) input
        assert np.array_equal(fam.drift_jac(x), J[i])
        assert np.array_equal(fam.drift_hess(x), H[i])


# Reference mask and clamp, which the library's must match bit for bit: the
# real part of the complex radius, and tanh and a divide on every point with a
# scale of 1.0 + 0.0 r inside the ball.
def _ref_outside(x, n):
    return np.real(np.sqrt(np.sum(x * x, axis=-1))) > n


def _ref_clamp_point(x, n):
    x = np.asarray(x)
    n = float(n)
    r = np.sqrt(np.sum(x * x, axis=-1))
    out_mask = np.real(r) > n
    r_out = np.where(out_mask, r, n + 1.0)
    scale = np.where(out_mask, (n + np.tanh(r_out - n)) / r_out, 1.0 + 0.0 * r)
    return x * scale[..., None]


def _mask_cases(d, n):
    """Batches of (B, d) points: none outside |x| = n, all outside, a mix,
    and points one ulp either side of the sphere along each axis."""
    rng = np.random.default_rng(11 + d)
    u = rng.standard_normal((64, d))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    edge = []
    for to in (np.inf, -np.inf, 0.0):
        for p in range(d):
            for sign in (1.0, -1.0):
                x = np.zeros(d)
                x[p] = sign * (np.nextafter(n, to) if to else n)
                edge.append(x)
    return {
        "inside": u * rng.uniform(0.0, 0.99 * n, (64, 1)),
        "outside": u * rng.uniform(1.01 * n, 40.0 * n, (64, 1)),
        "mix": u * rng.uniform(0.0, 2.0 * n, (64, 1)),
        "edge": np.array(edge),
    }


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("step", [0.0, 1e-100])
@pytest.mark.parametrize("case", ["inside", "outside", "mix", "edge"])
def test_mask_and_clamp_bitwise_as_reference(monkeypatch, d, step, case):
    n = 1.5
    base = DoubleWell1DModel(x0=[0.0]) if d == 1 else DoubleWell2DModel()
    fam = TruncationFamily(base, n)
    xs = _mask_cases(d, n)[case]
    if step:  # complex step: the mask must read the real part only
        xs = xs + 1j * step * np.random.default_rng(5).standard_normal(xs.shape)
    outside = _ref_outside(xs, n)
    assert {"inside": not outside.any(), "outside": outside.all(),
            "mix": 0 < outside.sum() < len(xs),
            "edge": 0 < outside.sum() < len(xs)}[case]
    assert np.array_equal(models._outside(xs, n), outside)
    new = [clamp_point(xs, n), fam.drift(xs), fam.drift_jac(xs), fam.drift_hess(xs)]
    monkeypatch.setattr(models, "_outside", _ref_outside)
    monkeypatch.setattr(models, "clamp_point", _ref_clamp_point)
    ref = [_ref_clamp_point(xs, n), fam.drift(xs), fam.drift_jac(xs), fam.drift_hess(xs)]
    for got, want in zip(new, ref):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _edge_points(d, n):
    """Points on the sphere |x| = n and at +-0, +-inf and nan, with every
    other component 0, -0, n or a non-finite value."""
    vals = [n, -n, 0.0, -0.0, np.nextafter(n, 0.0), np.nextafter(n, np.inf),
            np.inf, -np.inf, np.nan]
    if d == 1:
        return np.array(vals)[:, None]
    pts = [(a, b) for a in vals for b in vals]
    # and points within a few ulp of the sphere at random angles
    rng = np.random.default_rng(3)
    theta = rng.uniform(0.0, 2.0 * np.pi, 400)
    r = n + rng.integers(-2, 3, 400) * np.spacing(n)
    pts += list(zip(r * np.cos(theta), r * np.sin(theta)))
    return np.array(pts)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [1.5, 0.3])
@pytest.mark.parametrize("imag", [None, 1e-100, np.nan])
def test_mask_sums_squares_as_np_sum(d, n, imag):
    # the component-wise sum of squares is np.sum's over the last axis, so the
    # mask is the same at the sphere itself, at +-0, inf and nan, for a
    # batch, a single point and a step-major (N, B, d) array, real or complex
    xs = _edge_points(d, n)
    if imag is not None:
        xs = xs.astype(complex)
        xs.imag = imag
    xr = np.real(xs)
    want = np.sqrt(np.sum(xr * xr, axis=-1)) > n
    assert want.any() and not want.all()
    assert np.array_equal(models._outside(xs, n), want)
    for x, w in zip(xs, want):
        assert models._outside(x, n) == w
    grid = np.stack([xs, xs[::-1]])
    assert np.array_equal(models._outside(grid, n), np.stack([want, want[::-1]]))


@pytest.mark.parametrize("step", [0.0, 1e-100])
def test_clamp_returns_an_inside_batch_itself_and_drift_leaves_it(step):
    base = DoubleWell2DModel()
    fam = TruncationFamily(base, 1.5)
    for case in ("inside", "mix"):
        xs = _mask_cases(2, 1.5)[case]
        if step:
            xs = xs + 1j * step
        keep = xs.copy()
        assert (clamp_point(xs, 1.5) is xs) == (case == "inside")
        fam.drift(xs)
        assert np.array_equal(xs, keep)


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------

def test_semi_monotone_linear_decay():
    ou = OrnsteinUhlenbeckModel(dim=1, x0=[0.0], kappa=1.0,
                                mu=[0.0], sigma0=1.0)
    k_hat, ok = check_semi_monotone(ou, n_pairs=5000, seed=0)
    assert k_hat == pytest.approx(-1.0, abs=1e-9)  # [TRIVIAL] b = -x
    assert ok


def test_semi_monotone_double_well():
    dw = DoubleWell1DModel(x0=[0.0], sigma0=1.0)
    k_hat, ok = check_semi_monotone(dw, n_pairs=5000, seed=0)
    assert k_hat <= 1.0 + 1e-9  # [DERIVED] supremum 1 as y -> x -> 0
    assert ok


class _QuadDrift(SdeModel):
    def __init__(self):
        c = EllipticityConstants(1.0, 1.0, 1.0, 0.0, semi_monotone=1.0)
        super().__init__(1, [0.0], c)

    def drift(self, x):
        return np.asarray(x) ** 2

    def diffusion(self, x):
        import malsde.models as m
        return m._const_matrix(x, np.eye(1))


def test_semi_monotone_fails_for_quadratic_growth():
    # [DERIVED] b = x^2 on [0, 10]: fitted constant grows with the range
    rng = np.random.default_rng(0)
    xs = rng.uniform(0, 10, size=(2000, 1))
    ys = rng.uniform(0, 10, size=(2000, 1))
    k_hat, ok = check_semi_monotone(_QuadDrift(), pairs=(xs, ys))
    assert k_hat > 5.0
    assert not ok


def test_ellipticity_identity_and_diag(bm, dw2):
    (lo, hi), ok = check_ellipticity(bm)
    assert (lo, hi) == pytest.approx((1.0, 1.0))  # [TRIVIAL]
    assert ok
    (lo2, hi2), ok2 = check_ellipticity(dw2)
    assert ok2 and 0.81 - 1e-12 <= lo2 and hi2 <= 1.21 + 1e-12


def test_ellipticity_constant_diag_matrix():
    class _Diag(SdeModel):
        def __init__(self):
            c = EllipticityConstants(1.0, 4.0, 4.0)
            super().__init__(2, [0.0, 0.0], c)

        def drift(self, x):
            return np.zeros_like(np.asarray(x))

        def diffusion(self, x):
            import malsde.models as m
            return m._const_matrix(x, np.diag([1.0, 2.0]))

    (lo, hi), ok = check_ellipticity(_Diag())
    assert (lo, hi) == pytest.approx((1.0, 4.0))  # [DERIVED] eigenvalues of ss*
    assert ok


def test_ellipticity_rejects_zero_diffusion():
    m = BrownianModel(dim=1, x0=[0.0], sigma0=0.0)
    (lo, _), ok = check_ellipticity(m)
    assert lo == pytest.approx(0.0)
    assert not ok  # [TRIVIAL] degenerate case fails the declared lambda > 0


# ---------------------------------------------------------------------------
# Generator application
# ---------------------------------------------------------------------------

def test_generator_values():
    bm = BrownianModel(dim=1, x0=[0.0], sigma0=1.0)
    xs = np.linspace(-5, 5, 11)[:, None]
    assert np.allclose(generator_apply(bm, 2, xs), 1.0)  # [TRIVIAL]
    ou = OrnsteinUhlenbeckModel(dim=1, x0=[0.0], kappa=1.0,
                                mu=[0.0], sigma0=1.0)
    assert generator_apply(ou, 2, np.array([2.0])) == pytest.approx(-7.0)
    dw = DoubleWell1DModel(x0=[0.0], sigma0=1.0)
    assert generator_apply(dw, 2, np.array([2.0])) == pytest.approx(-23.0)


def test_generator_center_point_and_bad_p(dw1):
    # at x = x0 only the trace term survives (p = 2)
    val = generator_apply(dw1, 2, np.asarray(dw1.x0))
    sig = dw1.diffusion(np.asarray(dw1.x0))
    assert val == pytest.approx(float(np.trace(sig @ sig.T)))
    with pytest.raises(ValueError):
        generator_apply(dw1, 3, np.array([1.0]))
    with pytest.raises(ValueError):
        generator_apply(dw1, 0, np.array([1.0]))


def test_generator_domination_shape_for_double_well():
    # [DERIVED] L_n f <= alpha f + gamma with alpha = 2K + 1 on a sampled grid
    base = DoubleWell1DModel(x0=[0.0], sigma0=1.0)
    fam = TruncationFamily(base, 4.0)
    xs = np.linspace(-6, 6, 2001)[:, None]
    f = np.sum(xs * xs, axis=-1)
    lf = generator_apply(fam, 2, xs)
    alpha = 2 * base.constants.semi_monotone + 1
    gamma = float(np.max(lf - alpha * f)) + 1e-12
    assert np.all(lf <= alpha * f + gamma)
    assert gamma < 10


# ---------------------------------------------------------------------------
# Constants validation and zoo lookup
# ---------------------------------------------------------------------------

def test_constants_validation():
    with pytest.raises(ModelDefinitionError):
        EllipticityConstants(0.0, 1.0, 1.0)
    with pytest.raises(ModelDefinitionError):
        EllipticityConstants(2.0, 1.0, 2.0)
    with pytest.raises(ModelDefinitionError):
        EllipticityConstants(1.0, 2.0, 1.0)


def test_make_model_ids(zoo):
    for mid in ("bm", "ou", "double-well-1d", "double-well-2d"):
        assert make_model(mid).dim in (1, 2)
    with pytest.raises(ModelDefinitionError):
        make_model("heat-equation")
    # Brownian motion is OU with kappa = 0, but takes no OU parameter
    with pytest.raises(ModelDefinitionError, match="kappa"):
        make_model("bm", kappa=1.0)
    with pytest.raises(ModelDefinitionError, match="mu"):
        make_model("bm", mu=[1.0])


@pytest.mark.parametrize("mid", ["bm", "ou", "double-well-1d", "double-well-2d"])
def test_models_take_no_horizon(mid):
    # T belongs to the time grid; no model or truncated family holds one
    with pytest.raises(ModelDefinitionError, match="horizon"):
        make_model(mid, horizon=1.0)
    assert not hasattr(TruncationFamily(make_model(mid), 4.0), "horizon")


@pytest.mark.parametrize("mid,constant", [("bm", True), ("ou", True), ("double-well-1d", True),
                                          ("double-well-2d", False)])
def test_constant_diffusion_follows_the_class(mid, constant):
    # a class that keeps the zero default grad sigma has constant sigma; a
    # truncated family reports its base's value, whatever the level
    model = make_model(mid)
    assert model.constant_diffusion is constant
    for level in (0.5, 8.0):
        assert TruncationFamily(model, level).constant_diffusion is constant

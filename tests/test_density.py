import numpy as np
import pytest
from scipy.stats import norm

import malsde.density
from malsde.bounds import fit_generator_constants
from malsde.density import (
    density_checks,
    fit_decay_envelope,
    gaussian_law,
    gaussian_oracle,
    kde,
    kde_risk,
    silverman_bandwidth,
    weight_samples,
)
from malsde.malliavin import weight_alpha
from malsde.models import (
    BrownianModel,
    DoubleWell1DModel,
    OrnsteinUhlenbeckModel,
    TruncationFamily,
)
from malsde.simulate import TimeGrid, sample_noise_block

from helpers import density_mc


def _bm_fam(sigma=1.0, x0=0.0):
    m = BrownianModel(dim=1, x0=[x0], sigma0=sigma)
    return TruncationFamily(m, 50.0)


# ---------------------------------------------------------------------------
# Weight-based density estimates against Gaussian closed forms
# ---------------------------------------------------------------------------

def test_brownian_density_matches_normal_pdf():
    fam = _bm_fam()
    grid = TimeGrid(1.0, 32)
    ys = np.array([[-1.0], [0.0], [0.5], [1.5]])
    est, se, dropped = density_mc(fam, grid, 40000, 0, ys)
    assert dropped == 0
    ref = norm.pdf(ys.ravel())
    # [DERIVED] rho = phi; each point within 3 SE plus a small slack
    assert np.all(np.abs(est - ref) <= 3 * se + 1e-12)
    assert np.all(se < 0.02)


def test_brownian_density_derivative_values():
    fam = _bm_fam()
    grid = TimeGrid(1.0, 32)
    ys = np.array([[0.0], [1.0]])
    est, se, dropped = density_mc(fam, grid, 60000, 1, ys, alpha=(0,))
    # [DERIVED] rho'(0) = 0 and rho'(1) = -phi(1) = -0.24197
    assert abs(est[0]) <= 3 * se[0]
    assert abs(est[1] + norm.pdf(1.0)) <= 3 * se[1]


def test_ou_density_matches_discrete_law():
    m = OrnsteinUhlenbeckModel(dim=1, x0=[0.5], kappa=1.0,
                               mu=[0.0], sigma0=1.0)
    fam = TruncationFamily(m, 8.0)
    grid = TimeGrid(1.0, 64)
    ys = np.array([[-0.5], [0.0], [0.7]])
    est, se, _ = density_mc(fam, grid, 40000, 2, ys)
    oracle = gaussian_oracle(m, 1.0, ys, steps=64)
    assert np.all(np.abs(est - oracle) <= 3 * se + 1e-12)


def test_density_far_left_point_recovers_total_mass_zero_weight():
    # [DERIVED] as y -> -inf the indicator is 1 and E[H] = 0
    fam = _bm_fam()
    grid = TimeGrid(1.0, 16)
    est, se, _ = density_mc(fam, grid, 40000, 3, np.array([[-10.0]]))
    assert abs(est[0]) <= 3 * se[0]


def test_density_order_cap_rejected(dw2):
    fam = TruncationFamily(dw2, 4.0)
    grid = TimeGrid(0.5, 16)
    with pytest.raises(ValueError):
        density_mc(fam, grid, 2000, 0, np.zeros((1, 2)), alpha=(0,))


def test_double_well_density_symmetry():
    # symmetric potential and x0 = 0 give a symmetric terminal law
    m = DoubleWell1DModel(x0=[0.0], sigma0=0.8)
    fam = TruncationFamily(m, 4.0)
    grid = TimeGrid(1.0, 32)
    ys = np.array([[-1.0], [-0.5], [0.5], [1.0]])
    est, se, _ = density_mc(fam, grid, 60000, 4, ys)
    assert abs(est[0] - est[3]) <= 3 * np.hypot(se[0], se[3])
    assert abs(est[1] - est[2]) <= 3 * np.hypot(se[1], se[2])


def test_density_truncation_stability():
    m = DoubleWell1DModel(x0=[0.0], sigma0=0.8)
    grid = TimeGrid(1.0, 32)
    ys = np.array([[0.0], [1.0]])
    vals = []
    for level in (4.0, 8.0):
        est, se, _ = density_mc(TruncationFamily(m, level), grid, 30000, 5, ys)
        vals.append((est, se))
    (e4, s4), (e8, s8) = vals
    assert np.all(np.abs(e4 - e8) <= 3 * np.hypot(s4, s8) + 1e-12)


# ---------------------------------------------------------------------------
# Kernel density cross-check
# ---------------------------------------------------------------------------

def test_kde_matches_normal_density():
    grid = TimeGrid(1.0, 8)
    dW = sample_noise_block(grid, 7, 0, 100000, 1)
    xn = dW.sum(axis=1)
    ys = np.linspace(-3, 3, 41)[:, None]
    est = kde(xn, ys)
    # [DERIVED] max deviation from phi below 0.01 at M = 1e5
    assert float(np.max(np.abs(est - norm.pdf(ys.ravel())))) <= 0.01


def test_kde_integrates_to_one():
    grid = TimeGrid(1.0, 8)
    dW = sample_noise_block(grid, 9, 0, 20000, 1)
    xn = dW.sum(axis=1)
    ys = np.linspace(-6, 6, 601)[:, None]
    est = kde(xn, ys)
    total = np.trapezoid(est, ys.ravel())
    assert total == pytest.approx(1.0, abs=0.02)


def test_kde_sample_floor_and_bandwidth():
    with pytest.raises(ValueError):
        kde(np.zeros((10, 1)), np.zeros((1, 1)))
    samples = np.random.default_rng(0).normal(size=(5000, 1))
    h = silverman_bandwidth(samples)
    expected = 1.06 * samples.std(ddof=1) * 5000 ** (-0.2)
    assert h[0] == pytest.approx(expected, rel=1e-12)


def test_kde_risk_covers_true_error():
    grid = TimeGrid(1.0, 8)
    dW = sample_noise_block(grid, 11, 0, 50000, 1)
    xn = dW.sum(axis=1)
    ys = np.linspace(-2, 2, 21)[:, None]
    est, risk = kde_risk(xn, ys)
    assert np.array_equal(est, kde(xn, ys))  # one kernel pass, same bits
    err = np.abs(est - norm.pdf(ys.ravel()))
    # the plug-in bound should cover the realized error at 3x on most points
    assert np.mean(err <= 3 * risk) >= 0.9


# ---------------------------------------------------------------------------
# Gaussian law oracles
# ---------------------------------------------------------------------------

def test_gaussian_law_values():
    m = BrownianModel(dim=1, x0=[0.5], sigma0=2.0)
    mean, var = gaussian_law(m, 0.25)
    assert mean[0] == 0.5 and var[0] == pytest.approx(1.0)  # sigma^2 t
    ou = OrnsteinUhlenbeckModel(dim=1, x0=[1.0], kappa=2.0,
                                mu=[0.5], sigma0=1.0)
    mean, var = gaussian_law(ou, 1.0)
    assert mean[0] == pytest.approx(0.5 + 0.5 * np.exp(-2.0), rel=1e-12)
    assert var[0] == pytest.approx((1 - np.exp(-4.0)) / 4.0, rel=1e-12)


def test_gaussian_law_discrete_steps():
    ou = OrnsteinUhlenbeckModel(dim=1, x0=[1.0], kappa=1.0,
                                mu=[0.0], sigma0=1.0)
    N = 16
    dt = 1.0 / N
    a = 1 - dt
    mean, var = gaussian_law(ou, 1.0, steps=N)
    assert mean[0] == pytest.approx(a ** N, rel=1e-13)  # [DERIVED]
    assert var[0] == pytest.approx(dt * (1 - a ** (2 * N)) / (1 - a * a), rel=1e-13)


@pytest.mark.parametrize("steps", [None, 48, 64])
@pytest.mark.parametrize("dim", [1, 2])
def test_gaussian_law_brownian_is_ou_kappa_zero(steps, dim):
    # sigma0 = 1.5, t = 0.7 and 48 steps is where s2 * dt * steps != s2 * t
    x0 = [0.4, -0.3][:dim]
    bm = BrownianModel(dim=dim, x0=x0, sigma0=1.5)
    ou = OrnsteinUhlenbeckModel(dim=dim, x0=x0, kappa=0.0,
                                mu=0.0, sigma0=1.5)
    for model in (bm, TruncationFamily(bm, 2.0)):
        for got, want in zip(gaussian_law(model, 0.7, steps=steps),
                             gaussian_law(ou, 0.7, steps=steps)):
            assert np.array_equal(got, want)
    mean, var = gaussian_law(bm, 0.7, steps=steps)
    # the Euler chain of Brownian motion has its exact law at any step count
    assert np.array_equal(mean, x0) and np.all(var == 1.5 ** 2 * 0.7)


def test_gaussian_oracle_values():
    m = BrownianModel(dim=1, x0=[0.0], sigma0=1.0)
    ys = np.array([[0.0]])
    assert gaussian_oracle(m, 1.0, ys)[0] == pytest.approx(1 / np.sqrt(2 * np.pi))
    assert gaussian_oracle(m, 1.0, ys, alpha=(0,))[0] == pytest.approx(0.0, abs=1e-15)
    d2 = gaussian_oracle(m, 1.0, ys, alpha=(0, 0))[0]
    assert d2 == pytest.approx(-1 / np.sqrt(2 * np.pi), rel=1e-12)  # [DERIVED]


# ---------------------------------------------------------------------------
# Decay envelope fitting
# ---------------------------------------------------------------------------

def _brownian_profile(ys, t=1.0, sigma=1.0):
    return norm.pdf(ys, scale=sigma * np.sqrt(t))


def test_envelope_fit_on_exact_gaussian_profile():
    ys = np.linspace(-3, 3, 21)
    est = _brownian_profile(ys)
    ses = np.full_like(est, 1e-6)
    check = fit_decay_envelope(ys[:, None], est, ses, t=1.0, x0=np.zeros(1),
                               c2=1.0, gamma2=0.05, alpha2=0.05, lambda0=1.0)
    assert check.holdout_pass  # [DERIVED] 100% holdout coverage
    assert check.envelope.shape == (len(ys),)
    # every estimate is significant, so the fit half is the even grid points,
    # bounded by construction
    assert np.all(np.abs(est[0::2]) <= check.envelope[0::2])
    # [DERIVED] empirical tail slope of log phi vs r^2 is -1/(2 sigma^2 t)
    assert check.tail_slope == pytest.approx(-0.5, rel=0.10)


def test_envelope_slope_shallower_at_larger_time():
    m = OrnsteinUhlenbeckModel(dim=1, x0=[0.0], kappa=1.0,
                               mu=[0.0], sigma0=1.0)
    slopes = []
    for t in (0.25, 1.0):
        _, var = gaussian_law(m, t)
        ys = np.linspace(-2.5, 2.5, 21)
        est = norm.pdf(ys, scale=np.sqrt(var[0]))
        check = fit_decay_envelope(ys[:, None], est, np.full_like(est, 1e-6),
                                   t=t, x0=np.zeros(1), c2=1.0, gamma2=0.05,
                                   alpha2=0.05, lambda0=1.0)
        slopes.append(check.tail_slope)
    assert slopes[1] > slopes[0]  # variance grows, the decay flattens


def test_envelope_monte_carlo_double_well():
    m = DoubleWell1DModel(x0=[0.0], sigma0=0.8)
    fam = TruncationFamily(m, 4.0)
    grid = TimeGrid(1.0, 32)
    ys = np.linspace(-2.5, 2.5, 21)[:, None]
    est, se, _ = density_mc(fam, grid, 60000, 6, ys)
    check = fit_decay_envelope(ys, est, se, t=1.0, x0=np.zeros(1),
                               c2=1.0, gamma2=0.05, alpha2=0.05, lambda0=1.0)
    assert check.holdout_pass
    assert check.tail_slope < 0


def test_weight_samples_shapes():
    fam = _bm_fam()
    grid = TimeGrid(1.0, 8)
    alphas = [(0,), (0, 0)]
    xn, h, valid = weight_samples(fam, grid, 3000, 0, alphas, chunk=1024)
    assert xn.shape == (3000, 1) and h.shape == (2, 3000)
    assert valid.all()
    # one shared chain pass per chunk gives every alpha its own weight, bitwise
    for lo, hi in ((0, 1024), (1024, 2048), (2048, 3000)):
        dW = sample_noise_block(grid, 0, lo, hi, 1)
        for alpha, h_alpha in zip(alphas, h):
            ref, ch = weight_alpha(fam, grid.dt, dW, alpha)
            assert np.array_equal(h_alpha[lo:hi], ref)
        assert np.array_equal(xn[lo:hi], ch.X[:, -1, :])


# ---------------------------------------------------------------------------
# The density checks' pass rules
# ---------------------------------------------------------------------------

def _plant(monkeypatch, name, change):
    """Make density.<name> hand its result, after change(result, *args), to
    `density_checks`."""
    orig = getattr(malsde.density, name)

    def planted(*args, **kwargs):
        out = orig(*args, **kwargs)
        change(out, *args)
        return out
    monkeypatch.setattr(malsde.density, name, planted)


def _flags(rows):
    return [bool(r[-1]) for r in rows]


@pytest.mark.parametrize("k, passes", [(2.9, True), (3.1, False)])
def test_density_check_linear_row_within_3_se_of_the_exact_law(ou, k, passes,
                                                               monkeypatch):
    fam, grid, ys = TruncationFamily(ou, 8.0), TimeGrid(1.0, 16), [-0.5, 0.0, 0.5, 1.0]
    law = gaussian_oracle(ou, 1.0, np.array(ys)[:, None], steps=grid.steps)

    def off_by_k_se(out, *args):
        est, se = out
        est[2] = law[2] + k * se[2]
    _plant(monkeypatch, "_orthant_estimates", off_by_k_se)
    rows = density_checks(fam, grid, 4000, 0, [[]], ys)
    assert [r[:2] for r in rows] == [(y, "0") for y in ys]
    assert [r[5] for r in rows] == list(law)  # the oracle column
    assert _flags(rows) == [True, True, passes, True]


@pytest.mark.parametrize("k, passes", [(2.9, True), (3.1, False)])
def test_density_check_nonlinear_row_within_3_se_plus_risk_of_the_kde(dw1, k, passes,
                                                                     monkeypatch):
    fam, grid, ys = TruncationFamily(dw1, 4.0), TimeGrid(1.0, 16), [-0.5, 0.0, 0.5]
    seen = {}
    _plant(monkeypatch, "_orthant_estimates", lambda out, *args: seen.update(est=out))

    def off_by_k_se_plus_risk(out, *args):
        kde_vals, risk = out
        est, se = seen["est"]
        kde_vals[1] = est[1] + k * (se[1] + risk[1])
    _plant(monkeypatch, "kde_risk", off_by_k_se_plus_risk)
    rows = density_checks(fam, grid, 2000, 0, [[], [1]], ys)
    assert [r[1] for r in rows] == ["0"] * 3 + ["1"] * 3
    # no oracle and no envelope; a nonlinear alpha != () row has no kde either
    assert all(np.isnan(r[5]) and np.isnan(r[6]) for r in rows)
    assert np.all(np.isfinite([r[4] for r in rows[:3]]))
    assert all(np.isnan(r[4]) for r in rows[3:])
    assert _flags(rows) == [True, passes, True] + [True] * 3


@pytest.mark.parametrize("k, passes", [(2.9, True), (3.1, False)])
def test_density_check_row_at_most_3_se_above_its_envelope(ou, k, passes, monkeypatch):
    fam, grid = TruncationFamily(ou, 8.0), TimeGrid(1.0, 16)
    ys = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]

    def below_by_k_se(out, ys, est, se, *args):
        out.envelope[3] = abs(est[3]) - k * se[3]
        out.envelope[0] = np.nan  # a row whose envelope is not finite skips the rule
    _plant(monkeypatch, "fit_decay_envelope", below_by_k_se)
    rows = density_checks(fam, grid, 4000, 0, [[]], ys, fit_generator_constants(fam, 2))
    assert np.isnan(rows[0][6]) and np.all(np.isfinite([r[6] for r in rows[1:]]))
    assert _flags(rows) == [True] * 3 + [passes] + [True] * 3


def test_density_check_envelope_fit_failure_fails_every_row_of_its_alpha(ou, monkeypatch,
                                                                         capsys):
    fam, grid, ys = TruncationFamily(ou, 8.0), TimeGrid(1.0, 16), [-1.0, 0.0, 0.5, 1.0]
    orig = malsde.density.fit_decay_envelope

    def fails_for_order_one(ys, est, *args, **kwargs):
        if fails_for_order_one.calls == 1:
            raise ValueError("planted")
        fails_for_order_one.calls += 1
        return orig(ys, est, *args, **kwargs)
    fails_for_order_one.calls = 0
    monkeypatch.setattr(malsde.density, "fit_decay_envelope", fails_for_order_one)
    rows = density_checks(fam, grid, 4000, 0, [[], [1]], ys, fit_generator_constants(fam, 2))
    assert _flags(rows) == [True] * 4 + [False] * 4
    assert all(np.isnan(r[6]) for r in rows[4:])
    assert capsys.readouterr().err == "envelope check failed (alpha 1): planted\n"

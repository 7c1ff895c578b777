import numpy as np
import pytest

from malsde.bounds import (
    covQ_moment_check,
    dnorm_check,
    exp_moment_check,
    fit_generator_constants,
    generator_violations,
    invcov_moment_scaling,
    invcov_reference_slopes,
    tail_check,
    truncation_convergence,
)
from malsde.malliavin import DegenerateCovarianceError, chain_batch
from malsde.models import (
    BrownianModel,
    DoubleWell1DModel,
    OrnsteinUhlenbeckModel,
    TruncationFamily,
)
from malsde.simulate import TimeGrid, sample_noise_block


def _centered_ou(kappa=1.0):
    return OrnsteinUhlenbeckModel(dim=1, x0=[0.0], horizon=1.0, kappa=kappa,
                                  mu=[0.0], sigma0=1.0)


class _DiagDiffusionModel(BrownianModel):
    """Drift-free with sigma = diag(1, 2); det Q(t) = 4 t^2 exactly."""

    def diffusion(self, x):
        mat = np.diag([1.0, 2.0]).astype(np.asarray(x).dtype)
        return np.broadcast_to(mat, np.shape(x)[:-1] + (2, 2))


# ---------------------------------------------------------------------------
# Generator constants
# ---------------------------------------------------------------------------

def test_fit_drift_free_constants():
    fam = TruncationFamily(BrownianModel(dim=1, x0=[0.0], horizon=1.0,
                                         sigma0=1.0), 8.0)
    fit = fit_generator_constants(fam, p=2)
    # [DERIVED] L|x|^2 = 1 identically: zero raw slope, unit offset
    assert abs(fit.alpha_raw) <= 1e-9
    assert fit.gamma_p == pytest.approx(1.0, abs=1e-6)
    assert fit.holdout_violations == 0
    assert fit.alpha_p > 0


def test_mean_reverting_raw_slope_and_known_pair():
    fam = TruncationFamily(_centered_ou(), 8.0)
    fit = fit_generator_constants(fam, p=2)
    # [DERIVED] L|x|^2 = -2|x|^2 + 1 inside the truncation ball
    assert fit.alpha_raw <= 0
    assert fit.holdout_violations == 0
    assert generator_violations(fam, 2, -2.0, 1.0, radius=7.5, seed=3) == 0
    # outside the ball the clamp weakens the drift, so (-2, 1) can fail there
    assert fit.ratio > 0


def test_fit_double_well_holdout_clean(dw1):
    fam = TruncationFamily(dw1, 4.0)
    fit = fit_generator_constants(fam, p=2)
    assert fit.holdout_violations == 0
    assert fit.gamma_p > 0 and fit.alpha_p > 0
    assert fit.ratio < 1.0


def test_fit_radius_must_cover_level(dw1):
    fam = TruncationFamily(dw1, 8.0)
    with pytest.raises(ValueError):
        fit_generator_constants(fam, p=2, radius=4.0)


# ---------------------------------------------------------------------------
# Exponential moment bound
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model_name", ["ou", "dw"])
def test_exp_moment_bound_holds(model_name, dw1):
    base = _centered_ou() if model_name == "ou" else dw1
    fam = TruncationFamily(base, 8.0)
    fit = fit_generator_constants(fam, p=2)
    grid = TimeGrid(1.0, 32)
    lhs_by_zeta = []
    for zeta in (0.1, 0.5):
        rep = exp_moment_check(fam, grid, 20000, zeta, fit, seed=1)
        assert rep.passed, (rep.lhs, rep.rhs)
        assert rep.lhs >= 1.0  # exp of a nonnegative variable
        lhs_by_zeta.append(rep.lhs)
    assert lhs_by_zeta[1] >= lhs_by_zeta[0]  # monotone in zeta


# ---------------------------------------------------------------------------
# Terminal tail bound
# ---------------------------------------------------------------------------

def test_tail_bound_brownian_reference_value():
    m = BrownianModel(dim=1, x0=[0.0], horizon=1.0, sigma0=1.0)
    fam = TruncationFamily(m, 8.0)
    fit = fit_generator_constants(fam, p=2)
    grid = TimeGrid(1.0, 16)
    reports = tail_check(fam, grid, 200000, (3.0,), fit, seed=2)
    rep = reports[0]
    # [DERIVED] P(W_1 > 3) = 1.3499e-3
    assert abs(rep.lhs - 1.3499e-3) <= 3 * rep.se
    assert rep.passed


@pytest.mark.parametrize("model_name", ["ou", "dw"])
def test_tail_bound_holds_at_all_offsets(model_name, dw1):
    base = _centered_ou() if model_name == "ou" else dw1
    fam = TruncationFamily(base, 8.0)
    fit = fit_generator_constants(fam, p=2)
    grid = TimeGrid(1.0, 32)
    for rep in tail_check(fam, grid, 50000, (2.0, 3.0, 4.0), fit, seed=4):
        assert rep.passed, (rep.constants["offset"], rep.lhs, rep.rhs)
        assert rep.rhs > 0


# ---------------------------------------------------------------------------
# Derivative-norm and covariance moments across truncation levels
# ---------------------------------------------------------------------------

def test_dnorm_drift_free_exact():
    m = BrownianModel(dim=1, x0=[0.0], horizon=1.0, sigma0=1.0)
    grid = TimeGrid(1.0, 16)
    [rep] = dnorm_check(m, (2.0, 4.0, 8.0), grid, 2000, (2,))
    # [TRIVIAL] sum dt |G_k|^2 = T on every path and level
    assert rep.lhs == 0.0 and rep.passed
    assert np.allclose(rep.constants["values"], 1.0, rtol=1e-12)
    with pytest.raises(ValueError):
        dnorm_check(m, (2.0, 4.0), grid, 100, (3,))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dnorm_zero_diffusion_is_degenerate():
    # sigma = 0 makes every derivative norm 0: no spread to report
    m = OrnsteinUhlenbeckModel(dim=1, x0=[0.5], horizon=1.0, kappa=1.0,
                               mu=[0.0], sigma0=0.0)
    with pytest.raises(DegenerateCovarianceError):
        dnorm_check(m, (2.0, 4.0), TimeGrid(1.0, 8), 500, (2, 4))


def test_dnorm_one_pass_serves_every_p(dw1):
    grid = TimeGrid(1.0, 16)
    levels = (1.0, 4.0)
    reps = dnorm_check(dw1, levels, grid, 3000, (2, 4), chunk=1024)
    dW = sample_noise_block(grid, 0, 0, 3000, 1)
    h2 = [grid.dt * np.sum(chain_batch(TruncationFamily(dw1, n), grid.dt, dW,
                                       want_weight_terms=False).G ** 2,
                           axis=(1, 2, 3))
          for n in levels]
    assert [rep.constants["p"] for rep in reps] == [2, 4]
    for rep, p in zip(reps, (2, 4)):
        expect = [np.mean(h ** (p / 2)) for h in h2]
        assert np.allclose(rep.constants["values"], expect, rtol=1e-12, atol=0)
    # level 1 clamps the drift, so the levels really differ
    assert reps[0].lhs > 0


@pytest.mark.parametrize("p", [2, 4])
def test_dnorm_uniform_in_level_double_well(p, dw1):
    grid = TimeGrid(1.0, 32)
    [rep] = dnorm_check(dw1, (2.0, 4.0, 8.0), grid, 20000, (p,))
    assert rep.passed, rep.constants["values"]


def test_covq_drift_free_time_table():
    m = BrownianModel(dim=1, x0=[0.0], horizon=1.0, sigma0=1.0)
    grid = TimeGrid(1.0, 16)
    rep = covQ_moment_check(m, (2.0, 4.0), grid, 1000)
    assert rep.lhs == 0.0 and rep.passed
    for key, vals in rep.constants["table"].items():
        t = float(key.split("=")[1])
        # [DERIVED] |Q(t)|_F^2 = t^2 for unit constant diffusion
        assert np.allclose(vals, t * t, rtol=1e-12)


def test_covq_uniform_in_level_double_well(dw1):
    grid = TimeGrid(1.0, 32)
    rep = covQ_moment_check(dw1, (2.0, 4.0, 8.0), grid, 20000)
    assert rep.passed, rep.constants["table"]


# ---------------------------------------------------------------------------
# Inverse-covariance moment scaling
# ---------------------------------------------------------------------------

def test_invcov_drift_free_exact_slopes():
    m = BrownianModel(dim=1, x0=[0.0], horizon=1.0, sigma0=1.0)
    fam = TruncationFamily(m, 8.0)
    times = np.geomspace(0.1, 1.0, 5)
    sc = invcov_moment_scaling(fam, times, (1, 2, 4), 200, steps=16)
    # [DERIVED] det Q = t exactly, so E[det Q^-p] = t^-p with zero variance
    assert np.allclose(sc.slopes, [-1.0, -2.0, -4.0], atol=1e-10)
    assert sc.ess_warnings == []


def test_invcov_diag_diffusion_2d_slope():
    m = _DiagDiffusionModel(dim=2, x0=[0.0, 0.0], horizon=1.0, sigma0=1.0)
    fam = TruncationFamily(m, 8.0)
    times = np.geomspace(0.1, 1.0, 5)
    sc = invcov_moment_scaling(fam, times, (2,), 200, steps=16)
    # [DERIVED] det Q = 4 t^2, matching the constant-sigma exponent -dp
    assert sc.slopes[0] == pytest.approx(invcov_reference_slopes(2, 2)["constant_sigma"],
                                         abs=1e-10)


def test_invcov_nonlinear_reported_band(dw1):
    fam = TruncationFamily(dw1, 4.0)
    times = np.geomspace(0.08, 0.8, 5)
    sc = invcov_moment_scaling(fam, times, (1, 2), 4000, steps=16, seed=5)
    refs1 = invcov_reference_slopes(1, 1)
    refs2 = invcov_reference_slopes(1, 2)
    # slopes are reported, monotone in p, and within the displayed bracket
    assert sc.slopes[1] < sc.slopes[0] < 0
    assert refs1["appendix_lemma"] - 0.5 < sc.slopes[0] < refs1["moment_hypothesis"] + 0.5
    assert refs2["appendix_lemma"] - 0.5 < sc.slopes[1] < refs2["moment_hypothesis"] + 0.5


def test_invcov_requires_decade():
    m = BrownianModel(dim=1, x0=[0.0], horizon=1.0, sigma0=1.0)
    fam = TruncationFamily(m, 8.0)
    with pytest.raises(ValueError):
        invcov_moment_scaling(fam, np.geomspace(0.5, 1.0, 3), (1,), 100)


# ---------------------------------------------------------------------------
# Truncation convergence
# ---------------------------------------------------------------------------

def test_truncation_convergence_rows(dw1):
    grid = TimeGrid(1.0, 32)
    base = DoubleWell1DModel(x0=[0.0], horizon=1.0, sigma0=0.8)
    rows = truncation_convergence(base, (2.0, 4.0, 8.0), grid, 20000, p=2)
    vals = [v for _, _, v in rows]
    assert vals[0] >= vals[1]  # deeper truncations agree on more paths
    assert vals[-1] <= 1e-3  # [DERIVED] exits beyond level 4 are rare
    with pytest.raises(ValueError):
        truncation_convergence(base, (4.0, 2.0), grid, 100)

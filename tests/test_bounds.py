import dataclasses
from collections import Counter

import numpy as np
import pytest
import scipy.optimize

import malsde.bounds
import malsde.simulate
from malsde.bounds import (
    GeneratorFit,
    _convergence_chunk,
    _cov_chunk,
    _exp_etas,
    _logdet_chunk,
    _logsumexp,
    covQ_moment_check,
    exp_moment_check,
    fit_generator_constants,
    generator_violations,
    invcov_exact_slope,
    invcov_moment_scaling,
    invcov_reference_slopes,
    invcov_slope_checks,
    step_halving_checks,
    tail_check,
    truncation_convergence,
)
from malsde.malliavin import DegenerateCovarianceError, chain_batch, flow
from malsde.models import (
    BrownianModel,
    DoubleWell1DModel,
    DoubleWell2DModel,
    OrnsteinUhlenbeckModel,
    TruncationFamily,
    generator_apply,
)
from malsde.simulate import (
    TimeGrid,
    _euler_step,
    euler_rerun,
    euler_states,
    sample_noise_block,
)

from helpers import one_point_surplus, scipy_polished_gamma


def _centered_ou(kappa=1.0):
    return OrnsteinUhlenbeckModel(dim=1, x0=[0.0], kappa=kappa,
                                  mu=[0.0], sigma0=1.0)


class _DiagDiffusionModel(BrownianModel):
    """Drift-free with sigma = diag(1, 2); det Q(t) = 4 t^2 exactly."""

    def diffusion(self, x):
        mat = np.diag([1.0, 2.0]).astype(np.asarray(x).dtype)
        return np.broadcast_to(mat, np.shape(x)[:-1] + (2, 2))


# a placeholder fit for tests that read only the dnorm and covQ rows
_FIT = GeneratorFit(alpha_p=1.0, gamma_p=1.0, alpha_raw=1.0, holdout_violations=0)


def _sweep(fam, grid, n_paths, fit=_FIT, zetas=(0.5,), y_offsets=(1.0,), p_list=(2,),
           levels=None, **kwargs):
    """(exp_moment, tail, dnorm + covQ) reports of one `covQ_moment_check`
    sweep; the levels default to fam's level and half of it."""
    if levels is None:
        levels = (fam.level / 2, fam.level)
    reps = covQ_moment_check(fam, levels, grid, n_paths, fit, zetas, y_offsets,
                             p_list, **kwargs)
    i, j = len(zetas), len(zetas) + len(y_offsets)
    return reps[:i], reps[i:j], reps[j:]


def _cov_reports(base, levels, grid, n_paths, p_list=(2, 4), **kwargs):
    """The dnorm and covQ reports of a sweep working at the top level."""
    fam = TruncationFamily(base, max(levels))
    return _sweep(fam, grid, n_paths, p_list=p_list, levels=levels, **kwargs)[2]


# ---------------------------------------------------------------------------
# Generator constants
# ---------------------------------------------------------------------------

def test_fit_drift_free_constants():
    fam = TruncationFamily(BrownianModel(dim=1, x0=[0.0],
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


# the port's objectives: a 1-d wave and a 2-d staircase whose plateaus force
# shrinks; the first start of each has a zero coordinate
_NM_CASES = {
    "wave-1d": (lambda x: np.sin(3 * x[..., 0]) + 0.1 * x[..., 0] ** 2,
                [[0.0], [1.7], [-2.5], [0.4]]),
    "stairs-2d": (lambda x: (np.floor(4 * x[..., 0]) ** 2 + np.floor(4 * x[..., 1]) ** 2
                             + 0.01 * x[..., 0] ** 2),
                  [[0.0, 1.3], [-1.2, 1.0], [2.0, 0.0], [0.5, -0.7]]),
}


def _scipy_nelder_mead(func, start, **options):
    """scipy's Nelder-Mead result from one start and the values of its
    objective calls, in call order."""
    values = []

    def logged(x):
        values.append(float(func(x)))
        return values[-1]

    res = scipy.optimize.minimize(logged, start, method="Nelder-Mead", options=options)
    return res, values


def _branches(values, n):
    """The count of each Nelder-Mead branch a run took, replayed from the
    values of its objective calls (`_scipy_nelder_mead`) alone."""
    fs, calls, seen = sorted(values[:n + 1]), iter(values[n + 1:]), Counter()
    for fr in calls:
        if fr < fs[0]:
            fe = next(calls)
            fs[-1], branch = (fe if fe < fr else fr), "expand"
        elif fr < fs[-2]:
            fs[-1], branch = fr, "reflect"
        else:
            outside, fc = fr < fs[-1], next(calls)
            if (fc <= fr) if outside else (fc < fs[-1]):
                fs[-1], branch = fc, "outside" if outside else "inside"
            else:
                fs[1:], branch = [next(calls) for _ in range(n)], "shrink"
        seen[branch] += 1
        fs.sort()
    return seen


@pytest.mark.parametrize("case", list(_NM_CASES))
def test_nelder_mead_port_is_bitwise_scipy_per_start(case):
    func, starts = _NM_CASES[case]
    starts = np.array(starts)
    options = {"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000}
    found = malsde.bounds._nelder_mead(func, starts, **options)
    seen, nits = Counter(), []
    for start, fun in zip(starts, found):
        res, values = _scipy_nelder_mead(func, start, **options)
        assert fun == res.fun  # [DERIVED] the same operations in the same order
        assert res.status == 0
        branches = _branches(values, starts.shape[1])
        assert sum(branches.values()) == res.nit - 1  # the replay read every call
        seen += branches
        nits.append(res.nit)
    # every branch ran (a 1-d simplex has no accepted reflection: its best is
    # its second worst), and the lockstep starts stopped at different iterations
    assert set(seen) == {"expand", "outside", "inside", "shrink"} | (
        {"reflect"} if starts.shape[1] == 2 else set())
    assert len(set(nits)) == len(nits)


def test_nelder_mead_port_stops_at_maxiter():
    func, starts = _NM_CASES["stairs-2d"]
    starts = np.array(starts)
    options = {"xatol": 1e-10, "fatol": 1e-12, "maxiter": 100}
    found = malsde.bounds._nelder_mead(func, starts, **options)
    status = []
    for start, fun in zip(starts, found):
        res, _ = _scipy_nelder_mead(func, start, **options)
        assert fun == res.fun
        status.append(res.status)
    assert sorted(status) == [0, 0, 0, 2]  # one start runs out of iterations


_POLISH_CASES = {
    "dw1-level1": (DoubleWell1DModel(x0=[0.3], sigma0=0.8), 1.0),
    "dw1-level4": (DoubleWell1DModel(x0=[0.3], sigma0=0.8), 4.0),
    "ou": (_centered_ou(), 8.0),
    "bm": (BrownianModel(dim=1, x0=[0.0], sigma0=1.0), 8.0),
    "bm-2d": (BrownianModel(dim=2, x0=[0.0, 0.0], sigma0=1.0), 8.0),
    "ou-2d": (OrnsteinUhlenbeckModel(dim=2, x0=[0.5, -0.3], kappa=1.0,
                                     mu=[0.0, 0.0], sigma0=1.0), 8.0),
    "dw2": (DoubleWell2DModel(x0=[0.1, -0.2]), 4.0),
}


@pytest.mark.parametrize("case", ["dw1-level1", "bm-2d", "dw2"])
def test_clipped_surplus_is_bitwise_one_point_values(case):
    fam = TruncationFamily(*_POLISH_CASES[case])
    radius = malsde.bounds._default_radius(fam)
    x0 = np.asarray(fam.x0, dtype=float)
    # a ball 1.25 times the fit's: 20 % (d = 1) or 36 % (d = 2) of the points
    # are pulled onto the fit's ball, the rest keep their own f, whose scalar
    # power rounds apart from the array power on some of them
    xs = malsde.bounds._ball_sample(np.random.default_rng(5), x0, 1.25 * radius, 4000,
                                    fam.dim)
    for p in (2, 4):
        values, out = zip(*(one_point_surplus(fam, p, 1.0, x0, radius, x) for x in xs))
        assert sum(out) > len(xs) / 10
        got = malsde.bounds._clipped_surplus(fam, p, 1.0, x0, radius, xs)
        assert np.array_equal(got, values)


@pytest.mark.parametrize("p", [2, 4])
@pytest.mark.parametrize("case", list(_POLISH_CASES))
def test_polished_gamma_is_bitwise_the_scipy_polish(case, p, monkeypatch):
    fam = TruncationFamily(*_POLISH_CASES[case])
    radius = malsde.bounds._default_radius(fam)
    x0 = np.asarray(fam.x0, dtype=float)
    xs = malsde.bounds._ball_sample(np.random.default_rng(0), x0, radius,
                                    malsde.bounds.FIT_SAMPLES, fam.dim)
    f = np.sum((xs - x0) ** 2, axis=-1) ** (p / 2)
    lf = generator_apply(fam, p, xs)
    clipped = 0
    for alpha in (0.01, 0.1, 1.0, 64.0):
        args = (fam, p, alpha, xs, lf - alpha * f, x0, radius)
        gamma, n = scipy_polished_gamma(*args)
        assert malsde.bounds._polished_gamma(*args) == gamma
        clipped += n
    if case == "bm-2d" and p == 4:
        # L f - 0.01 f = 8 r^2 - 0.01 r^4 still rises at the ball's edge r = 10
        assert clipped > 0
    fit = fit_generator_constants(fam, p)
    monkeypatch.setattr(malsde.bounds, "_polished_gamma",
                        lambda *args: scipy_polished_gamma(*args)[0])
    assert fit == fit_generator_constants(fam, p)


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
    for rep in _sweep(fam, grid, 20000, fit, zetas=(0.1, 0.5), seed=1)[0]:
        assert rep.passed, (rep.lhs, rep.rhs)
        assert rep.lhs >= 1.0  # exp of a nonnegative variable
        lhs_by_zeta.append(rep.lhs)
    assert lhs_by_zeta[1] >= lhs_by_zeta[0]  # monotone in zeta


def test_exp_moment_one_pass_serves_every_zeta(dw1, monkeypatch):
    fam = TruncationFamily(dw1, 1.0)
    fit = fit_generator_constants(fam, p=2)
    grid = TimeGrid(1.0, 16)
    n_paths, chunk = 3000, 1024
    single = [_sweep(fam, grid, n_paths, fit, zetas=(zeta,), seed=3, chunk=chunk)[0][0]
              for zeta in (0.1, 0.5)]
    rows = []

    def counted_flow(level, dt, dW):
        if level.level == fam.level:  # the sweep's top level, fam's own
            rows.append(len(dW))
        return flow(level, dt, dW)

    monkeypatch.setattr(malsde.bounds, "flow", counted_flow)
    both = _sweep(fam, grid, n_paths, fit, zetas=(0.1, 0.5), seed=3, chunk=chunk)[0]
    assert sum(rows) == n_paths  # one Euler pass for both zetas
    assert both == single
    assert [rep.constants["zeta"] for rep in both] == [0.1, 0.5]


# ---------------------------------------------------------------------------
# Terminal tail bound
# ---------------------------------------------------------------------------

def test_tail_bound_brownian_reference_value():
    m = BrownianModel(dim=1, x0=[0.0], sigma0=1.0)
    fam = TruncationFamily(m, 8.0)
    fit = fit_generator_constants(fam, p=2)
    grid = TimeGrid(1.0, 16)
    reports = _sweep(fam, grid, 200000, fit, y_offsets=(3.0,), seed=2)[1]
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
    for rep in _sweep(fam, grid, 50000, fit, y_offsets=(2.0, 3.0, 4.0), seed=4)[1]:
        assert rep.passed, (rep.constants["offset"], rep.lhs, rep.rhs)
        assert rep.rhs > 0


# ---------------------------------------------------------------------------
# Derivative-norm and covariance moments across truncation levels
# ---------------------------------------------------------------------------

def test_dnorm_drift_free_exact():
    m = BrownianModel(dim=1, x0=[0.0], sigma0=1.0)
    grid = TimeGrid(1.0, 16)
    rep, _ = _cov_reports(m, (2.0, 4.0, 8.0), grid, 2000, (2,))
    # [TRIVIAL] sum dt |G_k|^2 = T on every path and level
    assert rep.lhs == 0.0 and rep.passed
    assert np.allclose(rep.constants["values"], 1.0, rtol=1e-12)
    with pytest.raises(ValueError):
        _cov_reports(m, (2.0, 4.0), grid, 100, (3,))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dnorm_zero_diffusion_is_degenerate():
    # sigma = 0 makes every derivative norm 0: no spread to report
    m = OrnsteinUhlenbeckModel(dim=1, x0=[0.5], kappa=1.0,
                               mu=[0.0], sigma0=0.0)
    with pytest.raises(DegenerateCovarianceError):
        _cov_reports(m, (2.0, 4.0), TimeGrid(1.0, 8), 500, (2, 4))


def test_dnorm_one_pass_serves_every_p(dw1):
    grid = TimeGrid(1.0, 16)
    levels = (1.0, 4.0)
    reps = _cov_reports(dw1, levels, grid, 3000, (2, 4), chunk=1024)[:-1]
    dW = sample_noise_block(grid, 0, 0, 3000, 1)
    h2 = [grid.dt * np.sum(chain_batch(TruncationFamily(dw1, n), grid.dt, dW).G ** 2,
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
    rep, _ = _cov_reports(dw1, (2.0, 4.0, 8.0), grid, 20000, (p,))
    assert rep.passed, rep.constants["values"]


def test_covq_drift_free_time_table():
    m = BrownianModel(dim=1, x0=[0.0], sigma0=1.0)
    grid = TimeGrid(1.0, 16)
    rep = _cov_reports(m, (2.0, 4.0), grid, 1000)[-1]
    assert rep.lhs == 0.0 and rep.passed
    for key, vals in rep.constants["table"].items():
        t = float(key.split("=")[1])
        # [DERIVED] |Q(t)|_F^2 = t^2 for unit constant diffusion
        assert np.allclose(vals, t * t, rtol=1e-12)


def test_covq_times_are_prefixes_of_one_pass(dw1):
    # Q(t_k) from one full-horizon pass equals Q_T of a k-step run on the
    # same seed: the noise of the shorter grid is a prefix of the full one
    grid = TimeGrid(1.0, 16)
    levels = (1.0, 4.0)
    rep = _cov_reports(dw1, levels, grid, 2000)[-1]
    for k in (4, 8, 16):
        sub = TimeGrid(k * grid.dt, k)
        dW = sample_noise_block(sub, 0, 0, 2000, 1)
        chains = [chain_batch(TruncationFamily(dw1, n), sub.dt, dW) for n in levels]
        expect = [np.mean(np.sum(ch.Q ** 2, axis=(1, 2))) for ch in chains]
        assert np.allclose(rep.constants["table"][f"t={k * grid.dt:g}"], expect,
                           rtol=1e-12, atol=0)
    assert np.any(np.abs(chains[0].X) > 1.0)  # level 1 clamps some paths


def test_covq_uniform_in_level_double_well(dw1):
    grid = TimeGrid(1.0, 32)
    rep = _cov_reports(dw1, (2.0, 4.0, 8.0), grid, 20000)[-1]
    assert rep.passed, rep.constants["table"]


def _every_level_cov_sums(base, levels, grid, seed, p_list, ks, lo, hi):
    """A full `flow` pass per level: per level the sums of (tr Q_T)^(p/2) and
    of |Q(t_k)|_F^2, and per lower level m the paths whose states
    X_0..X_{N-1} one level up leave the ball of radius m."""
    dW = sample_noise_block(grid, seed, lo, hi, base.dim)
    sums, X = [], []
    for n in levels:
        X_n, *_, S = flow(TruncationFamily(base, n), grid.dt, dW)
        Q = grid.dt * S
        h2 = np.trace(Q[:, -1], axis1=-2, axis2=-1)
        sums.append([(h2 ** (p / 2)).sum() for p in p_list]
                    + [np.sum(Q[:, k] ** 2, axis=(1, 2)).sum() for k in ks])
        X.append(X_n)
    exits = [int(np.count_nonzero(np.any(
                 np.linalg.norm(hi_[:, :-1], axis=-1) > m, axis=1)))
             for m, hi_ in zip(levels, X[1:])]
    return np.array(sums), exits


@pytest.mark.parametrize("case", ["dw1", "dw1-calm", "dw2"])
def test_cov_sweep_matches_every_level_run(case, monkeypatch):
    if case == "dw1":  # every path, about half and few leave
        base = DoubleWell1DModel(x0=[0.3], sigma0=0.8)
        levels, grid = (0.25, 1.0, 2.0, 4.0), TimeGrid(1.0, 16)
    elif case == "dw1-calm":  # every path, about half and no path leave
        base = DoubleWell1DModel(x0=[0.3], sigma0=0.8)
        levels, grid = (0.2, 1.0, 6.0, 8.0), TimeGrid(1.0, 16)
    else:  # x0 sits on the sphere of radius 0.5: X_0 is not outside it
        base = DoubleWell2DModel(x0=[0.5, 0.0])
        levels, grid = (0.5, 1.0, 2.0, 4.0), TimeGrid(0.5, 16)
    n_paths, chunk, seed = 6000, 2560, 11  # chunks of 2560, 2560 and 880 paths
    p_list, ks = (2, 4), (4, 8, 16)
    rows = []

    def counted_flow(fam, dt, dW):
        rows.append(len(dW))
        return flow(fam, dt, dW)

    monkeypatch.setattr(malsde.bounds, "flow", counted_flow)
    total, all_exits = 0.0, np.zeros(len(levels) - 1, dtype=int)
    for lo in range(0, n_paths, chunk):
        hi = min(lo + chunk, n_paths)
        sums, exits = _every_level_cov_sums(base, levels, grid, seed, p_list, ks, lo, hi)
        rows.clear()
        got, _, _ = _cov_chunk(TruncationFamily(base, levels[-1]), levels, grid, seed,
                               (), [], p_list, ks, lo, hi)
        assert np.array_equal(got, sums)
        # one full pass, then only the paths that leave each smaller ball,
        # and no flow call at a level no path leaves
        assert rows == [hi - lo] + [e for e in exits[::-1] if e]
        total = total + sums
        all_exits += exits
    if case == "dw1":
        assert all_exits[0] == n_paths and 0 < all_exits[1] < n_paths
        assert 0 < all_exits[2] < n_paths // 100
    elif case == "dw1-calm":
        assert all_exits[0] == n_paths and 0 < all_exits[1] < n_paths
        assert all_exits[2] == 0
    else:
        assert 0 < all_exits[0] < n_paths
    # levels in any order, duplicates included, report in the caller's order
    order = (levels[3], levels[1], levels[2], levels[2])
    reps = _cov_reports(base, order, grid, n_paths, p_list, seed=seed, chunk=chunk)
    means = total / n_paths
    at = [levels.index(n) for n in order]
    for i, rep in enumerate(reps[:-1]):
        assert rep.constants["values"] == [float(means[j, i]) for j in at]
        assert rep.constants["levels"] == list(order)
    for i, vals in enumerate(reps[-1].constants["table"].values(), len(p_list)):
        assert vals == [float(means[j, i]) for j in at]


@pytest.mark.parametrize("level", [0.25, 1.0, 4.0, 6.0])  # below, interior, top, above
def test_one_sweep_serves_every_row(level, dw1):
    fam = TruncationFamily(dw1, level)
    levels, grid = (0.5, 1.0, 4.0), TimeGrid(1.0, 16)
    n_paths, chunk, seed = 3000, 1024, 5  # chunks of 1024, 1024 and 952 paths
    zetas, y_offsets, p_list = (0.1, 0.5), (0.25, 0.75), (2, 4)
    fit = fit_generator_constants(fam, p=2)
    reps = covQ_moment_check(fam, levels, grid, n_paths, fit, zetas, y_offsets,
                             p_list, seed=seed, chunk=chunk)
    X = euler_states(fam, grid.dt, sample_noise_block(grid, seed, 0, n_paths, 1))
    r2 = np.sum((X - 0.3) ** 2, axis=-1)
    sups = [zeta * np.max(np.exp(-eta * grid.times) * r2, axis=1)
            for zeta, eta in zip(zetas, _exp_etas(fam, fit, zetas))]
    direct = (exp_moment_check(fam, fit, zetas, sups)
              + tail_check(fam, fit, grid.horizon, X[:, -1], y_offsets))
    assert reps[:len(direct)] == direct
    assert [rep.param for rep in direct] == ["zeta=0.1", "zeta=0.5",
                                             "y_off=0.25", "y_off=0.75"]
    ks = (4, 8, 16)
    total = 0.0
    for lo in range(0, n_paths, chunk):
        sums, _ = _every_level_cov_sums(dw1, levels, grid, seed, p_list, ks, lo,
                                        min(lo + chunk, n_paths))
        total = total + sums
    means = total / n_paths
    assert [rep.check for rep in reps[len(direct):]] == ["dnorm", "dnorm", "covQ"]
    for i, rep in enumerate(reps[len(direct):-1]):
        assert rep.constants["values"] == [float(v) for v in means[:, i]]
    for i, vals in enumerate(reps[-1].constants["table"].values(), len(p_list)):
        assert vals == [float(v) for v in means[:, i]]


# ---------------------------------------------------------------------------
# Inverse-covariance moment scaling
# ---------------------------------------------------------------------------

def test_invcov_drift_free_exact_slopes():
    m = BrownianModel(dim=1, x0=[0.0], sigma0=1.0)
    fam = TruncationFamily(m, 8.0)
    times = np.geomspace(0.1, 1.0, 5)
    sc = invcov_moment_scaling(fam, times, (1, 2, 4), 200, steps=16)
    # [DERIVED] det Q = t exactly, so E[det Q^-p] = t^-p with zero variance
    assert np.allclose(sc.slopes, [-1.0, -2.0, -4.0], atol=1e-10)
    assert sc.ess_warnings == []


def test_invcov_diag_diffusion_2d_slope():
    m = _DiagDiffusionModel(dim=2, x0=[0.0, 0.0], sigma0=1.0)
    fam = TruncationFamily(m, 8.0)
    times = np.geomspace(0.1, 1.0, 5)
    sc = invcov_moment_scaling(fam, times, (2,), 200, steps=16)
    # [DERIVED] det Q = 4 t^2, matching the constant-sigma exponent -dp
    assert sc.slopes[0] == pytest.approx(invcov_reference_slopes(2, 2)["constant_sigma"],
                                         abs=1e-10)


@pytest.mark.parametrize("kappa", [0.0, 1.0])
def test_invcov_exact_slope_of_linear_models(kappa):
    times, steps = np.geomspace(0.1, 1.0, 5), 16
    bm = BrownianModel(dim=2, x0=[0.0, 0.0], sigma0=1.5)
    # [DERIVED] det Q = (sigma0^2 t)^d for Brownian motion
    assert invcov_exact_slope(bm, times, 2, steps) == pytest.approx(-4.0, abs=1e-12)
    ou = OrnsteinUhlenbeckModel(dim=1, x0=[0.5], kappa=kappa,
                                mu=[0.0], sigma0=1.0)
    sc = invcov_moment_scaling(TruncationFamily(ou, 8.0), times, (2, 4), 300, steps=steps)
    for p, slope in zip((2, 4), sc.slopes):
        # Q is deterministic, so the Monte Carlo fit is exact up to round-off
        assert abs(slope - invcov_exact_slope(ou, times, p, steps)) <= 1e-12


def _plant_scaling(monkeypatch, scaling):
    """Make `invcov_slope_checks` judge `scaling` in place of its own fit."""
    monkeypatch.setattr(malsde.bounds, "invcov_moment_scaling", lambda *a, **k: scaling)


def test_invcov_slope_passes_judges_untruncated_linear_fits_only(monkeypatch):
    times, steps = np.geomspace(0.1, 1.0, 5), 16
    # x0 far outside the level-1 ball: the family's paths all leave it
    ou = OrnsteinUhlenbeckModel(dim=1, x0=[3.0], kappa=2.0,
                                mu=[0.0], sigma0=1.0)
    fam = TruncationFamily(ou, 1.0)
    fit = invcov_moment_scaling(ou, times, (2, 4), 300, steps=steps)
    rows = invcov_slope_checks(fam, times, (2, 4), 300, steps)
    # the rows are judged on the untruncated base: its fit against its exact slope
    assert [r[3] for r in rows] == list(fit.slopes)
    assert [r[5] for r in rows] == [invcov_exact_slope(ou, times, p, steps) for p in (2, 4)]
    assert [r[-1] for r in rows] == [True, True]
    # under the truncation Q is random, so the family's own fit is off the
    # exact slope, and is not the one the rows judge
    fam_fit = invcov_moment_scaling(fam, times, (2, 4), 300, steps=steps)
    assert np.all(np.abs(fam_fit.slopes - fit.slopes) > 1e-6)
    _plant_scaling(monkeypatch, dataclasses.replace(fit, slopes=fit.slopes + [0.0, 1e-6]))
    assert [r[-1] for r in invcov_slope_checks(fam, times, (2, 4), 300, steps)] == [
        True, False]


def test_invcov_slope_margin_is_the_tolerance_left(monkeypatch):
    # rhs is the exact slope the row is judged against, and margin >= 0
    # exactly when the row passes
    times, steps = np.geomspace(0.1, 1.0, 5), 16
    ou = OrnsteinUhlenbeckModel(dim=1, x0=[0.5], kappa=1.0,
                                mu=[0.0], sigma0=1.0)
    fam = TruncationFamily(ou, 8.0)
    fit = invcov_moment_scaling(ou, times, (2, 4), 300, steps=steps)
    exact = [invcov_exact_slope(ou, times, p, steps) for p in (2, 4)]
    tol = [malsde.bounds._INVCOV_SLOPE_RTOL * max(1.0, abs(e)) for e in exact]
    rows = invcov_slope_checks(fam, times, (2, 4), 300, steps)
    for *_, rhs, margin, passed in rows:
        assert margin >= 0 and passed
    assert [r[5] for r in rows] == exact
    # param names the displayed exponents of `invcov_reference_slopes`
    assert [r[:3] for r in rows] == [("invcov_slope", steps, "p=2;hyp=-1.5;app=-3.5"),
                                     ("invcov_slope", steps, "p=4;hyp=-3.5;app=-5.5")]
    off =dataclasses.replace(fit, slopes=np.array(exact) + [1.5 * tol[0], -1.5 * tol[1]])
    _plant_scaling(monkeypatch, off)
    for (*_, rhs, margin, passed), t in zip(
            invcov_slope_checks(fam, times, (2, 4), 300, steps), tol):
        assert margin == pytest.approx(-0.5 * t, rel=1e-6) and not passed
    # nonlinear rows keep the constant-sigma reference and pass
    dw = TruncationFamily(DoubleWell1DModel(x0=[0.3], sigma0=0.8), 4.0)
    assert [r[5:] for r in invcov_slope_checks(dw, times, (2, 4), 300, steps)] == [
        (-2, -2 - off.slopes[0], True), (-4, -4 - off.slopes[1], True)]


@pytest.mark.parametrize("shape", [0.05, 0.5, 2.0])
def test_logsumexp_matches_scipy_on_heavy_tailed_terms(shape):
    # -p log det Q with det Q ~ Gamma(shape): small shapes put a few huge terms
    # on top, the regime the invcov ESS alarm watches
    from scipy.special import logsumexp
    ld = np.log(np.random.default_rng(5).gamma(shape, size=20000))
    for p in (2, 4):
        terms = -p * ld
        for a in (terms, np.sort(terms)[-200:], np.array([terms[0]] * 3 + [terms[1]])):
            assert _logsumexp(a) == pytest.approx(logsumexp(a), rel=1e-13, abs=0)


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


@pytest.mark.parametrize("case", ["dw1", "dw2"])
def test_logdet_one_draw_matches_per_time_draws(case, dw1, dw2):
    fam = TruncationFamily(dw1 if case == "dw1" else dw2, 1.0)
    times, steps, seed = np.geomspace(0.1, 1.0, 5), 16, 7
    got = _logdet_chunk(fam, times, steps, seed, 100, 600)
    assert got.shape == (len(times), 500)
    for t, row in zip(times, got):
        grid = TimeGrid(float(t), steps)
        dW = sample_noise_block(grid, seed, 100, 600, fam.dim)
        _, expect = np.linalg.slogdet(grid.dt * flow(fam, grid.dt, dW)[-1][:, -1])
        assert np.array_equal(row, expect)


def test_invcov_requires_decade():
    m = BrownianModel(dim=1, x0=[0.0], sigma0=1.0)
    fam = TruncationFamily(m, 8.0)
    with pytest.raises(ValueError):
        invcov_moment_scaling(fam, np.geomspace(0.5, 1.0, 3), (1,), 100)


# ---------------------------------------------------------------------------
# Truncation convergence
# ---------------------------------------------------------------------------

def test_truncation_convergence_rows(dw1):
    grid = TimeGrid(1.0, 32)
    base = DoubleWell1DModel(x0=[0.0], sigma0=0.8)
    rows = truncation_convergence(base, (2.0, 4.0, 8.0), grid, 20000, p=2)
    assert [r[:3] for r in rows] == [("truncation", "2->4", 32), ("truncation", "4->8", 32)]
    vals = [r[3] for r in rows]
    assert vals[0] >= vals[1]  # deeper truncations agree on more paths
    assert vals[-1] <= 1e-3  # [DERIVED] exits beyond level 4 are rare
    with pytest.raises(ValueError):
        truncation_convergence(base, (4.0, 2.0), grid, 100)


def _every_level_sums(base, levels, grid, seed, p, lo, hi):
    """A full Euler pass per level: the pair sums, per lower level m the
    paths whose states X_0..X_{N-1} one level up leave the ball of radius m,
    and per lower level each path's first step k0 outside it (N if none)."""
    dW = sample_noise_block(grid, seed, lo, hi, base.dim)
    X = [euler_states(TruncationFamily(base, n), grid.dt, dW) for n in levels]
    sums = [float(np.sum(np.max(np.linalg.norm(lo_ - hi_, axis=-1), axis=1) ** p))
            for lo_, hi_ in zip(X, X[1:])]
    first = []
    for m, hi_ in zip(levels, X[1:]):
        out = np.linalg.norm(hi_[:, :-1], axis=-1) > m
        first.append(np.where(out.any(axis=1), out.argmax(axis=1), grid.steps))
    exits = [int(np.count_nonzero(k0 < grid.steps)) for k0 in first]
    return sums, exits, first


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("case", ["dw1", "dw1-calm", "dw2"])
def test_convergence_sweep_matches_every_level_run(case, p, monkeypatch):
    if case == "dw1":  # every path, about half, few and none leave
        base = DoubleWell1DModel(x0=[0.3], sigma0=0.8)
        levels, grid = (0.25, 1.0, 2.0, 8.0), TimeGrid(1.0, 32)
    elif case == "dw1-calm":  # every path, about half and no path leave
        base = DoubleWell1DModel(x0=[0.3], sigma0=0.8)
        levels, grid = (0.2, 1.0, 6.0, 8.0), TimeGrid(1.0, 32)
    else:  # x0 sits on the sphere of radius 0.5: X_0 is not outside it
        base = DoubleWell2DModel(x0=[0.5, 0.0])
        levels, grid = (0.5, 1.5, 4.0), TimeGrid(0.5, 32)
    n_paths, chunk, seed = 20000, 8192, 11  # chunks of 8192, 8192 and 3616 paths
    N = grid.steps
    rows, steps = [], []  # rows per Euler call, path-steps per step of each call

    def counted_euler(fam, dt, dW):
        rows.append(len(dW))
        steps.append([])
        return euler_states(fam, dt, dW)

    def counted_rerun(fam, dt, dW, X, first):
        rows.append(int(np.count_nonzero(first < N)))
        steps.append([])
        return euler_rerun(fam, dt, dW, X, first)

    def counted_step(model, dt, k, x, dw, out):
        steps[-1].append(len(x))
        return _euler_step(model, dt, k, x, dw, out)

    spans = [(lo, min(lo + chunk, n_paths)) for lo in range(0, n_paths, chunk)]
    every = [_every_level_sums(base, levels, grid, seed, p, lo, hi) for lo, hi in spans]
    monkeypatch.setattr(malsde.bounds, "euler_states", counted_euler)
    monkeypatch.setattr(malsde.bounds, "euler_rerun", counted_rerun)
    monkeypatch.setattr(malsde.simulate, "_euler_step", counted_step)
    ref, all_exits = [], np.zeros(len(levels) - 1, dtype=int)
    for (lo, hi), (sums, exits, first) in zip(spans, every):
        rows.clear()
        steps.clear()
        assert _convergence_chunk(base, levels, grid, seed, p, lo, hi) == sums
        # one full pass, then only the paths that leave each smaller ball
        assert sum(rows) == (hi - lo) + sum(exits)
        # ... each re-run from its first step outside the ball: sum(N - k0)
        # path-steps per level, top down, and no step at a level none leaves
        assert [sum(s) for s in steps] == [(hi - lo) * N] + [
            int(np.sum(N - k0)) for k0 in first[::-1]]
        assert all(len(s) == 0 for s, k0 in zip(steps[1:], first[::-1])
                   if np.all(k0 == N))
        ref.append(sums)
        all_exits += exits
    all_first = [np.concatenate(k0) for k0 in zip(*(first for *_, first in every))]
    if case == "dw1":
        assert all_exits[0] == n_paths and 0 < all_exits[1] < n_paths
        assert 0 < all_exits[2] < n_paths // 1000
    elif case == "dw1-calm":
        assert all_exits[0] == n_paths and 0 < all_exits[1] < n_paths
        assert all_exits[2] == 0
    else:
        assert 0 < all_exits[0] < n_paths
    if case != "dw2":  # the lowest level is below |x0|: every path re-runs from step 0
        assert np.all(all_first[0] == 0)
        assert np.any(all_first[1] == N - 1)  # and some paths only for their last step
    table = truncation_convergence(base, levels, grid, n_paths, p=p, seed=seed,
                                   chunk=chunk)
    vals = [float((sum(col) / n_paths) ** (1.0 / p)) for col in zip(*ref)]
    flags = [True] + [b <= a + 1e-15 for a, b in zip(vals, vals[1:])]
    assert table == [("truncation", f"{a:g}->{b:g}", N, v, ok)
                     for a, b, v, ok in zip(levels, levels[1:], vals, flags)]


def test_truncation_convergence_flags_a_rising_value(dw1, monkeypatch):
    # planted pair sums of one chunk of one path, so at p = 1 the values are
    # the sums: a rise within 1e-15 is round-off, a larger one fails its row
    sums = [1e-3, 0.0, 5e-16, 0.25]
    monkeypatch.setattr(malsde.bounds, "_convergence_chunk", lambda *args: sums)
    rows = truncation_convergence(dw1, (1.0, 2.0, 4.0, 8.0, 16.0), TimeGrid(1.0, 8), 1, p=1)
    assert [r[3] for r in rows] == sums
    assert [ok for *_, ok in rows] == [True, True, True, False]


def _planted_law(order):
    """A stand-in for `gaussian_law` whose Euler chain's mean is off the
    continuous one by exactly dt^order."""
    def law(model, t, steps=None):
        return np.array([0.0 if steps is None else (t / steps) ** order]), np.ones(1)
    return law


@pytest.mark.parametrize("order", [0.6, 0.75, 1.0, 1.25, 1.4, 2.0])
def test_step_halving_slope_row_needs_euler_order_one(order, ou, monkeypatch):
    monkeypatch.setattr(malsde.bounds, "gaussian_law", _planted_law(order))
    rows = step_halving_checks(ou, TimeGrid(1.0, 64), [64, 128, 256])
    assert [r[:3] for r in rows] == [("halving", "N=64", 64), ("halving", "N=128", 128),
                                     ("halving", "N=256", 256),
                                     ("halving_slope", "dt_order", 64)]
    assert [r[3] for r in rows[:3]] == [(1.0 / n) ** order for n in (64, 128, 256)]
    assert rows[-1][3] == pytest.approx(order, rel=1e-9)
    # the halving rows themselves cannot fail; the slope row fails off 1 +- 0.3
    assert [r[4] for r in rows] == [True, True, True, abs(order - 1.0) <= 0.3]


def test_step_halving_rows_of_the_exact_laws(ou, dw1):
    rows = step_halving_checks(ou, TimeGrid(1.0, 64), [64, 128, 256])
    assert rows[-1][0] == "halving_slope" and rows[-1][4]
    assert abs(rows[-1][3] - 1.0) < 0.05  # [DERIVED] the Euler weak order is 1
    assert len(step_halving_checks(ou, TimeGrid(1.0, 64), [64])) == 1  # no slope
    assert step_halving_checks(dw1, TimeGrid(1.0, 64), [64, 128]) == []  # no law


@pytest.mark.parametrize("levels", [(4.0,), (4.0, 4.0)])
def test_level_checks_need_two_distinct_levels(levels, dw1):
    grid = TimeGrid(1.0, 8)
    with pytest.raises(ValueError, match="two distinct"):
        truncation_convergence(dw1, levels, grid, 100)
    with pytest.raises(ValueError, match="two distinct"):
        _cov_reports(dw1, levels, grid, 100, (2,))
    with pytest.raises(ValueError, match="two distinct"):
        _cov_reports(dw1, levels, grid, 100)


@pytest.mark.parametrize("p", [0, -2, 0.5])
def test_truncation_convergence_rejects_p_below_one(p, dw1):
    with pytest.raises(ValueError, match="p must be >= 1"):
        truncation_convergence(dw1, (1.0, 2.0), TimeGrid(1.0, 8), 100, p=p)

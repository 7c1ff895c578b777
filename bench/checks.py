"""Output checks: each compares one CSV the program wrote with a computation
made apart from the program (see oracle.py) and returns a list of failure
messages, empty when the output is correct.
"""

from __future__ import annotations

import csv
import io
import math
from functools import lru_cache

import numpy as np

import oracle

DENSITY_Z = 4.0      # density / derivative within 4 reported SEs of the oracle
ORACLE_ATOL = 1e-6   # quadrature error allowed to the Chapman-Kolmogorov oracle
TAIL_Z = 4.0         # tail probability within 4 binomial SEs of the oracle
GENERATOR_RTOL = 1e-5  # bounds.csv prints alpha and gamma with 6 digits
GENERATOR_SAMPLES = 20000
CONVERGE_RTOL = 1e-8   # reordered floating point only
CONVERGE_ATOL = 1e-13  # per-path sups agree to a few ulps (~1e-16)
MOMENT_Z = 5.0       # increment moments against N(0, dt)


def read_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _expect(rows, workload, seed, steps, failures):
    """Every row names the workload's model, path count, step count and seed."""
    for r in rows:
        got = (r["model"], int(r["M"]), int(r["N"]), int(r["seed"]))
        want = (workload.model["id"], workload.paths, steps, seed)
        if got != want:
            failures.append(f"row {r} has (model, M, N, seed) {got}, want {want}")
            return


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _dw1_law(x0, sigma0, level, horizon, steps):
    return oracle.EulerLaw(lambda x: oracle.double_well_drift(x, level),
                           lambda x: np.full_like(x, sigma0),
                           x0, horizon, steps)


@lru_cache(maxsize=None)
def _dw2_laws(x0, horizon, steps):
    """The two independent component chains of double-well-2d."""
    return (oracle.EulerLaw(oracle.double_well_drift,
                            lambda x: 1.0 + 0.1 * np.sin(x), x0[0], horizon, steps),
            oracle.EulerLaw(oracle.double_well_drift,
                            lambda x: 1.0 + 0.1 * np.cos(x), x0[1], horizon, steps))


def density_oracle(workload):
    """Callable (y, alpha tag) -> exact value of the estimated quantity."""
    cfg, p = workload.config, workload.model["params"]
    horizon, steps = cfg["grid"]["horizon"], cfg["grid"]["steps"]
    if workload.model["id"] == "double-well-1d":
        law = _dw1_law(p["x0"][0], p["sigma0"], cfg["truncation_level"],
                       horizon, steps)
        return lambda y, tag: (law.density(y) if tag == "0"
                               else law.derivative(y))[0]
    # the radial clamp couples the components only beyond radius 4; bound the
    # mass that could ever see it by the mass outside the box |x_i| <= 4/sqrt(2)
    laws = _dw2_laws(tuple(p["x0"]), horizon, steps)
    edge = cfg["truncation_level"] / math.sqrt(2.0)
    outside = sum(float(law.survival(edge)[0] + 1.0 - law.survival(-edge)[0])
                  for law in laws)
    if outside > 1e-9:
        raise ValueError(f"product oracle invalid: mass {outside:.1e} near the clamp")
    return lambda y, tag: float(laws[0].density(y)[0] * laws[1].density(y)[0])


def check_density(workload, text, seed):
    rows = read_rows(text)
    failures = []
    dcfg = workload.config["density"]
    tags = ["".join(str(a) for a in alpha) or "0" for alpha in dcfg["alphas"]]
    want = [(t, y) for t in tags for y in dcfg["y_grid"]]
    got = [(r["alpha"], float(r["y"])) for r in rows]
    if got != want:
        return [f"density.csv rows {got} differ from the grid {want}"]
    _expect(rows, workload, seed, workload.config["grid"]["steps"], failures)
    exact = density_oracle(workload)
    for r in rows:
        y, est, se = float(r["y"]), float(r["estimate"]), float(r["se"])
        ref = exact(y, r["alpha"])
        if not abs(est - ref) <= DENSITY_Z * se + ORACLE_ATOL:
            failures.append(f"alpha={r['alpha']} y={y:g}: estimate {est:.6g} "
                            f"vs oracle {ref:.6g} is {abs(est - ref) / se:.1f} SE off")
    return failures


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def _fit_constants(param: str) -> dict:
    return {k: float(v) for k, v in (kv.split("=") for kv in param.split(";"))}


def check_bounds(workload, text, seed):
    rows = read_rows(text)
    failures = []
    cfg, p = workload.config, workload.model["params"]
    level, x0, sigma0 = cfg["truncation_level"], p["x0"][0], p["sigma0"]
    _expect([r for r in rows if r["check"] != "invcov_slope"], workload, seed,
            cfg["grid"]["steps"], failures)

    fits = [r for r in rows if r["check"] == "generator_fit"]
    if len(fits) != 1:
        return failures + [f"expected one generator_fit row, got {len(fits)}"]
    c = _fit_constants(fits[0]["param"])
    # the fit holds on the ball of radius level + 2 around x0; test a fresh sample
    rng = np.random.default_rng([seed, 1])
    xs = x0 + (level + 2.0) * rng.uniform(-1.0, 1.0, GENERATOR_SAMPLES)
    f = (xs - x0) ** 2
    lf = oracle.double_well_generator(xs, x0, sigma0, level)
    slack = c["alpha"] * f + c["gamma"] - lf
    tol = GENERATOR_RTOL * (abs(c["alpha"]) * f + abs(c["gamma"])) + 1e-9
    bad = int(np.count_nonzero(slack < -tol))
    if bad:
        failures.append(f"generator fit alpha={c['alpha']:g} gamma={c['gamma']:g} "
                        f"violated at {bad} of {GENERATOR_SAMPLES} fresh points")

    tails = [r for r in rows if r["check"] == "tail"]
    offsets = cfg["bounds"]["y_offsets"]
    if [_fit_constants(r["param"])["y_off"] for r in tails] != offsets:
        return failures + [f"tail rows do not match the offsets {offsets}"]
    law = _dw1_law(x0, sigma0, level, cfg["grid"]["horizon"], cfg["grid"]["steps"])
    m = workload.paths
    for r, off in zip(tails, offsets):
        ref = float(law.survival(x0 + off)[0])
        lhs = float(r["lhs"])
        err = TAIL_Z * math.sqrt(ref * (1.0 - ref) / m) + 1.0 / m
        if not abs(lhs - ref) <= err:
            failures.append(f"tail y_off={off:g}: P(X_T > y) = {lhs:.6g} vs "
                            f"oracle {ref:.6g} (allowed {err:.2g})")
    return failures


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------

def converge_reference(workload, seed, increments, block=8192):
    """Coupled Euler recomputation of every truncation row, plus z-scores of
    the mean, variance and fourth moment of the increments against N(0, dt)."""
    cfg, p = workload.config, workload.model["params"]
    levels, power = cfg["converge"]["levels"], cfg["converge"]["p"]
    steps = cfg["grid"]["steps"]
    dt = cfg["grid"]["horizon"] / steps
    m = workload.paths
    total = np.zeros(len(levels) - 1)
    s1 = s2 = s4 = 0.0
    for lo in range(0, m, block):
        dW = increments(seed, lo, min(lo + block, m), steps, 1, dt)[:, :, 0]
        sup = oracle.coupled_sups(oracle.double_well_drift, p["sigma0"],
                                  p["x0"][0], dt, dW, levels)
        total += np.sum(sup ** power, axis=1)
        z = dW / math.sqrt(dt)
        s1 += float(np.sum(z))
        s2 += float(np.sum(z * z))
        s4 += float(np.sum(z ** 4))
    n = m * steps
    values = [float((t / m) ** (1.0 / power)) for t in total]
    zscores = {"mean": s1 / math.sqrt(n),
               "variance": (s2 / n - 1.0) / math.sqrt(2.0 / n),
               "fourth": (s4 / n - 3.0) / math.sqrt(96.0 / n)}
    return values, zscores


def check_converge(workload, text, seed, reference):
    values, zscores = reference
    rows = [r for r in read_rows(text) if r["study"] == "truncation"]
    failures = []
    _expect(rows, workload, seed, workload.config["grid"]["steps"], failures)
    levels = workload.config["converge"]["levels"]
    want = [f"{a:g}->{b:g}" for a, b in zip(levels, levels[1:])]
    if [r["param"] for r in rows] != want:
        return failures + [f"truncation rows {[r['param'] for r in rows]}, want {want}"]
    for r, ref in zip(rows, values):
        got = float(r["value"])
        if not abs(got - ref) <= CONVERGE_RTOL * abs(ref) + CONVERGE_ATOL:
            failures.append(f"truncation {r['param']}: {got!r} vs recomputed {ref!r}")
    for name, z in zscores.items():
        if not abs(z) <= MOMENT_Z:
            failures.append(f"increment {name} is {z:.1f} SE from N(0, dt)")
    return failures


def check(workload, text, seed, increments):
    """All checks of one workload's CSV; `increments` is the program's
    counter-based noise generator (only the converge check uses it)."""
    if workload.subcommand == "density":
        return check_density(workload, text, seed)
    if workload.subcommand == "bounds":
        return check_bounds(workload, text, seed)
    return check_converge(workload, text, seed,
                          converge_reference(workload, seed, increments))

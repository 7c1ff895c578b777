"""Tests of the benchmark's own oracles and output checks.

The oracle is tested against the closed-form Gaussian law of the OU Euler
chain.  Each output check is run on a real output of its workload (seed 0)
and must pass it, then must reject planted wrong answers (negative controls),
so that no check passes by construction.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import csv
import io
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 0


def test_euler_law_matches_ou_closed_form():
    kappa, mu, sigma, x0, horizon = 1.3, 0.2, 0.9, 0.5, 1.0
    ys = np.linspace(-2.0, 2.0, 17)
    for steps in (1, 2, 50):
        dt = horizon / steps
        a = 1.0 - kappa * dt
        mean = mu + (x0 - mu) * a ** steps
        var = sigma * sigma * dt * sum(a ** (2 * j) for j in range(steps))
        pdf = np.exp(-(ys - mean) ** 2 / (2 * var)) / math.sqrt(2 * math.pi * var)
        tail = np.array([0.5 * math.erfc((y - mean) / math.sqrt(2 * var)) for y in ys])
        law = oracle.EulerLaw(lambda x: -kappa * (x - mu),
                              lambda x: np.full_like(x, sigma), x0, horizon, steps)
        assert np.max(np.abs(law.density(ys) - pdf)) < 1e-9
        assert np.max(np.abs(law.derivative(ys) + (ys - mean) / var * pdf)) < 1e-9
        assert np.max(np.abs(law.survival(ys) - tail)) < 1e-9


def test_euler_law_rejects_a_grid_that_loses_mass():
    with pytest.raises(ValueError):
        oracle.EulerLaw(lambda x: 0.0 * x, lambda x: np.ones_like(x), 0.0, 1.0, 10,
                        lo=-1.0, hi=1.0)


def test_clamp_is_identity_inside_and_bounded_outside():
    x = np.linspace(-10.0, 10.0, 2001)
    k = oracle.clamp_1d(x, 2.0)
    inside = np.abs(x) <= 2.0
    assert np.array_equal(k[inside], x[inside])
    assert np.all(np.abs(k) < 3.0)


# ---------------------------------------------------------------------------
# Negative controls on real outputs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """CSV text of one call of every workload at seed 0."""
    import json

    from malsde import cli
    texts = {}
    for w in WORKLOADS.values():
        d = tmp_path_factory.mktemp(w.name)
        (d / "config.json").write_text(json.dumps(w.config))
        assert cli.main(w.argv(d / "config.json", d, SEED)) == 0
        texts[w.name] = (d / w.csv).read_text()
    return texts


def _plant(text, where, column, change):
    """Copy of a CSV with `change` applied to `column` on rows where `where`."""
    rows = list(csv.DictReader(io.StringIO(text)))
    for r in rows:
        if where(r):
            r[column] = change(r[column])
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def _scaled(factor):
    return lambda v: "%.17g" % (float(v) * factor)


def test_density_1d_check(outputs):
    w, text = WORKLOADS["density-1d"], outputs["density-1d"]
    assert checks.check_density(w, text, SEED) == []
    planted = [
        _plant(text, lambda r: r["alpha"] == "0", "estimate", _scaled(1.25)),
        _plant(text, lambda r: r["alpha"] == "0", "estimate", _scaled(0.8)),
        _plant(text, lambda r: r["alpha"] == "1", "estimate", _scaled(-1.0)),
        _plant(text, lambda r: r["alpha"] == "1", "estimate", _scaled(2.0)),
    ]
    for bad in planted:
        assert checks.check_density(w, bad, SEED)
    # the grid and the seed are checked too
    assert checks.check_density(w, _plant(text, lambda r: True, "seed", lambda v: "7"), SEED)
    assert checks.check_density(w, _plant(text, lambda r: r["y"] == "2", "y",
                                          lambda v: "2.5"), SEED)


def test_density_2d_check(outputs):
    w, text = WORKLOADS["density-2d"], outputs["density-2d"]
    assert checks.check_density(w, text, SEED) == []
    # the SE the program reports is wide here, so only a sign error is caught
    # at most seeds; README.md gives the rates
    assert checks.check_density(w, _plant(text, lambda r: True, "estimate",
                                          _scaled(-1.0)), SEED)


def test_bounds_1d_check(outputs):
    w, text = WORKLOADS["bounds-1d"], outputs["bounds-1d"]
    assert checks.check_bounds(w, text, SEED) == []

    def fit(key, factor):
        def change(param):
            c = checks._fit_constants(param)
            c[key] *= factor
            return ";".join(f"{k}={v:g}" for k, v in c.items())
        return _plant(text, lambda r: r["check"] == "generator_fit", "param", change)

    assert checks.check_bounds(w, fit("gamma", 0.9), SEED)
    assert checks.check_bounds(w, fit("alpha", 0.5), SEED)
    for factor in (1.25, 0.8):
        assert checks.check_bounds(w, _plant(text, lambda r: r["check"] == "tail",
                                             "lhs", _scaled(factor)), SEED)


def test_converge_1d_check(outputs):
    from malsde.rng import gaussian_increments

    w, text = WORKLOADS["converge-1d"], outputs["converge-1d"]
    reference = checks.converge_reference(w, SEED, gaussian_increments)
    assert checks.check_converge(w, text, SEED, reference) == []
    values, _ = reference
    assert values[-1] == 0.0 and values[0] > 0.0  # level 4 is never left
    for param in ("1->2", "2->4"):
        bad = _plant(text, lambda r: r["param"] == param, "value", _scaled(1 + 1e-6))
        assert checks.check_converge(w, bad, SEED, reference)
    bad = _plant(text, lambda r: r["param"] == "4->8", "value", lambda v: "1e-9")
    assert checks.check_converge(w, bad, SEED, reference)

    def wide(*args):
        return 1.01 * gaussian_increments(*args)

    def shifted(*args):
        dt = args[-1]
        return gaussian_increments(*args) + 0.01 * math.sqrt(dt)

    for noise in (wide, shifted):
        failures = checks.check_converge(w, text, SEED,
                                         checks.converge_reference(w, SEED, noise))
        assert any(f.startswith("increment") for f in failures)

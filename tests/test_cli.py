import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import malsde
import malsde.bounds
import malsde.cli
import malsde.density
import malsde.rng
from malsde.cli import ConfigError, load_config, main
from malsde.parallel import map_chunks
from malsde.rng import gaussian_increments


def _run(args):
    return main([str(a) for a in args])


def test_load_config_defaults_and_overrides(tmp_path):
    cfg = load_config(None, ["paths=500", "model.params.kappa=2.0"],
                      seed=7, workers=2)
    assert cfg["paths"] == 500
    assert cfg["model"]["params"]["kappa"] == 2.0
    assert cfg["seed"] == 7 and cfg["workers"] == 2


def test_load_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(ConfigError, match="bogus"):
        load_config(str(p), [])
    with pytest.raises(ConfigError, match="valid JSON"):
        q = tmp_path / "trunc.json"
        q.write_text("{")
        load_config(str(q), [])
    with pytest.raises(ConfigError):
        load_config(None, ["paths=not-an-int"])


def test_simulate_writes_outputs_and_manifest(tmp_path):
    code = _run(["simulate", "--out", tmp_path, "--set", "paths=2000",
                 "--set", "grid.steps=16"])
    assert code == 0
    moments = (tmp_path / "moments.csv").read_text().splitlines()
    assert moments[0] == "model,n,N,M,seed,p,sup_moment,se"
    assert len(moments) == 3  # p = 2 and p = 4
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert manifest["config"]["paths"] == 2000
    assert manifest["outputs"] == ["moments.csv"]
    assert {"package", "python", "numpy"} <= manifest["versions"].keys()


def test_simulate_deterministic_constant_model(tmp_path):
    code = _run(["simulate", "--out", tmp_path,
                 "--set", "model.id=bm",
                 "--set", 'model.params={"dim":1,"x0":[2.0],"horizon":1.0,"sigma0":0.0}',
                 "--set", "paths=200", "--set", "grid.steps=8"])
    assert code == 0
    rows = (tmp_path / "moments.csv").read_text().splitlines()[1:]
    p2 = rows[0].split(",")
    assert float(p2[6]) == 4.0 and float(p2[7]) == 0.0  # [TRIVIAL] |x0|^p


def test_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    for out in (a, b):
        assert _run(["simulate", "--out", out, "--set", "paths=3000",
                     "--set", "grid.steps=16"]) == 0
    assert (a / "moments.csv").read_bytes() == (b / "moments.csv").read_bytes()


def test_density_worker_count_invariance(tmp_path):
    a, b = tmp_path / "w1", tmp_path / "w2"
    a.mkdir(), b.mkdir()
    common = ["density", "--set", "paths=4000", "--set", "grid.steps=16",
              "--set", 'density.y_grid=[-1.0,0.0,1.0]',
              "--set", 'density.alphas=[[]]']
    assert _run(common + ["--out", a, "--workers", "1"]) == 0
    assert _run(common + ["--out", b, "--workers", "2"]) == 0
    a_csv = (a / "density.csv").read_bytes()
    assert a_csv == (b / "density.csv").read_bytes()
    assert b"pass" in a_csv.splitlines()[0]


def test_simulate_worker_count_invariance(tmp_path):
    # 20000 paths span two 16384-path chunks, so --workers 2 runs both at once
    a, b = tmp_path / "w1", tmp_path / "w2"
    a.mkdir(), b.mkdir()
    common = ["simulate", "--set", "paths=20000", "--set", "grid.steps=8"]
    assert _run(common + ["--out", a, "--workers", "1"]) == 0
    assert _run(common + ["--out", b, "--workers", "2"]) == 0
    assert (a / "moments.csv").read_bytes() == (b / "moments.csv").read_bytes()


def test_exit_code_config_error(tmp_path):
    assert _run(["simulate", "--out", tmp_path, "--set", "bogus=1"]) == 2
    assert _run(["simulate", "--out", tmp_path,
                 "--set", "model.id=unknown-model"]) == 2


# the messages jsonschema's `validate` gave for these configs
@pytest.mark.parametrize("overrides, message", [
    (["paths=abc"], "paths: 'abc' is not of type 'integer'"),
    (["seed=true"], "seed: True is not of type 'integer'"),
    (["paths=2000.5"], "paths: 2000.5 is not of type 'integer'"),
    (["density=[]"], "density: [] is not of type 'object'"),
    (["density.envelope=1"], "density/envelope: 1 is not of type 'boolean'"),
    (["bogus=1"], "<root>: Additional properties are not allowed ('bogus' was unexpected)"),
    (["bogus=1", "zzz=2"],
     "<root>: Additional properties are not allowed ('bogus', 'zzz' were unexpected)"),
    (["truncation_levels=[]"], "truncation_levels: [] should be non-empty"),
    (["density.alphas=[[0]]"], "density/alphas/0/0: 0 is less than the minimum of 1"),
    (["bounds.zeta_list=[0]"],
     "bounds/zeta_list/0: 0 is less than or equal to the minimum of 0"),
    (['oracle.functions=["sin"]'], "oracle/functions/0: 'sin' is not one of ['cos', 'bump']"),
    (["model.id=unknown-model"], "model/id: 'unknown-model' is not one of "
                                 "['bm', 'ou', 'double-well-1d', 'double-well-2d']"),
    (['grid={"horizon":1.0}'], "grid: 'steps' is a required property"),
    (['model={"params":{}}'], "model: 'id' is a required property"),
    (["converge.halving_steps=[0.5]"], "converge/halving_steps/0: 0.5 is not of type 'integer'"),
    # several faults: the shallowest path, then the greatest, then the first found
    (["paths=abc", "seed=x"], "seed: 'x' is not of type 'integer'"),
    (["paths=abc", "grid.steps=x"], "paths: 'abc' is not of type 'integer'"),
    (['grid={"horizon":1.0,"x":2}'],
     "grid: Additional properties are not allowed ('x' was unexpected)"),
])
def test_config_error_messages(tmp_path, capsys, overrides, message):
    args = [a for o in overrides for a in ("--set", o)]
    assert _run(["simulate", "--out", tmp_path, *args]) == 2
    assert capsys.readouterr().err == f"config error: config invalid at {message}\n"


@pytest.mark.parametrize("override", [
    # integral floats are integers, as in JSON Schema
    "paths=2000.0", "seed=1e3", "truncation_level=Infinity", "bounds.zeta_list=[1e-300]",
])
def test_config_edge_values_accepted(override):
    load_config(None, [override])


def test_exit_code_numerical_failure(tmp_path):
    # zero diffusion: every covariance matrix is singular
    code = _run(["density", "--out", tmp_path,
                 "--set", 'model.params={"dim":1,"x0":[0.5],"horizon":1.0,'
                          '"kappa":1.0,"mu":[0.0],"sigma0":0.0}',
                 "--set", "paths=500", "--set", "grid.steps=8",
                 "--set", 'density.y_grid=[0.0]',
                 "--set", 'density.alphas=[[]]'])
    assert code == 3


def test_density_tiny_diffusion_is_not_degenerate(tmp_path):
    # sigma0 = 1e-16 gives det Q ~ 1e-32, yet Q is perfectly conditioned
    code = _run(["density", "--out", tmp_path,
                 "--set", "model.params.sigma0=1e-16", "--set", "paths=1000"])
    assert code == 0


def test_density_linear_model_needs_no_kde(tmp_path):
    # a linear model's pass rule reads the Gaussian oracle, never the KDE, so
    # fewer paths than the KDE needs are no config error
    assert _run(["density", "--out", tmp_path, "--set", "paths=800"]) == 0
    with open(tmp_path / "density.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert rows and all(r["kde"] == "nan" for r in rows)


def test_cli_import_leaves_out_scipy_optimize():
    # only the manifest reads scipy, for its version; start-up should not pay
    # for it, nor for scipy.optimize, scipy.special or jsonschema, which the
    # CLI does not use
    src = str(Path(malsde.__file__).parents[1])
    code = ("import sys, malsde.cli; sys.exit(sum(m in sys.modules for m in "
            "('scipy', 'scipy.optimize', 'scipy.special', 'jsonschema')))")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_generator_fit_runs_without_scipy_optimize(tmp_path):
    # both runs fit the generator constants: the bounds rows and the density
    # envelope; the fit's Nelder-Mead polish is a numpy port
    src = str(Path(malsde.__file__).parents[1])
    code = ("import sys, malsde.cli; "
            f"a = malsde.cli.main(['bounds', '--set', 'paths=1000', '--out', {str(tmp_path / 'b')!r}]); "
            "b = malsde.cli.main(['density', '--set', 'density.envelope=true', '--set', "
            f"'paths=2000', '--out', {str(tmp_path / 'd')!r}]); "
            "sys.exit(a or b or 10 * ('scipy.optimize' in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
    assert (tmp_path / "b" / "bounds.csv").exists()
    assert (tmp_path / "d" / "density.csv").exists()


def test_serial_density_leaves_out_the_process_pool(tmp_path):
    # only a run with workers > 1 starts a pool, so only it imports one
    src = str(Path(malsde.__file__).parents[1])
    code = ("import sys, malsde.cli; code = malsde.cli.main(['density', '--set', "
            f"'paths=1000', '--workers', '1', '--out', {str(tmp_path)!r}]); "
            "sys.exit(code or 10 * ('concurrent.futures' in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
    assert (tmp_path / "density.csv").exists()


def test_envelope_fit_failure_is_a_failed_check(tmp_path):
    # far-tail grid: too few significant estimates to fit the envelope
    code = _run(["density", "--out", tmp_path,
                 "--set", "density.envelope=true", "--set", "paths=1000",
                 "--set", "density.y_grid=[2.0,2.5,3.0,3.5,4.0]"])
    assert code == 1
    with open(tmp_path / "density.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 10
    assert all(r["envelope"] == "nan" and r["pass"] == "0" for r in rows)


def test_oracle_subcommand_passes(tmp_path):
    code = _run(["oracle", "--out", tmp_path,
                 "--set", "model.id=bm",
                 "--set", 'model.params={"dim":1,"x0":[0.0],"horizon":1.0,"sigma0":1.0}',
                 "--set", "oracle.nodes=64"])
    assert code == 0
    lines = (tmp_path / "oracle.csv").read_text().splitlines()
    assert lines[0].startswith("model,alpha,N,lhs,rhs,gap")
    for row in lines[1:]:
        assert float(row.split(",")[-1]) <= 1e-6


def test_out_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("MALSDE_OUT", str(tmp_path))
    assert _run(["simulate", "--set", "paths=200", "--set", "grid.steps=8"]) == 0
    assert (tmp_path / "moments.csv").exists()


def test_readme_example_config_runs(tmp_path):
    # the example config of the top-level README, at fewer paths
    p = tmp_path / "run.json"
    p.write_text(json.dumps({
        "model": {"id": "double-well-1d",
                  "params": {"x0": [0.0], "sigma0": 0.8}},
        "truncation_level": 4.0,
        "grid": {"horizon": 1.0, "steps": 64},
        "paths": 50000,
        "seed": 0,
        "density": {"y_grid": [-2.0, -1.0, 0.0, 1.0, 2.0],
                    "alphas": [[], [1]],
                    "envelope": True}}))
    assert _run(["simulate", "--config", p, "--out", tmp_path,
                 "--set", "paths=2000", "--set", "grid.steps=16"]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["model"]["params"] == {"x0": [0.0], "sigma0": 0.8}


def test_model_horizon_other_than_the_grid_is_a_config_error(tmp_path, capsys):
    model = {"id": "bm", "params": {"x0": [0.0], "horizon": 0.5}}
    code = _run(["density", "--out", tmp_path, "--set", "model=" + json.dumps(model),
                 "--set", "paths=1000", "--set", "grid.steps=8"])
    assert code == 2
    assert not (tmp_path / "density.csv").exists()
    assert "grid.horizon 1.0, the run's horizon" in capsys.readouterr().err


def test_model_horizon_equal_to_the_grid_is_dropped(tmp_path):
    # the key is removed from the resolved config, so the run and its
    # manifest are those of a config without it
    outs = []
    for name, params in (("with", {"x0": [0.0], "horizon": 0.5}), ("without", {"x0": [0.0]})):
        model = {"id": "bm", "params": params}
        out = tmp_path / name
        assert _run(["density", "--out", out, "--set", "model=" + json.dumps(model),
                     "--set", "grid.horizon=0.5", "--set", "paths=1000",
                     "--set", "grid.steps=8"]) == 0
        outs.append(out)
    a, b = outs
    assert (a / "density.csv").read_bytes() == (b / "density.csv").read_bytes()
    configs = [json.loads((o / "manifest.json").read_text())["config"] for o in outs]
    assert configs[0] == configs[1]


def test_every_subcommand_runs_without_scipy(tmp_path):
    # numpy is the one runtime dependency: with scipy unimportable every
    # subcommand exits 0 and writes its manifest
    src = str(Path(malsde.__file__).parents[1])
    subs = ["simulate", "density", "bounds", "oracle", "converge"]
    code = ("import sys; sys.modules['scipy'] = None; import malsde.cli; "
            f"codes = [malsde.cli.main([s, '--set', 'paths=500', '--set', 'grid.steps=8', "
            f"'--out', {str(tmp_path)!r} + '/' + s]) for s in {subs!r}]; "
            "print(codes); sys.exit(any(codes))")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for s in subs:
        manifest = json.loads((tmp_path / s / "manifest.json").read_text())
        assert "scipy" not in manifest["versions"]


@pytest.mark.parametrize("sub, csv_name", [("density", "density.csv"),
                                           ("bounds", "bounds.csv")])
def test_exit_code_fewer_than_two_paths(tmp_path, capsys, sub, csv_name):
    # one path has no standard error: a config error, not a dropped path
    # (density) or a nan SE that fails a row (bounds)
    code = _run([sub, "--out", tmp_path, "--set", "paths=1", "--set", "grid.steps=8"])
    assert code == 2
    assert not (tmp_path / csv_name).exists()
    assert "at least 2 paths, got 1" in capsys.readouterr().err


def test_density_exits_3_when_one_valid_path_is_left(tmp_path, capsys, monkeypatch):
    # a planted mask drops all paths but one: too few left for an SE
    real = malsde.density.weight_samples

    def planted(*args, **kwargs):
        xn, h, valid = real(*args, **kwargs)
        valid = np.zeros_like(valid)
        valid[0] = True
        return xn, h, valid

    monkeypatch.setattr(malsde.density, "weight_samples", planted)
    code = _run(["density", "--out", tmp_path, "--set", "paths=50", "--set", "grid.steps=8"])
    assert code == 3
    assert not (tmp_path / "density.csv").exists()
    assert "49 of 50 paths dropped for degenerate covariance" in capsys.readouterr().err


def test_exit_code_wrong_model_param(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"model": {"id": "double-well-1d",
                                       "params": {"kappa": 1.0}}}))
    assert _run(["simulate", "--config", p, "--out", tmp_path]) == 2


def test_exit_code_bounds_degenerate_covariance(tmp_path):
    code = _run(["bounds", "--out", tmp_path,
                 "--set", 'model.params={"dim":1,"x0":[0.5],"horizon":1.0,'
                          '"kappa":1.0,"mu":[0.0],"sigma0":0.0}',
                 "--set", "paths=500", "--set", "grid.steps=8"])
    assert code == 3


def test_config_file_plus_override(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"paths": 300, "grid": {"horizon": 1.0, "steps": 8}}))
    out = tmp_path / "out"
    out.mkdir()
    assert _run(["simulate", "--config", p, "--out", out,
                 "--set", "paths=400"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["paths"] == 400  # --set wins over the file
    assert manifest["config"]["grid"]["steps"] == 8


_DW1 = 'model={"id":"double-well-1d","params":{"x0":[0.3],"horizon":1.0,"sigma0":0.8}}'


@pytest.mark.parametrize("override", ["converge.p=0", "converge.p=-2",
                                      "converge.levels=[4.0]"])
def test_exit_code_converge_invalid_config(tmp_path, override):
    code = _run(["converge", "--out", tmp_path, "--set", _DW1,
                 "--set", "paths=200", "--set", "grid.steps=8",
                 "--set", override])
    assert code == 2
    assert not (tmp_path / "converge.csv").exists()


def test_exit_code_bounds_single_truncation_level(tmp_path):
    # a spread over one level is 0 and cannot fail
    code = _run(["bounds", "--out", tmp_path, "--set", _DW1,
                 "--set", "paths=500", "--set", "grid.steps=8",
                 "--set", "truncation_levels=[4.0]"])
    assert code == 2
    assert not (tmp_path / "bounds.csv").exists()


@pytest.mark.parametrize("sub, override, csv_name", [
    ("simulate", "simulate.p_list=[]", "moments.csv"),
    ("bounds", "bounds.p_list=[]", "bounds.csv"),
    ("density", "density.alphas=[]", "density.csv"),
    ("oracle", "oracle.alphas=[]", "oracle.csv"),
    ("oracle", "oracle.functions=[]", "oracle.csv"),
])
def test_exit_code_empty_check_list(tmp_path, sub, override, csv_name):
    # a check with no rows cannot fail
    code = _run([sub, "--out", tmp_path, "--set", "paths=500",
                 "--set", "grid.steps=8", "--set", override])
    assert code == 2
    assert not (tmp_path / csv_name).exists()


@pytest.mark.parametrize("sub, override, csv_name", [
    ("bounds", "bounds.zeta_list=[0]", "bounds.csv"),
    ("bounds", "bounds.zeta_list=[-0.5]", "bounds.csv"),
    ("bounds", "bounds.invcov_steps=0", "bounds.csv"),
    ("converge", "converge.halving_steps=[0,64]", "converge.csv"),
    ("density", "density.alphas=[[0]]", "density.csv"),
    ("density", "density.alphas=[[2]]", "density.csv"),
    ("oracle", "oracle.alphas=[[0]]", "oracle.csv"),
    ("oracle", "oracle.alphas=[[2]]", "oracle.csv"),
])
def test_exit_code_out_of_range_config(tmp_path, sub, override, csv_name):
    # zeta = 0 divides by zero in the exp-moment rate and a negative zeta gives
    # a meaningless bound; N = 0 halving steps divides by zero in the Euler law;
    # alpha coordinates are 1..d (0 would index the last coordinate from the
    # end, and the 1-d defaults have no coordinate 2); invcov_steps = 0 draws
    # an empty noise block before its time grid is rejected
    code = _run([sub, "--out", tmp_path, "--set", "paths=500",
                 "--set", "grid.steps=8", "--set", override])
    assert code == 2
    assert not (tmp_path / csv_name).exists()


_DW2 = 'model={"id":"double-well-2d","params":{"x0":[0.0,0.0]}}'


def test_bounds_draws_noise_once_per_block(tmp_path, monkeypatch):
    # one sweep serves the exp_moment, tail, dnorm and covQ rows and one draw
    # every invcov time: two chunk maps, n_paths (N + invcov_steps) d normals
    maps, draws = [], []

    def counted_map(fn, n, chunk, workers=1):
        maps.append(n)
        return map_chunks(fn, n, chunk, workers)

    def counted_draw(seed, path_lo, path_hi, steps, dim, dt):
        draws.append((path_hi - path_lo) * steps * dim)
        return gaussian_increments(seed, path_lo, path_hi, steps, dim, dt)

    monkeypatch.setattr(malsde.bounds, "map_chunks", counted_map)
    monkeypatch.setattr(malsde.bounds, "gaussian_increments", counted_draw)
    monkeypatch.setattr(malsde.rng, "gaussian_increments", counted_draw)
    code = _run(["bounds", "--out", tmp_path, "--set", _DW2, "--set", "paths=500",
                 "--set", "grid.steps=8", "--set", "bounds.invcov_steps=4",
                 "--set", "truncation_level=1.5",
                 "--set", "truncation_levels=[1.0,2.0]"])
    assert code in (0, 1)
    assert maps == [500, 500]
    assert sum(draws) == 500 * (8 + 4) * 2


def test_bounds_worker_count_invariance(tmp_path):
    # 17000 paths span two 16384-path chunks, so --workers 2 runs both at once
    a, b = tmp_path / "w1", tmp_path / "w2"
    a.mkdir(), b.mkdir()
    common = ["bounds", "--set", _DW1, "--set", "paths=17000",
              "--set", "grid.steps=8", "--set", "truncation_levels=[1.0,2.0,4.0]",
              "--set", "bounds.invcov_steps=8"]
    assert _run(common + ["--out", a, "--workers", "1"]) == 0
    assert _run(common + ["--out", b, "--workers", "2"]) == 0
    a_csv = (a / "bounds.csv").read_bytes()
    assert a_csv == (b / "bounds.csv").read_bytes()
    assert a_csv.count(b"\ndnorm,") == 2 and a_csv.count(b"\ncovQ,") == 1


def test_invcov_slope_row_fails_off_the_exact_slope(tmp_path, monkeypatch):
    # for OU, Q is deterministic: the fitted slope must be the exact Euler-chain
    # slope, so a planted offset of 1e-6 is a failed check
    common = ["bounds", "--set", "paths=2000", "--set", "grid.steps=16"]
    ok, bad = tmp_path / "ok", tmp_path / "bad"
    ok.mkdir(), bad.mkdir()
    assert _run(common + ["--out", ok]) == 0
    fitted = malsde.bounds.invcov_moment_scaling

    def planted(*args, **kwargs):
        sc = fitted(*args, **kwargs)
        return dataclasses.replace(sc, slopes=sc.slopes + 1e-6)

    monkeypatch.setattr(malsde.bounds, "invcov_moment_scaling", planted)
    assert _run(common + ["--out", bad]) == 1
    for out, passed in ((ok, "1"), (bad, "0")):
        with open(out / "bounds.csv") as f:
            rows = [r for r in csv.DictReader(f) if r["check"] == "invcov_slope"]
        assert len(rows) == 2 and all(r["pass"] == passed for r in rows)
        # rhs is the exact slope, margin the tolerance left: negative iff failed
        assert all((float(r["margin"]) >= 0) == (passed == "1") for r in rows)
        assert all(float(r["rhs"]) == pytest.approx(float(r["lhs"]), abs=1e-5)
                   for r in rows)


def test_generator_fit_row_fails_on_a_holdout_violation(tmp_path, monkeypatch):
    # fitted constants that one holdout point violates fail the generator_fit
    # row (rhs 0) and the run; the constants themselves, and so every other
    # row, are unchanged
    common = ["bounds", "--set", "paths=2000", "--set", "grid.steps=16"]
    ok, bad = tmp_path / "ok", tmp_path / "bad"
    ok.mkdir(), bad.mkdir()
    assert _run(common + ["--out", ok]) == 0
    fitted = malsde.bounds.fit_generator_constants

    def planted(*args, **kwargs):
        return dataclasses.replace(fitted(*args, **kwargs), holdout_violations=1)

    monkeypatch.setattr(malsde.bounds, "fit_generator_constants", planted)
    assert _run(common + ["--out", bad]) == 1
    rows = {}
    for out in (ok, bad):
        with open(out / "bounds.csv") as f:
            rows[out] = list(csv.DictReader(f))
    good_fit, bad_fit = rows[ok][0], rows[bad][0]
    assert good_fit["check"] == bad_fit["check"] == "generator_fit"
    assert (good_fit["lhs"], good_fit["margin"], good_fit["pass"]) == ("0", "0", "1")
    assert (bad_fit["lhs"], bad_fit["margin"], bad_fit["pass"]) == ("1", "-1", "0")
    moved = ("lhs", "margin", "pass")
    assert ({k: v for k, v in bad_fit.items() if k not in moved}
            == {k: v for k, v in good_fit.items() if k not in moved})
    assert rows[bad][1:] == rows[ok][1:]


def test_invcov_slope_row_passes_when_paths_leave_the_ball(tmp_path):
    # OU paths from x0 = 0.5 leave the level-1 ball, where the truncation
    # makes Q random; the slope is fitted on the untruncated process, so the
    # exact check still holds and the level-8 slope is reproduced
    args = ["bounds", "--set", "paths=2000", "--set", "grid.steps=16"]
    outs = {}
    for level in (1.0, 8.0):
        out = tmp_path / str(level)
        out.mkdir()
        assert _run(args + ["--set", f"truncation_level={level}", "--out", out]) == 0
        with open(out / "bounds.csv") as f:
            outs[level] = [r for r in csv.DictReader(f) if r["check"] == "invcov_slope"]
    assert all(r["pass"] == "1" for r in outs[1.0])
    assert [r["lhs"] for r in outs[1.0]] == [r["lhs"] for r in outs[8.0]]

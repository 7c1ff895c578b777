"""Experiment runner: config parsing, subcommand dispatch, CSV/JSON reports.

Subcommands: simulate, density, bounds, oracle, converge.  Configs are strict
JSON (unknown keys rejected); outputs are CSV files with 17-significant-digit
floats plus a JSON run manifest.  Given the same config and seed, report
bytes are identical at any worker count.  The studies build each check CSV's
rows and decide their pass (`density.density_checks`, `bounds.bound_checks`,
`bounds.truncation_convergence` and `bounds.step_halving_checks`); this
module adds the config columns (model, n, M, seed) and writes the rows.

Exit codes: 0 success, 1 failed check, 2 config error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import copy
import itertools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    bound_checks,
    fit_generator_constants,
    step_halving_checks,
    truncation_convergence,
)
from .density import density_checks
from .malliavin import DegenerateCovarianceError, alpha_tag, quadrature_oracle
from .models import MODEL_IDS, ModelDefinitionError, TruncationFamily, make_model
from .simulate import NumericalBlowupError, TimeGrid, moment_estimate

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_NUM = {"type": "number"}
_INT = {"type": "integer"}
_NUMLIST = {"type": "array", "items": _NUM, "minItems": 1}
_INTLIST = {"type": "array", "items": _INT, "minItems": 1}
_ALPHAS = {"type": "array", "minItems": 1,
           "items": {"type": "array",
                     "items": {"type": "integer", "minimum": 1}}}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "model": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "id": {"enum": list(MODEL_IDS)},
                "params": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "dim": _INT,
                        "x0": _NUMLIST,
                        "horizon": _NUM,  # temporary: see load_config
                        "sigma0": _NUM,
                        "kappa": _NUM,
                        "mu": _NUMLIST,
                    },
                },
            },
            "required": ["id"],
        },
        "truncation_level": _NUM,
        "truncation_levels": _NUMLIST,
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"horizon": _NUM, "steps": _INT},
            "required": ["horizon", "steps"],
        },
        "paths": _INT,
        "seed": _INT,
        "workers": _INT,
        "simulate": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"p_list": _INTLIST},
        },
        "density": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "y_grid": _NUMLIST,
                "alphas": _ALPHAS,
                "envelope": {"type": "boolean"},
            },
        },
        "bounds": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "zeta_list": {"type": "array", "minItems": 1,
                              "items": {"type": "number", "exclusiveMinimum": 0}},
                "y_offsets": _NUMLIST,
                "p_list": _INTLIST,
                "t_grid": _NUMLIST,
                "invcov_steps": _INT,
            },
        },
        "oracle": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "steps": _INT,
                "nodes": _INT,
                "alphas": _ALPHAS,
                "functions": {"type": "array", "minItems": 1,
                              "items": {"enum": ["cos", "bump"]}},
                "tolerance": _NUM,
            },
        },
        "converge": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "levels": _NUMLIST,
                "p": _INT,
                "halving_steps": {"type": "array",
                                  "items": {"type": "integer", "minimum": 1}},
            },
        },
    },
}

DEFAULT_CONFIG = {
    "model": {"id": "ou",
              "params": {"dim": 1, "x0": [0.5], "kappa": 1.0, "mu": [0.0], "sigma0": 1.0}},
    "truncation_level": 8.0,
    "truncation_levels": [2.0, 4.0, 8.0],
    "grid": {"horizon": 1.0, "steps": 64},
    "paths": 20000,
    "seed": 0,
    "workers": 1,
    "simulate": {"p_list": [2, 4]},
    "density": {"y_grid": [-2.5, -2.0, -1.5, -1.0, -0.5, 0.0,
                           0.5, 1.0, 1.5, 2.0, 2.5],
                "alphas": [[], [1]],
                "envelope": False},
    "bounds": {"zeta_list": [0.1, 0.5],
               "y_offsets": [2.0, 3.0, 4.0],
               "p_list": [2, 4],
               "t_grid": [0.1, 0.18, 0.32, 0.56, 1.0],
               "invcov_steps": 16},
    "oracle": {"steps": 2, "nodes": 128,
               "alphas": [[1], [1, 1]],
               "functions": ["cos", "bump"],
               "tolerance": 1e-6},
    "converge": {"levels": [2.0, 4.0, 8.0], "p": 2,
                 "halving_steps": [64, 128, 256]},
}


def _is_type(value, name: str) -> bool:
    """JSON Schema types; an integral float counts as an integer, a bool as
    neither integer nor number."""
    if name == "object":
        return isinstance(value, dict)
    if name == "array":
        return isinstance(value, list)
    if name == "boolean":
        return isinstance(value, bool)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return name == "number" or isinstance(value, int) or value.is_integer()


def _schema_errors(value, schema: dict, path=()):
    """(path, message) of each violation of the JSON Schema subset that
    CONFIG_SCHEMA uses, keyword by keyword in schema order, worded as
    jsonschema words them."""
    for key, arg in schema.items():
        if key == "type" and not _is_type(value, arg):
            yield path, f"{value!r} is not of type {arg!r}"
        elif key == "enum" and value not in arg:
            yield path, f"{value!r} is not one of {arg!r}"
        elif isinstance(value, dict):
            if key == "properties":
                for name, sub in arg.items():
                    if name in value:
                        yield from _schema_errors(value[name], sub, path + (name,))
            elif key == "additionalProperties" and not arg:
                extras = sorted(set(value) - set(schema.get("properties", {})), key=str)
                if extras:
                    verb = "was" if len(extras) == 1 else "were"
                    yield path, ("Additional properties are not allowed "
                                 f"({', '.join(map(repr, extras))} {verb} unexpected)")
            elif key == "required":
                for name in arg:
                    if name not in value:
                        yield path, f"{name!r} is a required property"
        elif isinstance(value, list):
            if key == "items":
                for i, item in enumerate(value):
                    yield from _schema_errors(item, arg, path + (i,))
            elif key == "minItems" and len(value) < arg:
                yield path, f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif _is_type(value, "number"):
            if key == "minimum" and value < arg:
                yield path, f"{value!r} is less than the minimum of {arg!r}"
            elif key == "exclusiveMinimum" and value <= arg:
                yield path, f"{value!r} is less than or equal to the minimum of {arg!r}"


def _validate(cfg: dict) -> None:
    """Raise ConfigError for the violation jsonschema's best_match would name:
    the shallowest path, then the greatest path, then the first found."""
    errors = list(_schema_errors(cfg, CONFIG_SCHEMA))
    if errors:
        path, message = max(errors, key=lambda e: (-len(e[0]), e[0]))
        loc = "/".join(str(p) for p in path) or "<root>"
        raise ConfigError(f"config invalid at {loc}: {message}")


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


def _apply_override(cfg: dict, dotted: str, raw: str) -> None:
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    keys = dotted.split(".")
    node = cfg
    for k in keys[:-1]:
        nxt = node.get(k)
        if not isinstance(nxt, dict):
            nxt = {}
            node[k] = nxt
        node = nxt
    node[keys[-1]] = value


def load_config(path: str | None, overrides, seed=None, workers=None) -> dict:
    """DEFAULT_CONFIG merged with the file at `path`, the `--set` overrides,
    seed and workers, then validated.  A model holds no T: `grid.horizon` is
    the run's.  Until `bench/workloads.py` stops setting it, a model-level
    horizon equal to it is removed, and any other is a ConfigError."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path) as f:
                user = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {path} is not valid JSON: "
                              f"line {e.lineno} column {e.colno}: {e.msg}") from e
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        cfg = _deep_merge(cfg, user)
        model = user.get("model")
        if isinstance(model, dict) and "id" in model:
            # a named model brings its own params, not the defaults' (OU) ones
            cfg["model"]["params"] = copy.deepcopy(model.get("params", {}))
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        _apply_override(cfg, key, raw)
    if seed is not None:
        cfg["seed"] = seed
    if workers is not None:
        cfg["workers"] = workers
    _validate(cfg)
    params, horizon = cfg["model"].get("params", {}), cfg["grid"]["horizon"]
    if params.pop("horizon", horizon) != horizon:  # temporary, like the schema entry
        raise ConfigError("model.params.horizon differs from grid.horizon "
                          f"{horizon!r}, the run's horizon")
    return cfg


def _build(cfg):
    model = make_model(cfg["model"]["id"], **cfg["model"].get("params", {}))
    fam = TruncationFamily(model, cfg["truncation_level"])
    grid = TimeGrid(cfg["grid"]["horizon"], cfg["grid"]["steps"])
    return model, fam, grid


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return "%.17g" % float(x)
    return str(x)


def write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def write_checks(path: Path, header, rows) -> tuple[int, list[Path]]:
    """Write a check CSV; exit 1 if any row's last (`pass`) column is false."""
    write_csv(path, header, rows)
    return (EXIT_OK if all(row[-1] for row in rows) else EXIT_CHECK_FAILED), [path]


def write_manifest(outdir: Path, subcommand: str, cfg: dict, files, wall: float) -> None:
    manifest = {
        "subcommand": subcommand,
        "config": cfg,
        "versions": {"package": __version__, "python": sys.version.split()[0],
                     "numpy": np.__version__},
        "wall_time_s": round(wall, 3),
        "outputs": [f.name for f in files],
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg, outdir: Path) -> tuple[int, list[Path]]:
    model, fam, grid = _build(cfg)
    p_list = cfg["simulate"]["p_list"]
    estimates = moment_estimate(fam, grid, p_list, cfg["paths"], cfg["seed"],
                                workers=cfg["workers"])
    rows = [(cfg["model"]["id"], fam.level, grid.steps, cfg["paths"],
             cfg["seed"], p, sup, se) for p, (sup, se) in zip(p_list, estimates)]
    f = outdir / "moments.csv"
    write_csv(f, ["model", "n", "N", "M", "seed", "p", "sup_moment", "se"], rows)
    return EXIT_OK, [f]


def cmd_density(cfg, outdir: Path) -> tuple[int, list[Path]]:
    _, fam, grid = _build(cfg)
    dcfg = cfg["density"]
    env_fit = fit_generator_constants(fam, 2) if dcfg["envelope"] else None
    rows = density_checks(fam, grid, cfg["paths"], cfg["seed"], dcfg["alphas"],
                          dcfg["y_grid"], env_fit, cfg["workers"])
    key = (cfg["model"]["id"], fam.level, grid.steps, cfg["paths"], cfg["seed"])
    return write_checks(outdir / "density.csv",
                        ["model", "n", "N", "M", "seed", "y", "alpha", "estimate",
                         "se", "kde", "oracle", "envelope", "pass"],
                        [key + row for row in rows])


def cmd_bounds(cfg, outdir: Path) -> tuple[int, list[Path]]:
    _, fam, grid = _build(cfg)
    bcfg = cfg["bounds"]
    rows = bound_checks(fam, cfg["truncation_levels"], grid, cfg["paths"], cfg["seed"],
                        bcfg["zeta_list"], bcfg["y_offsets"], bcfg["p_list"],
                        bcfg["t_grid"], bcfg["invcov_steps"], cfg["workers"])
    return write_checks(outdir / "bounds.csv",
                        ["check", "model", "n", "N", "M", "seed", "param", "lhs",
                         "se", "rhs", "margin", "pass"],
                        [(check, cfg["model"]["id"], fam.level, n, cfg["paths"],
                          cfg["seed"], *rest) for check, n, *rest in rows])


_ORACLE_FUNCS = {
    "cos": (np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x)),
    "bump": (lambda x: np.exp(-0.5 * x * x),
             lambda x: -x * np.exp(-0.5 * x * x),
             lambda x: (x * x - 1) * np.exp(-0.5 * x * x)),
}


def cmd_oracle(cfg, outdir: Path) -> tuple[int, list[Path]]:
    model, fam, grid = _build(cfg)
    ocfg = cfg["oracle"]
    # config coords are 1-based; one chain on the nodes serves every row
    results = quadrature_oracle(
        fam, ocfg["steps"], [_ORACLE_FUNCS[f] for f in ocfg["functions"]],
        [tuple(a - 1 for a in alpha) for alpha in ocfg["alphas"]],
        nodes=ocfg["nodes"], horizon=grid.horizon)
    keys = itertools.product(ocfg["functions"], ocfg["alphas"])
    rows = [(f"{cfg['model']['id']}:{fname}", alpha_tag(alpha), ocfg["steps"], *res)
            for (fname, alpha), res in zip(keys, results)]
    f = outdir / "oracle.csv"
    write_csv(f, ["model", "alpha", "N", "lhs", "rhs", "gap"], rows)
    ok = all(gap <= ocfg["tolerance"] for _, _, gap in results)
    return (EXIT_OK if ok else EXIT_CHECK_FAILED), [f]


def cmd_converge(cfg, outdir: Path) -> tuple[int, list[Path]]:
    model, _, grid = _build(cfg)
    ccfg = cfg["converge"]
    table = truncation_convergence(model, ccfg["levels"], grid, cfg["paths"],
                                   p=ccfg["p"], seed=cfg["seed"], workers=cfg["workers"])
    table += step_halving_checks(model, grid, ccfg["halving_steps"])
    rows = [(study, cfg["model"]["id"], param, n, cfg["paths"], cfg["seed"], val, ok)
            for study, param, n, val, ok in table]
    return write_checks(outdir / "converge.csv",
                        ["study", "model", "param", "N", "M", "seed", "value",
                         "pass"], rows)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "simulate": cmd_simulate,
    "density": cmd_density,
    "bounds": cmd_bounds,
    "oracle": cmd_oracle,
    "converge": cmd_converge,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="malsde",
        description="Monte Carlo density estimation for SDEs with "
                    "semi-monotone drifts")
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--workers", type=int, help="worker process count")
    parser.add_argument("--out", help="output directory "
                                      "(default: $MALSDE_OUT or cwd)")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="dotted-path config override (JSON value)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.set, args.seed, args.workers)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    outdir = Path(args.out or os.environ.get("MALSDE_OUT") or ".")
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        print(f"config error: cannot create output dir: {e}", file=sys.stderr)
        return EXIT_CONFIG
    t0 = time.monotonic()
    try:
        code, files = _COMMANDS[args.subcommand](cfg, outdir)
    except (NumericalBlowupError, DegenerateCovarianceError,
            FloatingPointError) as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ModelDefinitionError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    write_manifest(outdir, args.subcommand, cfg, files, time.monotonic() - t0)
    return code


if __name__ == "__main__":
    sys.exit(main())

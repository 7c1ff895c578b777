"""The four benchmark workloads: one model and one `malsde` subcommand each.

A workload is fully described by its subcommand, its model and a partial
config.  The model goes on the command line as `--set model=<json>` and the
rest goes in a config file: a config file that names any model other than
`ou` is merged into the OU defaults and fails (see README.md).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

DW1 = {"id": "double-well-1d",
       "params": {"x0": [0.3], "horizon": 1.0, "sigma0": 0.8}}
DW2 = {"id": "double-well-2d",
       "params": {"x0": [0.0, 0.0], "horizon": 0.5}}


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    model: dict
    config: dict
    csv: str
    warmup_paths: int  # the warm-up call's smaller path count

    @property
    def paths(self) -> int:
        return self.config["paths"]

    def warmup_config(self) -> dict:
        return dict(self.config, paths=self.warmup_paths)

    def argv(self, config_path: Path, out: Path, seed: int) -> list[str]:
        """Command line for one subcommand call (`malsde.cli.main(argv)`)."""
        return [self.subcommand, "--config", str(config_path),
                "--set", "model=" + json.dumps(self.model),
                "--seed", str(seed), "--workers", "1", "--out", str(out)]


WORKLOADS = {w.name: w for w in [
    # order-1 and order-2 IBP weights at d = 1, complex-step pass included
    Workload("density-1d", "density", DW1, {
        "truncation_level": 4.0,
        "grid": {"horizon": 1.0, "steps": 64},
        "paths": 10000,
        "density": {"y_grid": [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0],
                    "alphas": [[], [1]],
                    "envelope": False},
    }, "density.csv", 1000),
    # mixed order-2 weight H_(0,1) at d = 2 with state-dependent diffusion
    Workload("density-2d", "density", DW2, {
        "truncation_level": 4.0,
        "grid": {"horizon": 0.5, "steps": 32},
        "paths": 2000,
        "density": {"y_grid": [-1.0, -0.5, 0.0, 0.5, 1.0],
                    "alphas": [[]],
                    "envelope": False},
    }, "density.csv", 1000),
    # chain passes without weight terms, Euler-only checks, generator fit;
    # level 1 puts states outside the truncation ball, level 4 does not
    Workload("bounds-1d", "bounds", DW1, {
        "truncation_level": 4.0,
        "truncation_levels": [1.0, 2.0, 4.0],
        "grid": {"horizon": 1.0, "steps": 64},
        "paths": 6000,
        "bounds": {"y_offsets": [0.25, 0.75, 1.25]},
    }, "bounds.csv", 1000),
    # counter RNG, Euler step and truncated drift only
    Workload("converge-1d", "converge", DW1, {
        "grid": {"horizon": 1.0, "steps": 128},
        "paths": 30000,
        "converge": {"levels": [1.0, 2.0, 4.0, 8.0], "p": 2},
    }, "converge.csv", 5000),
]}

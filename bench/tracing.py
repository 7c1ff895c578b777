"""Per-layer tracing from outside the program.

`install` wraps the public entry points of each `malsde` layer (and the
private helpers the per-layer metrics name) with span recorders.  Every
module-level name bound to a wrapped function is rebound, so calls through
`from .x import f` imports are caught too.  A span records its name, start,
end, parent span and the call (repetition) it belongs to; a layer's self
time is its span minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# per-layer metrics: name -> (unit, better); BENCHMARK.json lists the same
METRICS = {
    "rng.gaussian_increments.self_s": ("s", "lower"),
    "rng.gaussian_increments.draws": ("count", "lower"),
    "simulate.euler_states.self_s": ("s", "lower"),
    "simulate.euler_states.path_steps": ("count", "lower"),
    "models.base_drift.self_s": ("s", "lower"),
    "models.clamp_point.self_s": ("s", "lower"),
    "models.clamp_derivatives.self_s": ("s", "lower"),
    "models.clamp_derivatives.points": ("count", "lower"),
    "models.clamp_derivatives.outside_ratio": ("ratio", "higher"),
    "models.truncated_jac_hess.self_s": ("s", "lower"),
    "malliavin.chain_batch.self_s": ("s", "lower"),
    "malliavin.chain_batch.paths": ("count", "lower"),
    "malliavin.chain_batch.complex_paths": ("count", "lower"),
    "malliavin.cov_row_derivatives.self_s": ("s", "lower"),
    "malliavin.row_divergences.self_s": ("s", "lower"),
    "malliavin.weight_alpha.self_s": ("s", "lower"),
    "density.weight_samples.paths": ("count", "lower"),
    "density.weight_passes_per_alpha": ("ratio", "lower"),
    "density.orthant_estimates.self_s": ("s", "lower"),
    "density.kde.self_s": ("s", "lower"),
    "bounds.fit_generator_constants.self_s": ("s", "lower"),
    "bounds.exp_moment_check.total_s": ("s", "lower"),
    "bounds.tail_check.total_s": ("s", "lower"),
    "bounds.dnorm_check.total_s": ("s", "lower"),
    "bounds.covQ_moment_check.total_s": ("s", "lower"),
    "bounds.invcov_moment_scaling.total_s": ("s", "lower"),
    "bounds.truncation_convergence.total_s": ("s", "lower"),
    "parallel.map_chunks.chunks": ("count", "lower"),
    "cli.load_config.self_s": ("s", "lower"),
    "cli.reports.self_s": ("s", "lower"),
    "cli.main.total_s": ("s", "lower"),
}


def _batch(x) -> int:
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _count_increments(counts, seed, path_lo, path_hi, steps, dim, dt):
    counts["rng.gaussian_increments.draws"] += (path_hi - path_lo) * steps * dim


def _count_euler(counts, model, dt, dW, x0=None):
    counts["simulate.euler_states.path_steps"] += int(np.prod(np.shape(dW)[:2]))


def _count_clamp(counts, x, n):
    x = np.asarray(x)
    counts["models.clamp_derivatives.points"] += _batch(x)
    r = np.sqrt(np.sum(np.real(x) ** 2, axis=-1))
    counts["models.clamp_derivatives.outside"] += int(np.count_nonzero(r > n))


def _count_chain(counts, model, dt, dW, *args, **kwargs):
    kind = "complex_paths" if np.iscomplexobj(dW) else "paths"
    counts[f"malliavin.chain_batch.{kind}"] += np.shape(dW)[0]


def _count_weights(counts, fam, grid, n_paths, *args, **kwargs):
    counts["density.weight_samples.paths"] += n_paths
    counts["density.weight_samples.calls"] += 1


def _count_chunks(counts, fn, n, chunk, workers=1):
    counts["parallel.map_chunks.chunks"] += -(-n // chunk)


# (module, attribute, span name, counter); a dotted attribute is a method
WRAPPED = [
    ("rng", "gaussian_increments", "rng.gaussian_increments", _count_increments),
    ("simulate", "euler_states", "simulate.euler_states", _count_euler),
    ("models", "clamp_point", "models.clamp_point", None),
    ("models", "clamp_derivatives", "models.clamp_derivatives", _count_clamp),
    ("models", "TruncationFamily.drift_jac", "models.truncated_jac_hess", None),
    ("models", "TruncationFamily.drift_hess", "models.truncated_jac_hess", None),
    ("malliavin", "chain_batch", "malliavin.chain_batch", _count_chain),
    ("malliavin", "_row_divergences", "malliavin.row_divergences", None),
    ("malliavin", "_cov_row_derivatives", "malliavin.cov_row_derivatives", None),
    ("malliavin", "weight_alpha", "malliavin.weight_alpha", None),
    ("density", "weight_samples", "density.weight_samples", _count_weights),
    ("density", "_orthant_estimates", "density.orthant_estimates", None),
    ("density", "kde", "density.kde", None),
    ("density", "kde_risk", "density.kde", None),
    ("bounds", "fit_generator_constants", "bounds.fit_generator_constants", None),
    ("bounds", "exp_moment_check", "bounds.exp_moment_check", None),
    ("bounds", "tail_check", "bounds.tail_check", None),
    ("bounds", "dnorm_check", "bounds.dnorm_check", None),
    ("bounds", "covQ_moment_check", "bounds.covQ_moment_check", None),
    ("bounds", "invcov_moment_scaling", "bounds.invcov_moment_scaling", None),
    ("bounds", "truncation_convergence", "bounds.truncation_convergence", None),
    ("parallel", "map_chunks", "parallel.map_chunks", _count_chunks),
    ("cli", "load_config", "cli.load_config", None),
    ("cli", "write_csv", "cli.reports", None),
    ("cli", "write_manifest", "cli.reports", None),
    ("cli", "main", "cli.main", None),
]


class Tracer:
    """In-memory spans and counters, grouped by call (repetition)."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, child time, call]
        self.stack = []
        self.call = -1
        self.counts = []  # one counter dict per call

    def start_call(self):
        self.call += 1
        self.counts.append(defaultdict(int))

    def wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counter(self.counts[self.call], *args, **kwargs)
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            span = [name, time.perf_counter(), 0.0, parent, 0.0, self.call]
            self.spans.append(span)
            self.stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
                if parent >= 0:
                    self.spans[parent][4] += span[2] - span[1]
        return traced

    def metrics(self, alphas_per_call: int) -> dict:
        """Per-layer metrics of one call, as the median over traced calls."""
        per_call = []
        for call, counts in enumerate(self.counts):
            m = defaultdict(float)
            for name, start, end, _, child, c in self.spans:
                if c == call:
                    m[f"{name}.self_s"] += end - start - child
                    m[f"{name}.total_s"] += end - start
            m.update(counts)
            points = counts.get("models.clamp_derivatives.points", 0)
            m["models.clamp_derivatives.outside_ratio"] = (
                counts.get("models.clamp_derivatives.outside", 0) / points
                if points else 0.0)
            m["density.weight_passes_per_alpha"] = (
                counts.get("density.weight_samples.calls", 0) / alphas_per_call
                if alphas_per_call else 0.0)
            per_call.append(m)
        return {k: {"value": float(statistics.median(m.get(k, 0.0) for m in per_call)),
                    "unit": unit}
                for k, (unit, _) in METRICS.items()}

    def dump_spans(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p, "call": c}
                for n, s, e, p, _, c in self.spans]


def install(tracer: Tracer, package: str = "malsde") -> list[str]:
    """Wrap every entry point in WRAPPED; returns those the program lacks."""
    modules = [m for k, m in list(sys.modules.items())
               if k == package or k.startswith(package + ".")]
    missing = []
    for mod_name, attr, span, counter in WRAPPED:
        mod = sys.modules[f"{package}.{mod_name}"]
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        orig = getattr(owner, fn_name, None)
        if orig is None:
            missing.append(f"{mod_name}.{attr}")
            continue
        wrapped = tracer.wrap(span, orig, counter)
        if owner_name:
            setattr(owner, fn_name, wrapped)
            continue
        for m in modules:
            for k, v in list(vars(m).items()):
                if v is orig:
                    setattr(m, k, wrapped)
    # the base models' own drifts, whatever classes the program defines
    models = sys.modules[f"{package}.models"]
    for cls in vars(models).values():
        if (isinstance(cls, type) and issubclass(cls, models.SdeModel)
                and "drift" in vars(cls)):
            cls.drift = tracer.wrap("models.base_drift", vars(cls)["drift"], None)
    return missing

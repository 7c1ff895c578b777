"""One measured process: set up, warm up, then time repeated subcommand calls.

Started by run.py with BLAS threads pinned to 1.  Writes `result.json` into
the run directory: the monotonic time at which set-up finished, each call's
wall time and exit code, the CSV digest of each call, the process's peak
RSS, and with --trace 1 the per-layer metrics of the traced calls.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

MIN_REPS = 3


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rundir", required=True)
    ap.add_argument("--src", required=True)
    args = ap.parse_args()

    rundir = Path(args.rundir)
    sys.path.insert(0, args.src)
    from workloads import WORKLOADS

    # set-up: import the package, load the config and build the model
    import malsde.cli as cli
    from malsde.models import TruncationFamily, make_model
    from malsde.simulate import TimeGrid

    w = WORKLOADS[args.workload]
    config_path = rundir / "config.json"
    config_path.write_text(json.dumps(w.config, indent=1))
    out = rundir / "out"
    argv = w.argv(config_path, out, args.seed)
    cfg = cli.load_config(str(config_path), ["model=" + json.dumps(w.model)],
                          seed=args.seed, workers=1)
    model = make_model(cfg["model"]["id"], **cfg["model"]["params"])
    TruncationFamily(model, cfg["truncation_level"])
    TimeGrid(cfg["grid"]["horizon"], cfg["grid"]["steps"])
    t_ready = time.monotonic()

    # warm-up: the same call on fewer paths, so imports, caches and the
    # allocator settle without spending the run's time budget
    warmup_path = rundir / "warmup.json"
    warmup_path.write_text(json.dumps(w.warmup_config(), indent=1))
    codes = [cli.main(w.argv(warmup_path, rundir / "warmup", args.seed))]
    times, digests = [], []

    def call():
        t0 = time.perf_counter()
        code = cli.main(argv)
        times.append(time.perf_counter() - t0)
        codes.append(code)
        csv = out / w.csv
        digests.append(hashlib.sha256(csv.read_bytes()).hexdigest()
                       if code == 0 and csv.exists() else None)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        missing = tracing.install(tracer)
    start = time.perf_counter()
    while len(times) < MIN_REPS or time.perf_counter() - start < args.seconds:
        if tracer is not None:
            tracer.start_call()
        call()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"t_ready": t_ready, "times": times, "codes": codes,
              "digests": digests, "peak_rss_kb": peak_rss_kb,
              "csv": str(out / w.csv)}
    if tracer is not None:
        alphas = len(w.config["density"]["alphas"]) if w.subcommand == "density" else 0
        result["layers"] = tracer.metrics(alphas)
        result["missing"] = missing
        (rundir / "spans.json").write_text(json.dumps(tracer.dump_spans()))
    (rundir / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

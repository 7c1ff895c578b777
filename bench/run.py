"""Run one benchmark workload and print its result as the last line.

    python3 bench/run.py --workload density-1d --seed 1 --seconds 15 --trace 0

The measured work runs in a child process (worker.py) that does nothing
else, so its set-up time and peak RSS are its own.  This process waits for
it, then checks the CSV the program wrote against the oracles in checks.py.
With --trace 0 the metrics are wall_s, setup_s and peak_rss_mb; with
--trace 1 they are the per-layer metrics of tracing.py.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 150


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "malsde" / "__init__.py").is_file():
        print(f"no malsde package under {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    rundir = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)

    # one BLAS thread; a fixed hash seed so set and dict orders repeat
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", w.name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--rundir", str(rundir), "--src", str(SRC)]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        print(f"worker exited with code {code}", file=sys.stderr)
        return 1
    result = json.loads((rundir / "result.json").read_text())

    # checks run here, after the measured process has ended
    sys.path.insert(0, str(SRC))
    import checks
    from malsde.rng import gaussian_increments

    attempted = len(result["codes"])
    failed = sum(1 for c in result["codes"] if c != 0)
    failures = []
    if len({d for d in result["digests"] if d is not None}) > 1:
        failures.append(f"{w.csv} bytes differ between repetitions")
    if failed == attempted:
        failures.append("no call succeeded")
    else:
        text = Path(result["csv"]).read_text()
        failures += checks.check(w, text, args.seed, gaussian_increments)
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)

    if args.trace:
        metrics = result["layers"]
        for name in result["missing"]:
            print(f"not traced (absent from the program): {name}", file=sys.stderr)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(result["times"]), "unit": "s"},
            "setup_s": {"value": result["t_ready"] - t_spawn, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The public names and the names the benchmark's per-layer tracer wraps."""

import importlib
import importlib.util
from pathlib import Path

import malsde

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.WRAPPED


def test_all_names_import():
    for name in malsde.__all__:
        assert hasattr(malsde, name), name


def test_traced_names_resolve():
    # a missing name would make its per-layer trace read 0 without failing
    for mod_name, attr, _, _ in _wrapped():
        owner = importlib.import_module(f"malsde.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{mod_name}.{attr}"

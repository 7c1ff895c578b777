"""Deterministic chunked execution over path ranges.

Chunk boundaries depend only on (n, chunk), never on the worker count, and
partial results are combined in chunk order; output bytes are therefore
identical for any number of workers.
"""

from __future__ import annotations


def chunk_ranges(n: int, chunk: int):
    """Half-open ranges [lo, hi) covering [0, n) in fixed-size pieces."""
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    return [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]


def map_chunks(fn, n: int, chunk: int, workers: int = 1):
    """Apply fn(lo, hi) to every chunk; results returned in chunk order.

    With workers > 1 the chunks run in separate processes (fn must be
    picklable); the ordered reduction keeps results worker-count independent.
    """
    ranges = chunk_ranges(n, chunk)
    if workers <= 1 or len(ranges) == 1:
        return [fn(lo, hi) for lo, hi in ranges]
    # imported here so a serial run does not pay for concurrent.futures
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as ex:
        futures = [ex.submit(fn, lo, hi) for lo, hi in ranges]
        return [f.result() for f in futures]

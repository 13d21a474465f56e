"""Shard-parallel map with deterministic reduction.

Shards are independent and the reductions used here (integer sums,
histogram sums) are associative and commutative, so results are identical
for any worker count.  Workers default to 1 (the numpy kernels already use
the whole core well); the environment variable JETSUMS_WORKERS supplies a
default for the CLI.
"""

from __future__ import annotations

import os


def default_workers() -> int:
    """JETSUMS_WORKERS, or 1 when it is unset.  A value that is not an
    integer >= 1 is refused rather than run as one worker."""
    raw = os.environ.get("JETSUMS_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"JETSUMS_WORKERS must be an integer >= 1, got {raw!r}")
    return workers


def resolve_workers(workers: int | None) -> int:
    """``workers``, or ``default_workers()`` when it is None; a count below 1
    is refused rather than run as one worker."""
    if workers is None:
        return default_workers()
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    return workers


def map_reduce(fn, shards: list, reduce_fn, initial, workers: int | None = None):
    """reduce_fn(acc, fn(shard)) over shards, optionally in worker processes.

    ``fn`` must be a module-level callable and shards picklable when
    workers > 1.
    """
    workers = resolve_workers(workers)
    if workers == 1 or len(shards) <= 1:
        acc = initial
        for shard in shards:
            acc = reduce_fn(acc, fn(shard))
        return acc
    import multiprocessing as mp

    ctx = mp.get_context("fork") if hasattr(os, "fork") else mp.get_context("spawn")
    with ctx.Pool(min(workers, len(shards))) as pool:
        acc = initial
        for part in pool.map(fn, shards):
            acc = reduce_fn(acc, part)
    return acc

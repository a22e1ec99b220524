"""Deterministic chunked execution, optionally across processes.

Work is split into fixed-size chunks keyed by chunk id; each chunk derives
its own RNG substream, so results are bitwise identical for any worker
count.  Reduction happens in chunk-id order.
"""

from __future__ import annotations

import os

from .errors import ParamsInvalid

CHUNK_SIZE = 4096
MAX_WORKERS = 1024
"""Largest worker count accepted from --workers or FOMLAB_THREADS; the CPU
count is capped to it."""


def resolve_workers(workers=None) -> int:
    """Worker count: `workers`, else FOMLAB_THREADS, else the CPU count.

    Counts below 1 mean 1.  A value that is not an integer, or is above
    MAX_WORKERS, raises ParamsInvalid.
    """
    if workers is None:
        workers = os.environ.get("FOMLAB_THREADS")
        if not workers:
            return min(os.cpu_count() or 1, MAX_WORKERS)
    try:
        count = int(workers)
    except (TypeError, ValueError) as exc:
        raise ParamsInvalid(f"worker count must be an integer, got {workers!r}") from exc
    if count > MAX_WORKERS:
        raise ParamsInvalid(f"worker count {count} is above {MAX_WORKERS}")
    return max(1, count)


def pool_size(workers, tasks: int) -> int:
    """Processes `run_chunked` uses for `tasks` chunks: at most one each."""
    return min(resolve_workers(workers), tasks)


def chunk_sizes(total: int, chunk_size: int = CHUNK_SIZE) -> list[int]:
    full, rest = divmod(total, chunk_size)
    return [chunk_size] * full + ([rest] if rest else [])


def run_chunked(worker_fn, args_list, workers=None):
    """Apply worker_fn to each args tuple; results returned in input order."""
    nworkers = pool_size(workers, len(args_list))
    if nworkers <= 1:
        return [worker_fn(a) for a in args_list]
    # imported here: concurrent.futures.process loads multiprocessing, which
    # only a pool needs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=nworkers) as pool:
        return list(pool.map(worker_fn, args_list))

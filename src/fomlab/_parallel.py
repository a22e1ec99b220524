"""Deterministic chunked execution, optionally across processes.

Work is split into chunks (`chunk_sizes`) keyed by chunk id; each chunk
derives its own RNG substream, so results are bitwise identical for any worker
count.  Results arrive, and are reduced, in chunk-id order.
"""

from __future__ import annotations

import os

from .errors import ParamsInvalid, TooLarge

CHUNK_SIZE = 4096
# largest rows x vertices of one chunk: a `verify_feasibility` chunk holds
# about 46 B per entry (tracemalloc at n = 1000 and 2000)
CHUNK_RANKS = 4_000_000
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


MAX_TRIALS = 1 << 25
"""Trial budget of `verify_feasibility` and `empirical_ratio`, 335 times the
100,000 trials of a dual-fitting cross-check.

`empirical_ratio` keeps every trial's ratio until its mean: it peaks at
32 B per trial for Ranking and 40 B for Greedy on a fixed instance
(tracemalloc, a 4-vertex path at 2^20 and 2^22 trials), 1.0 to 1.25 GiB at
the budget.  `verify_feasibility` keeps no per-trial array: it holds its
8,192 or more chunks' arguments, and folds each chunk's two floats per edge
into its sums as the chunk's result arrives; `CHUNK_RANKS` bounds the
memory of each chunk."""


def check_trials(trials: int) -> None:
    """Raise ParamsInvalid below 1 trial and TooLarge above MAX_TRIALS,
    before any chunk list is built."""
    if trials < 1:
        raise ParamsInvalid(f"need trials >= 1, got {trials}")
    if trials > MAX_TRIALS:
        raise TooLarge(f"{trials} trials are above the budget of {MAX_TRIALS}")


def chunk_sizes(total: int, n: int) -> list[int]:
    """Rows per chunk for `total` rows of `n` ranks each: CHUNK_SIZE rows,
    fewer when that would exceed CHUNK_RANKS entries (n > 976), at least 1."""
    chunk_size = max(1, min(CHUNK_SIZE, CHUNK_RANKS // max(1, n)))
    full, rest = divmod(total, chunk_size)
    return [chunk_size] * full + ([rest] if rest else [])


def run_chunked(worker_fn, args_list, workers=None):
    """Apply worker_fn to each args tuple; the results are yielded in input
    order as they are read, so a caller can fold each in and drop it.  The
    worker count is checked at the call, before any chunk runs."""
    nworkers = pool_size(workers, len(args_list))
    if nworkers <= 1:
        return map(worker_fn, args_list)
    return _pooled(worker_fn, args_list, nworkers)


def _pooled(worker_fn, args_list, nworkers):
    # imported here: concurrent.futures.process loads multiprocessing, which
    # only a pool needs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=nworkers) as pool:
        yield from pool.map(worker_fn, args_list)

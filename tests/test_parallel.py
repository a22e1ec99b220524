"""Worker-count parsing, pool sizing and the trial budget.  No test here
starts a pool: the executor is replaced by a recorder wherever run_chunked
would start one."""

import concurrent.futures
import subprocess
import sys

import numpy as np
import pytest

import fomlab._parallel as par
import fomlab.dual as dual_mod
import fomlab.hardness as hardness_mod
from conftest import path, traced_peak_mib
from fomlab._parallel import (
    MAX_TRIALS,
    MAX_WORKERS,
    check_trials,
    pool_size,
    resolve_workers,
    run_chunked,
)
from fomlab.charging import PIECEWISE
from fomlab.errors import ParamsInvalid, TooLarge


def test_resolve_workers_clamps_and_rejects(monkeypatch):
    monkeypatch.delenv("FOMLAB_THREADS", raising=False)
    assert resolve_workers(3) == 3
    assert resolve_workers(0) == 1
    assert resolve_workers(-7) == 1
    assert resolve_workers(MAX_WORKERS) == MAX_WORKERS
    for bad in (MAX_WORKERS + 1, 99999999999, 10**30, "abc", "", "2.5"):
        with pytest.raises(ParamsInvalid):
            resolve_workers(bad)


def test_resolve_workers_reads_the_environment(monkeypatch):
    for value, expected in (("2", 2), ("0", 1), ("-3", 1), (str(MAX_WORKERS), MAX_WORKERS)):
        monkeypatch.setenv("FOMLAB_THREADS", value)
        assert resolve_workers() == expected
    for bad in ("abc", "1.5", "99999999999", str(MAX_WORKERS + 1)):
        monkeypatch.setenv("FOMLAB_THREADS", bad)
        with pytest.raises(ParamsInvalid):
            resolve_workers()
    # an explicit count wins over the environment
    assert resolve_workers(2) == 2


def test_resolve_workers_caps_the_cpu_count(monkeypatch):
    monkeypatch.delenv("FOMLAB_THREADS", raising=False)
    monkeypatch.setattr(par.os, "cpu_count", lambda: 100_000)
    assert resolve_workers() == MAX_WORKERS
    monkeypatch.setattr(par.os, "cpu_count", lambda: None)
    assert resolve_workers() == 1


def test_pool_size_is_at_most_one_process_per_chunk(monkeypatch):
    assert pool_size(MAX_WORKERS, 3) == 3
    assert pool_size(2, 5) == 2
    assert pool_size(1, 0) == 0
    monkeypatch.setenv("FOMLAB_THREADS", "64")
    assert pool_size(None, 2) == 2
    with pytest.raises(ParamsInvalid):
        pool_size(MAX_WORKERS + 1, 1)


class _RecordingPool:
    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_run_chunked_sizes_its_pool_by_the_chunk_count(monkeypatch):
    # run_chunked imports the executor from concurrent.futures when it
    # starts a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    _RecordingPool.sizes = []
    assert run_chunked(abs, [-1, -2, -3], workers=MAX_WORKERS) == [1, 2, 3]
    assert run_chunked(abs, [-4], workers=MAX_WORKERS) == [4]
    assert run_chunked(abs, [-1, -2], workers=1) == [1, 2]
    assert _RecordingPool.sizes == [3]
    with pytest.raises(ParamsInvalid):
        run_chunked(abs, [-1], workers="many")


def test_importing_the_cli_loads_no_multiprocessing():
    # only a multi-chunk call at workers > 1 needs a pool
    code = (
        "import sys, fomlab.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'multiprocessing' or m == 'concurrent.futures.process'))"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_trials_over_the_budget_raise_before_any_chunk_list(monkeypatch):
    def no_chunk_list(*args):
        raise AssertionError("a chunk list was built")

    def no_instance(trial):
        raise AssertionError("an instance was built")

    monkeypatch.setattr(dual_mod, "chunk_sizes", no_chunk_list)
    monkeypatch.setattr(hardness_mod, "chunk_sizes", no_chunk_list)
    inst, over = path(3), MAX_TRIALS + 1
    calls = [
        lambda: dual_mod.verify_feasibility(inst, PIECEWISE, 0.5, over, 0),
        lambda: hardness_mod.empirical_ratio(inst, "ranking", over, 0),
        lambda: hardness_mod.empirical_ratio(inst, "greedy", over, 0),
        lambda: hardness_mod.empirical_ratio(no_instance, "ranking", over, 0),
    ]
    for call in calls:

        def rejected(call=call):
            with pytest.raises(TooLarge, match="budget"):
                call()

        # the 8,193-entry chunk list alone would peak at 128 KiB
        assert traced_peak_mib(rejected) < 16 / 1024
    check_trials(MAX_TRIALS)
    for few in (0, -5):
        with pytest.raises(ParamsInvalid):
            check_trials(few)


def test_chunks_hold_at_most_chunk_ranks_entries(monkeypatch):
    # both callers take their chunks from chunk_sizes(trials, n): 4096 rows
    # up to n = 976, then CHUNK_RANKS // n rows; the chunks are recorded,
    # not run
    assert par.CHUNK_SIZE == 4096 and par.CHUNK_RANKS == 4_000_000
    assert par.chunk_sizes(9000, 976) == [4096, 4096, 808]
    assert par.chunk_sizes(9000, 977) == [4094, 4094, 812]
    assert par.chunk_sizes(3, 10**7) == [1, 1, 1]
    inst = path(2000)
    seen = []

    def recorded(worker_fn, args_list, workers=None):
        seen.append([args[-1] for args in args_list])
        if worker_fn is dual_mod._edge_cover_chunk:
            return [(np.zeros(inst.m), np.zeros(inst.m), 0) for _ in args_list]
        return [np.ones(args[-1], dtype=np.int64) for args in args_list]

    monkeypatch.setattr(dual_mod, "run_chunked", recorded)
    monkeypatch.setattr(hardness_mod, "run_chunked", recorded)
    dual_mod.verify_feasibility(inst, PIECEWISE, 0.0, 5000, 0)
    hardness_mod.empirical_ratio(inst, "ranking", 5000, 0)
    assert seen == [[2000, 2000, 1000], [2000, 2000, 1000]]

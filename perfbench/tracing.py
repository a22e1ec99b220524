"""Spans around the calls into each fomlab module, for the traced run.

The wrappers live in the benchmark, not in the package: `installed(tracer)`
rebinds each public function under every name a caller looks it up by (for
example `fomlab.dual.run_ranking_batch` as well as
`fomlab.engine.run_ranking_batch`) and restores the originals on exit.  A
span is `[name, start, end, parent, task]`; the layer is the part of the name
before the first dot.  Counting done by the wrappers runs inside a
`trace.bookkeeping` child span, so it never counts as a layer's self time.
"""

from __future__ import annotations

import json
import pickle
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

import fomlab._parallel
import fomlab.charging
import fomlab.dual
import fomlab.engine
import fomlab.hardness
import fomlab.instance
import fomlab.oracle

NAME, START, END, PARENT, TASK = range(5)

KERNEL_BYTES_PER_NEIGHBOR = 28
"""Per row and neighbor of a deadline vertex, the batch kernel gathers the
neighbors' partners (int32) and ranks (float64), writes the masked candidate
ranks (float64) and reads them again in argmin (float64)."""
KERNEL_BYTES_PER_DEADLINE = 26
"""Per row and deadline: best rank (8), decision mask (1), own partner read
(4), two partner writes (8), active write (1) and the argmin index (4)."""


class Tracer:
    """In-memory span recorder; spans are written out by `dump`."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.task = "setup"
        self.counts: Counter = Counter()
        self._base = None  # (partner, active) of the last un-removed batch run in dual

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.task])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn, name, after=None):
        """`name` is a string or a function of the call's (args, kwargs)."""
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                with tracer.span("trace.bookkeeping"):
                    after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, fn, key):
        """Count calls without a span, for functions too small to time."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- bookkeeping hooks ---------------------------------------------------

    def _after_build(self, inst, args, kwargs):
        self.counts["instance.edges_built"] += inst.m

    def _after_batch(self, result, args, kwargs):
        instance, ranks = args[0], args[1]
        removed = _removed(args, kwargs)
        rows = ranks.shape[0]
        steps = 0
        neighbors = 0
        for v in instance.deadline_order:
            if v == removed:
                continue
            deg = sum(1 for u in instance.adj[v] if u != removed)
            if deg:
                steps += 1
                neighbors += deg
        self.counts["engine.batch_rows"] += rows
        self.counts["engine.batch_steps"] += rows * steps
        self.counts["engine.batch_bytes_computed"] += rows * (
            5 * instance.n
            + KERNEL_BYTES_PER_NEIGHBOR * neighbors
            + KERNEL_BYTES_PER_DEADLINE * steps
        )

    def _after_dual_batch(self, result, args, kwargs):
        """Replay accounting against the base run of the same rank matrix."""
        self._after_batch(result, args, kwargs)
        removed = _removed(args, kwargs)
        if removed is None:
            self._base = result
            return
        partner, active = self._base
        partner_wo, _ = result
        nbrs = np.array(args[0].adj[removed], dtype=np.int64)
        free = partner[:, nbrs] < 0
        candidate = active[:, removed] & free.any(axis=1)
        victim = active[:, removed] & (free & (partner_wo[:, nbrs] >= 0)).any(axis=1)
        self.counts["dual.replay_rows"] += partner.shape[0]
        self.counts["dual.candidate_rows"] += int(candidate.sum())
        self.counts["dual.victim_rows"] += int(victim.sum())

    def _after_grid(self, result, args, kwargs):
        self.counts["charging.grid_points"] += int(np.size(args[1]))

    def _after_chunked(self, result, args, kwargs):
        args_list = args[1]
        self.counts["_parallel.chunks"] += len(args_list)
        self.counts["_parallel.multi_chunk_calls"] += len(args_list) > 1
        self.counts["_parallel.args_bytes"] += len(pickle.dumps(args_list))

    def dump(self, path: Path) -> None:
        with open(path, "w") as fp:
            json.dump({"fields": ["name", "start", "end", "parent", "task"],
                       "spans": self.spans, "counts": dict(self.counts)}, fp)


def _removed(args, kwargs):
    return kwargs.get("removed", args[2] if len(args) > 2 else None)


def _batch_name(args, kwargs):
    return "engine.batch" if _removed(args, kwargs) is None else "engine.batch.replay"


def _patches(tracer: Tracer):
    """(owner, attribute, replacement) for every traced call site."""
    inst, eng, orc = fomlab.instance, fomlab.engine, fomlab.oracle
    chg, dual, hard, par = fomlab.charging, fomlab.dual, fomlab.hardness, fomlab._parallel
    w = tracer.wrap
    build = w(inst.build_instance, "instance.build", tracer._after_build)
    batch = w(eng.run_ranking_batch, _batch_name, tracer._after_batch)
    scalar = w(eng.run_ranking, "engine.scalar")
    hk = w(orc.max_matching_bipartite, "oracle.hk")
    blossom = w(orc.max_matching_general, "oracle.blossom")
    props = w(chg.check_properties, "charging.check_properties")
    chunked = w(par.run_chunked, "_parallel.run_chunked", tracer._after_chunked)
    cf = chg.ChargingFunction
    return [
        (inst, "build_instance", build),
        (hard, "build_instance", build),
        (inst, "random_instance", w(inst.random_instance, "instance.random_gen")),
        (eng, "run_ranking_batch", batch),
        (hard, "run_ranking_batch", batch),
        (dual, "run_ranking_batch",
         w(eng.run_ranking_batch, _batch_name, tracer._after_dual_batch)),
        (eng, "run_ranking", scalar),
        (dual, "run_ranking", scalar),
        (hard, "run_ranking", scalar),
        (orc, "max_matching_bipartite", hk),
        (hard, "max_matching_bipartite", hk),
        (orc, "max_matching_general", blossom),
        (hard, "max_matching_general", blossom),
        (cf, "g_limit_grid", w(cf.g_limit_grid, "charging.grid", tracer._after_grid)),
        (cf, "h_limit_grid", w(cf.h_limit_grid, "charging.grid", tracer._after_grid)),
        (chg, "ratio_bipartite", w(chg.ratio_bipartite, "charging.bound")),
        (chg, "ratio_general", w(chg.ratio_general, "charging.bound")),
        (chg, "minimize_psi1", w(chg.minimize_psi1, "charging.minimize")),
        (chg, "minimize_psi2", w(chg.minimize_psi2, "charging.minimize")),
        (chg, "psi1", tracer.counter(chg.psi1, "charging.psi_calls")),
        (chg, "psi2", tracer.counter(chg.psi2, "charging.psi_calls")),
        (chg, "check_properties", props),
        (dual, "check_properties", props),
        (dual, "verify_feasibility", w(dual.verify_feasibility, "dual.verify")),
        (dual, "_edge_cover_chunk", w(dual._edge_cover_chunk, "dual.chunk")),
        (dual, "simulate_alphas_batch", w(dual.simulate_alphas_batch, "dual.simulate")),
        (dual, "marginal_rank", w(dual.marginal_rank, "dual.marginal_rank")),
        (dual, "assign_duals", w(dual.assign_duals, "dual.assign_duals")),
        (dual, "find_victim", w(dual.find_victim, "dual.find_victim")),
        (dual, "exact_edge_cover", w(dual.exact_edge_cover, "dual.exact_cover")),
        (hard, "gen_adversary_tree", w(hard.gen_adversary_tree, "hardness.gen")),
        (hard, "gen_ranking_hard", w(hard.gen_ranking_hard, "hardness.gen")),
        (hard, "empirical_ratio", w(hard.empirical_ratio, "hardness.ratio")),
        (hard, "_opt_size", w(hard._opt_size, "hardness.opt")),
        (par, "run_chunked", chunked),
        (dual, "run_chunked", chunked),
        (hard, "run_chunked", chunked),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Rebind the traced functions for the duration of the block."""
    saved = []
    try:
        for owner, attr, replacement in _patches(tracer):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- from spans to per-layer metrics -------------------------------------------


def _durations(spans):
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[PARENT] >= 0:
            child[s[PARENT]] += d
    return dur, child


def layer_metrics(tracer: Tracer, replay_tasks: dict[str, set]) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and counts.

    `replay_tasks` maps a metric suffix (like "n160") to the dual-mc tasks
    whose replay-to-base kernel time ratio it reports.
    """
    spans = tracer.spans
    dur, child = _durations(spans)
    total = Counter()
    calls = Counter()
    self_s = Counter()
    for s, d, c in zip(spans, dur, child):
        total[s[NAME]] += d
        calls[s[NAME]] += 1
        self_s[s[NAME].split(".")[0]] += d - c

    def under(parent_name, child_layers):
        """Total time of `parent_name` spans, and of their direct children
        in `child_layers`."""
        own = sub = 0.0
        kids = Counter()
        for s, d in zip(spans, dur):
            p = s[PARENT]
            if (p >= 0 and spans[p][NAME] == parent_name
                    and s[NAME].split(".")[0] in child_layers):
                kids[p] += d
        for i, s in enumerate(spans):
            if s[NAME] == parent_name:
                own += dur[i]
                sub += kids[i]
        return own, sub

    counts = tracer.counts
    m: dict[str, float] = {}
    m["instance.build_s"] = total["instance.build"]
    m["instance.builds"] = calls["instance.build"]
    m["instance.edges_built"] = counts["instance.edges_built"]
    m["instance.random_gen_s"] = total["instance.random_gen"]

    m["engine.batch_s"] = total["engine.batch"] + total["engine.batch.replay"]
    m["engine.batch_calls"] = calls["engine.batch"] + calls["engine.batch.replay"]
    for key in ("batch_rows", "batch_steps", "batch_bytes_computed"):
        m[f"engine.{key}"] = counts[f"engine.{key}"]
    m["engine.scalar_s"] = total["engine.scalar"]
    m["engine.scalar_calls"] = calls["engine.scalar"]
    m["engine.scalar_us_per_call"] = _ratio(1e6 * total["engine.scalar"],
                                            calls["engine.scalar"])

    m["oracle.hk_s"] = total["oracle.hk"]
    m["oracle.hk_calls"] = calls["oracle.hk"]
    m["oracle.blossom_s"] = total["oracle.blossom"]
    m["oracle.blossom_calls"] = calls["oracle.blossom"]

    m["charging.grid_points"] = counts["charging.grid_points"]
    m["charging.grid_eval_s"] = total["charging.grid"]
    m["charging.bound_s"] = total["charging.bound"]
    m["charging.minimize_s"] = total["charging.minimize"]
    m["charging.psi_calls"] = counts["charging.psi_calls"]
    m["charging.check_properties_calls"] = calls["charging.check_properties"]
    m["charging.check_properties_s"] = total["charging.check_properties"]

    verify_s, chunked_s = under("dual.verify", {"_parallel"})
    m["dual.verify_s"] = verify_s
    m["dual.chunk_s"] = total["dual.chunk"]
    m["dual.reduce_s"] = verify_s - chunked_s
    # the wrappers' own counting (layer "trace") is not simulate's work either
    sim_s, sim_children = under("dual.simulate", {"engine", "charging", "trace"})
    m["dual.simulate_self_s"] = sim_s - sim_children
    m["dual.replay_s"] = total["engine.batch.replay"]
    m["dual.replay_calls"] = calls["engine.batch.replay"]
    for key in ("replay_rows", "candidate_rows", "victim_rows"):
        m[f"dual.{key}"] = counts[f"dual.{key}"]
    m["dual.replay_useful_ratio"] = _ratio(counts["dual.victim_rows"],
                                           counts["dual.replay_rows"])
    m["dual.candidate_over_replay"] = _ratio(counts["dual.candidate_rows"],
                                             counts["dual.replay_rows"])
    m["dual.marginal_rank_s"] = total["dual.marginal_rank"]
    m["dual.marginal_rank_calls"] = calls["dual.marginal_rank"]
    runs = sum(1 for s in spans
               if s[NAME] == "engine.scalar" and s[PARENT] >= 0
               and spans[s[PARENT]][NAME] == "dual.marginal_rank")
    m["dual.runs_per_marginal_rank"] = _ratio(runs, calls["dual.marginal_rank"])
    m["dual.assign_duals_s"] = total["dual.assign_duals"]
    m["dual.find_victim_calls"] = calls["dual.find_victim"]
    m["dual.exact_cover_s"] = total["dual.exact_cover"]
    for suffix, tasks in replay_tasks.items():
        replay = sum(d for s, d in zip(spans, dur)
                     if s[TASK] in tasks and s[NAME] == "engine.batch.replay")
        base = sum(d for s, d in zip(spans, dur)
                   if s[TASK] in tasks and s[NAME] == "engine.batch")
        m[f"dual.replay_over_base_{suffix}"] = _ratio(replay, base)

    m["hardness.gen_s"] = total["hardness.gen"]
    m["hardness.ratio_s"] = total["hardness.ratio"]
    m["hardness.opt_calls"] = calls["hardness.opt"]

    # metric names start with a letter, so fomlab._parallel's read parallel.*
    m["parallel.calls"] = calls["_parallel.run_chunked"]
    for key in ("chunks", "multi_chunk_calls", "args_bytes"):
        m[f"parallel.{key}"] = counts[f"_parallel.{key}"]
    m["parallel.run_chunked_s"] = total["_parallel.run_chunked"]

    for layer in ("instance", "engine", "oracle", "charging", "dual",
                  "hardness", "_parallel"):
        m[f"{layer.lstrip('_')}.self_s"] = self_s[layer]
    m["trace.bookkeeping_s"] = total["trace.bookkeeping"]
    m["trace.spans"] = len(spans)
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0

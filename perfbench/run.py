#!/usr/bin/env python3
"""fomlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload dual-mc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload ratio-mc --trace 1
    python3 perfbench/run.py --workload analysis --steady --runs 10
    python3 perfbench/run.py --smoke

Run it from the root of a fomlab checkout; it imports the package from
`src/`.  Workloads are listed in BENCHMARK.json and defined in workloads.py.
Seed 1 is the default; seed 2 is held out for re-checking a claimed gain on
a seed not used while making it.

--trace 0 sets the workload up, then runs passes over its tasks back to back
for --seconds (at least one pass) at the workload's worker count.  It prints
the end-to-end metrics: wall_s (median pass time), trials_per_s (Monte Carlo
rank draws per second of pass, median over passes; on analysis, the seeded
rank draws its marginal-rank and dual-assignment tasks analyse), peak_rss_mb
and setup_s (median of five set-ups, each in a fresh interpreter).

--trace 1 sets up and runs an untraced, a traced and another untraced pass,
all at workers=1, and prints the per-layer metrics listed in layers.py;
trace_overhead_s is the traced pass minus the faster untraced one.  On
dual-mc it adds a workers=2 pass for parallel.speedup_w2.  Spans are
written to .perfbench/trace-<workload>-seed<seed>.json.

--steady runs a workload in a fresh process once per seed (--seed,
--seed+1, ...) and prints the median, quartiles and extremes of every
end-to-end metric, with the spread against the bound in BENCHMARK.json.
--smoke runs every workload at tiny sizes, both modes, and checks that a
wrong expected value is counted as a failed task.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Tasks that fail their check or raise count
in `failed`; failed_frac = failed / attempted is printed above it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
if not (SRC / "fomlab" / "__init__.py").is_file():
    sys.exit(f"error: no fomlab package under {SRC}; run from a fomlab checkout")
sys.path.insert(0, str(SRC))

import layers  # noqa: E402  (needs fomlab on the path)
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = tuple(workloads.SETUP)
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
SETUP_REPEATS = 5
CLI_REPEATS = 3
END_TO_END = [
    ("wall_s", "s"),
    ("trials_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]
# Wrong expected values for --smoke: every workload must count them as failures.
WRONG_EXPECTED = {
    "layered_mean": 0.6671,
    "psi1_min": (0.6349, 0.127),
    "cover_target": {"exp": 0.9, "piecewise": 0.9},
}


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


# -- environment record ----------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def environment() -> dict:
    import networkx
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
    }


# -- running tasks -----------------------------------------------------------------


@dataclass
class Pass:
    wall: float = 0.0  # seconds inside the tasks, checks excluded
    draws: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    by_kind: Counter = field(default_factory=Counter)  # task name without index


def _kind(task_name: str) -> str:
    return re.sub(r"-\d+$", "", task_name)


def run_task(task, workers: int, into: Pass) -> None:
    """Run and check one task; an exception counts as a failed task."""
    into.attempted += 1
    t0 = perf_counter()
    try:
        result = task.run(workers)
        raised = False
    except Exception:
        traceback.print_exc()
        raised = True
    elapsed = perf_counter() - t0
    into.wall += elapsed
    into.by_kind[_kind(task.name)] += elapsed
    if raised:
        into.failures.append(f"{task.name}: raised")
        return
    into.draws += task.draws
    try:
        why = task.check(result)
    except Exception as exc:
        why = f"check raised {exc!r}"
    if why:
        into.failures.append(f"{task.name}: {why}")


def run_pass(wl, workers: int, tracer=None) -> Pass:
    out = Pass()
    for task in wl.tasks:
        if tracer is not None:
            tracer.task = task.name
        run_task(task, workers, out)
    return out


def prepare(name: str, seed: int, smoke: bool, expected=None, workers=None):
    """Generate the inputs (files under .perfbench/) and run one warm-up task."""
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        wl = workloads.setup(name, seed, Path(tmp), smoke, expected)
    run_task(wl.warmup, workers or wl.workers, Pass())
    return wl


def time_setups(name: str, seed: int, smoke: bool) -> list[float]:
    """Wall time of fresh interpreters that set the workload up and exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"] + (["--smoke"] if smoke else [])
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), timeout=170,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        times.append(perf_counter() - t0)
        if proc.returncode:
            raise RuntimeError(f"set-up of {name} failed:\n{proc.stderr}")
    return times


def time_command(args: list[str]) -> float:
    times = []
    for _ in range(CLI_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable] + args, cwd=ROOT, env=_child_env(), timeout=120,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def blossom_n2000(seed: int) -> float:
    """Blossom oracle time at n=2000, p=0.005: the ROADMAP's baseline row."""
    import numpy as np

    from fomlab import instance, oracle

    inst_seed = int(np.random.default_rng([seed, 4]).integers(0, 2**31 - 1))
    inst = instance.random_instance(2000, 0.005, False, inst_seed)
    t0 = perf_counter()
    oracle.max_matching_general(inst)
    return perf_counter() - t0


# -- the two kinds of run ------------------------------------------------------------


def measure(name, seed, seconds, smoke, expected=None):
    """Untraced run: returns (metrics, passes, extra Pass, set-up samples)."""
    setups = time_setups(name, seed, smoke)
    wl = prepare(name, seed, smoke, expected)
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(wl, wl.workers))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    extra = Pass()
    for task in wl.extra_checks:
        run_task(task, wl.workers, extra)
    metrics = {
        "wall_s": statistics.median(p.wall for p in passes),
        "trials_per_s": statistics.median(p.draws / p.wall for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
    }
    return metrics, passes, extra, setups


def traced(name, seed, smoke):
    """Traced run at workers=1: returns (metrics, passes, extra Pass)."""
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        wl = prepare(name, seed, smoke, workers=1)
    # untraced passes on both sides of the traced one, so that a slow first
    # pass does not read as negative tracing overhead
    before = run_pass(wl, 1)
    with tracing.installed(tracer):
        spanned = run_pass(wl, 1, tracer)
    after = run_pass(wl, 1)
    plain_wall = min(before.wall, after.wall)
    replay_tasks = {}
    for task in wl.tasks:
        if task.name.startswith("general-n"):
            replay_tasks.setdefault(_kind(task.name).split("-")[1], set()).add(task.name)
    m = tracing.layer_metrics(tracer, replay_tasks)
    m["trace.wall_s"] = spanned.wall
    m["trace_overhead_s"] = spanned.wall - plain_wall
    passes = [before, spanned, after]
    m["parallel.speedup_w2"] = 0.0
    if name == "dual-mc":
        two = run_pass(wl, 2)
        passes.append(two)
        m["parallel.speedup_w2"] = plain_wall / two.wall
    m["oracle.blossom_s_n2000"] = 0.0
    if name == "ratio-mc" and not smoke:
        m["oracle.blossom_s_n2000"] = blossom_n2000(seed)
    m["cli.import_s"] = time_command(["-c", "import fomlab"])
    m["cli.startup_s"] = time_command(["-m", "fomlab.cli", "hardness", "omega"])
    extra = Pass()
    for task in wl.extra_checks:
        run_task(task, wl.workers, extra)
    tracer.dump(WORK / f"trace-{name}-seed{seed}.json")
    metrics = {metric: float(m.get(metric, 0.0)) for metric, *_ in layers.LAYER_METRICS}
    return metrics, passes, extra


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
                 expected=None) -> dict:
    if trace:
        metrics, passes, extra = traced(name, seed, smoke)
        units = {metric: unit for metric, unit, *_ in layers.LAYER_METRICS}
        setups = []
    else:
        metrics, passes, extra, setups = measure(name, seed, seconds, smoke, expected)
        units = dict(END_TO_END)
    attempted = sum(p.attempted for p in passes) + extra.attempted
    failures = [f for p in passes + [extra] for f in p.failures]
    info = {
        "workload": name,
        "seed": seed,
        "workers": 1 if trace else workloads.WORKERS[name],
        "trace": int(trace),
        "seconds": seconds,
        "pass_wall_s": [p.wall for p in passes],
        "task_wall_s": {kind: statistics.median(p.by_kind[kind] for p in passes)
                        for kind in passes[0].by_kind},
        "setup_samples_s": setups,
        "failed_tasks": failures,
        "failed_frac": len(failures) / attempted,
        "environment": environment(),
    }
    return {
        "info": info,
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def print_run(out: dict) -> None:
    info, result = out["info"], out["result"]
    print(f"workload {info['workload']}  seed {info['seed']}  workers {info['workers']}  "
          f"passes {len(info['pass_wall_s'])}")
    for failure in info["failed_tasks"]:
        print(f"FAILED {failure}")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_frac':34s} {info['failed_frac']:.6g} "
          f"({result['failed']}/{result['attempted']} tasks)")
    if info["trace"]:
        print("ROADMAP baseline ratios (this run / ROADMAP):")
        for name, roadmap in layers.BASELINE:
            print(f"  {name:34s} {result['metrics'][name]['value']:.4g}  ({roadmap})")
    print(json.dumps({"info": info}))
    print(json.dumps(result), flush=True)


# -- steadiness and smoke modes ----------------------------------------------------


def tail(samples: list[float]) -> tuple[int | None, float | None]:
    """Highest whole percentile with at least ten samples above it (nearest rank)."""
    n = len(samples)
    if n <= 10:
        return None, None
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return pct, sorted(samples)[rank - 1]


def steady(name: str, first_seed: int, runs: int, seconds: float) -> int:
    with open(ROOT / "BENCHMARK.json") as fp:
        bounds = {m["name"]: m["bound"] for m in json.load(fp)["end_to_end"]}
    values = {metric: [] for metric, _ in END_TO_END}
    passes = []
    for seed in range(first_seed, first_seed + runs):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or len(lines) < 2:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        info = json.loads(lines[-2])["info"]
        passes += info["pass_wall_s"]
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
              + " passes=" + ",".join(f"{w:.3f}" for w in info["pass_wall_s"])
              + " tasks=" + ",".join(f"{k}:{v:.3f}" for k, v in info["task_wall_s"].items()),
              flush=True)
        for metric in values:
            values[metric].append(result["metrics"][metric]["value"])
    summary = {}
    for metric, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / statistics.median(vals)
        summary[metric] = {
            "median": statistics.median(vals), "q1": q1, "q3": q3,
            "min": min(vals), "max": max(vals), "spread": spread,
            "bound": bounds[metric], "spread_over_bound": spread / bounds[metric],
        }
        print(f"{metric:14s} median {summary[metric]['median']:.5g}  q1 {q1:.5g}  "
              f"q3 {q3:.5g}  min {min(vals):.5g}  max {max(vals):.5g}  "
              f"spread {spread:.2%} (bound {bounds[metric]:.0%})")
    pct, value = tail(passes)
    summary["wall_s_passes"] = {"samples": len(passes),
                                "median": statistics.median(passes),
                                "tail_percentile": pct, "tail_value": value}
    print(f"wall_s over {len(passes)} passes: median {statistics.median(passes):.5g}"
          + (f", p{pct} {value:.5g}" if pct is not None else ", too few for a tail"))
    print(json.dumps({"workload": name, "runs": runs, "first_seed": first_seed,
                      "seconds": seconds, "summary": summary}))
    return 0


def smoke() -> int:
    """Tiny-size check of the benchmark itself; exit 0 when it holds."""
    problems = []
    with open(ROOT / "BENCHMARK.json") as fp:
        bench = json.load(fp)
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    if listed != [tuple(row[:3]) for row in layers.LAYER_METRICS]:
        problems.append("BENCHMARK.json per_layer differs from layers.py")
    if [(m["name"], m["unit"]) for m in bench["end_to_end"]] != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    for name in WORKLOADS:
        for trace in (False, True):
            out = run_workload(name, DEFAULT_SEED, 1, trace, smoke=True)
            result = out["result"]
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: {out['info']['failed_tasks']}")
            bad = [k for k, v in result["metrics"].items() if not math.isfinite(v["value"])]
            if bad:
                problems.append(f"{name} trace={trace}: non-finite {bad}")
        wrong = run_workload(name, DEFAULT_SEED, 1, False, smoke=True,
                             expected=dict(workloads.EXPECTED, **WRONG_EXPECTED))
        if wrong["result"]["failed"] == 0:
            problems.append(f"{name}: wrong expected values were not counted as failures")
        print(f"{name}: ok run, traced run and wrong-expected run "
              f"({wrong['result']['failed']} failed of {wrong['result']['attempted']})",
              flush=True)
    for problem in problems:
        print(f"PROBLEM {problem}")
    print(json.dumps({"smoke": "ok" if not problems else "failed",
                      "problems": len(problems)}))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", action="store_true",
                        help="repeat the workload over --runs seeds and summarise")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; alone, checks the benchmark itself")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.smoke and args.workload is None:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        prepare(args.workload, args.seed, args.smoke)
        return 0
    if args.steady:
        return steady(args.workload, args.seed, args.runs, args.seconds)
    print_run(run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                           args.smoke))
    return 0


if __name__ == "__main__":
    sys.exit(main())

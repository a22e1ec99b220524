"""Experiment harness: generate instances, run algorithms, verify bounds.

Exit codes: 0 success, 1 verification failure (a failing dual edge, a
charging property violation or a broken paper invariant), 2 usage or I/O
error.  Reports go to stdout or --out, as JSON or CSV, with floats at 12
significant digits.  All subcommands are deterministic per seed and
independent of the worker count (override with FOMLAB_THREADS or
--workers).
"""

from __future__ import annotations

import csv
import json
import sys

import click

from . import charging as charging_mod
from . import hardness as hardness_mod
from ._parallel import resolve_workers
from .dual import verify_feasibility
from .engine import ranking_trace, ranks_from_values, run_ranking, sample_ranks
from .errors import FomlabError, InvariantViolated
from .instance import load_instance, random_instance, random_one_sided, save_instance
from .oracle import max_matching_general

EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_report(report: dict, fmt: str, out) -> None:
    """Serialize a report with stable field order and 12-significant-digit
    floats.  CSV uses the report's row list when present (key "edges"),
    otherwise a single flattened row."""
    if fmt == "json":
        out.write(json.dumps(_round_floats(report), indent=2))
        out.write("\n")
        return
    writer = csv.writer(out, lineterminator="\n")
    rows = report.get("edges")
    if rows is not None:
        header = ["u", "v", "mean", "stderr", "trials"]
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(row[k]) for k in header])
    else:
        flat = {
            k: v
            for k, v in report.items()
            if not isinstance(v, (dict, list, tuple))
        }
        writer.writerow(list(flat))
        writer.writerow([_csv_cell(v) for v in flat.values()])


def _write_out(out_path, write) -> None:
    """Call write(stream) on stdout, or on the file out_path."""
    if out_path is None:
        write(sys.stdout)
        return
    try:
        with open(out_path, "w") as fp:
            write(fp)
    except OSError as exc:
        raise _fail_usage(f"cannot write {out_path}: {exc}") from exc


def _emit(report: dict, fmt: str, out_path) -> None:
    _write_out(out_path, lambda fp: write_report(report, fmt, fp))


def _load(path):
    try:
        with open(path) as fp:
            return load_instance(fp)
    except OSError as exc:
        raise _fail_usage(f"cannot read instance {path}: {exc}") from exc
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise _fail_usage(f"malformed instance {path}: {exc}") from exc


def _fail_usage(message: str) -> "click.ClickException":
    exc = click.ClickException(message)
    exc.exit_code = EXIT_USAGE
    return exc


@click.group()
def main() -> None:
    """Fully online matching laboratory."""


_format_opt = click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "csv"]),
    default="json",
    show_default=True,
)
_out_opt = click.option("--out", type=click.Path(dir_okay=False), default=None)
_workers_opt = click.option("--workers", type=int, default=None)
_seed_opt = click.option(
    "--seed", type=click.IntRange(min=0), default=0, show_default=True
)
_CHARGING_KINDS = [kind.value for kind in charging_mod.ChargingKind]


@main.command()
@click.argument(
    "family",
    type=click.Choice(["random", "one-sided", "adversary-tree", "ranking-hard"]),
)
@click.option("--n", type=int, default=8, show_default=True)
@click.option(
    "--p", type=click.FloatRange(0.0, 1.0), default=0.5, show_default=True
)
@click.option("--k", type=int, default=2, show_default=True)
@click.option("--h", type=int, default=2, show_default=True)
@_seed_opt
@click.option("--bipartite/--general", default=False, show_default=True)
@_out_opt
def generate(family, n, p, k, h, seed, bipartite, out):
    """Write an instance of the chosen family as JSON."""
    if family == "random":
        inst = random_instance(n, p, bipartite, seed)
    elif family == "one-sided":
        inst = random_one_sided(n, p, seed)
    elif family == "adversary-tree":
        inst = hardness_mod.gen_adversary_tree(
            hardness_mod.AdversaryTreeParams(k=k, h=h, seed=seed)
        )
    else:
        inst = hardness_mod.gen_ranking_hard(hardness_mod.LayeredParams(k=k, h=h))
    _write_out(out, lambda fp: save_instance(inst, fp))


@main.command()
@click.option("--instance", "instance_path", required=True, type=str)
@click.option(
    "--alg",
    type=click.Choice(["ranking", "greedy"]),
    default="ranking",
    show_default=True,
)
@_seed_opt
@click.option("--trace", is_flag=True, default=False)
@_format_opt
@_out_opt
def run(instance_path, alg, seed, trace, fmt, out):
    """Run one algorithm execution and report the matching."""
    inst = _load(instance_path)
    if alg == "ranking":
        ranks = sample_ranks(inst, seed)
    else:  # Greedy is Ranking on the arrival positions, as in `run_greedy`
        ranks = ranks_from_values(inst.arrival_pos)
    outcome = run_ranking(inst, ranks)
    report = {
        "algorithm": alg,
        "seed": seed,
        "n": inst.n,
        "size": outcome.size,
        "pairs": sorted([u, v] for u, v in outcome.pairs),
        "unmatched": sorted(outcome.unmatched),
    }
    if trace:
        report["trace"] = list(ranking_trace(inst, ranks, outcome))
    _emit(report, fmt, out)


@main.command()
@click.option("--instance", "instance_path", default=None, type=str)
@click.option(
    "--family",
    type=click.Choice(["adversary-tree", "ranking-hard"]),
    default=None,
)
@click.option("--k", type=int, default=2, show_default=True)
@click.option("--h", type=int, default=2, show_default=True)
@click.option(
    "--alg",
    type=click.Choice(["ranking", "greedy"]),
    default="ranking",
    show_default=True,
)
@click.option(
    "--trials", type=click.IntRange(min=1), default=100, show_default=True
)
@_seed_opt
@_workers_opt
@_format_opt
@_out_opt
def ratio(instance_path, family, k, h, alg, trials, seed, workers, fmt, out):
    """Monte Carlo competitive-ratio estimate against the offline optimum."""
    if (instance_path is None) == (family is None):
        raise _fail_usage("provide exactly one of --instance or --family")
    workers = resolve_workers(workers)
    if instance_path is not None:
        source = _load(instance_path)
        desc = {"instance": instance_path}
    elif family == "ranking-hard":
        source = hardness_mod.gen_ranking_hard(
            hardness_mod.LayeredParams(k=k, h=h)
        )
        desc = {"family": family, "k": k, "h": h}
    else:
        source = hardness_mod.adversary_tree_source(k, h, seed)
        desc = {"family": family, "k": k, "h": h}
    mean, stderr = hardness_mod.empirical_ratio(
        source, alg, trials, seed, workers=workers
    )
    report = dict(desc)
    report.update(
        {
            "algorithm": alg,
            "trials": trials,
            "seed": seed,
            "mean": mean,
            "stderr": stderr,
        }
    )
    _emit(report, fmt, out)


@main.command("verify-duals")
@click.option("--instance", "instance_path", required=True, type=str)
@click.option(
    "--charging",
    "charging_name",
    type=click.Choice(_CHARGING_KINDS),
    default="exp",
    show_default=True,
)
@click.option("--target", type=float, required=True)
@click.option(
    "--trials", type=click.IntRange(min=1), default=10000, show_default=True
)
@_seed_opt
@_workers_opt
@_format_opt
@_out_opt
def verify_duals(
    instance_path, charging_name, target, trials, seed, workers, fmt, out
):
    """Monte Carlo dual-feasibility check; exit 1 when an edge fails."""
    workers = resolve_workers(workers)
    inst = _load(instance_path)
    ch = charging_mod.by_name(charging_name)
    report = verify_feasibility(inst, ch, target, trials, seed, workers=workers)
    _emit(report.as_dict(), fmt, out)
    if not report.passed:
        sys.exit(EXIT_VERIFICATION_FAILED)


@main.command("check-charging")
@click.option(
    "--kind",
    type=click.Choice(_CHARGING_KINDS),
    default="piecewise",
    show_default=True,
)
@click.option("--grid", type=float, default=1e-3, show_default=True)
@_format_opt
@_out_opt
def check_charging(kind, grid, fmt, out):
    """Check charging-function properties and compute the ratio bound."""
    ch = charging_mod.by_name(kind)
    bgrid = charging_mod.BoundGrid(step=grid)
    props = charging_mod.check_properties(ch, bgrid)
    report = {
        "kind": kind,
        "grid": grid,
        "properties": props.as_dict(),
    }
    if props.passed:
        if ch.kind is charging_mod.ChargingKind.PIECEWISE_GENERAL:
            report["ratio"] = charging_mod.ratio_general(ch, bgrid)
            report["model"] = "general"
        else:
            report["ratio"] = charging_mod.ratio_bipartite(ch, bgrid)
            report["model"] = "bipartite"
    _emit(report, fmt, out)
    if not props.passed:
        sys.exit(EXIT_VERIFICATION_FAILED)


@main.command()
@click.argument("mode", type=click.Choice(["adversary", "layered", "omega"]))
@click.option("--k", type=int, default=7, show_default=True)
@click.option("--h", type=int, default=8, show_default=True)
@_format_opt
@_out_opt
def hardness(mode, k, h, fmt, out):
    """Analytic hardness predictions."""
    if mode == "omega":
        report = {"omega": hardness_mod.omega_fixed_point()}
    elif mode == "adversary":
        report = hardness_mod.adversary_ratio(k, h).as_dict()
    else:
        fluid = hardness_mod.fluid_recurrence(k, h)
        report = {
            "k": k,
            "h": h,
            "fluid_limit": fluid.fractions[-1],
            "omega": fluid.limit,
        }
    _emit(report, fmt, out)


@main.command()
@click.option("--instance", "instance_path", required=True, type=str)
@_format_opt
@_out_opt
def opt(instance_path, fmt, out):
    """Offline maximum-matching size (oracle)."""
    res = max_matching_general(_load(instance_path))
    report = {
        "oracle": "blossom",
        "size": res.size,
        "witness": sorted([u, v] for u, v in res.witness),
    }
    _emit(report, fmt, out)


def entrypoint() -> None:
    try:
        main(standalone_mode=True)
    except InvariantViolated as exc:
        click.echo(f"error: invariant violated: {exc}", err=True)
        sys.exit(EXIT_VERIFICATION_FAILED)
    except FomlabError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_USAGE)


if __name__ == "__main__":
    entrypoint()

import io
import json
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fomlab.engine import ranks_from_values, run_ranking
from fomlab.instance import load_instance

CLI = [sys.executable, "-m", "fomlab.cli"]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def run_cli(*args, env_extra=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env
    )


@pytest.fixture(scope="module")
def instance_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("inst") / "inst.json"
    res = run_cli(
        "generate", "random", "--n", "8", "--p", "0.5", "--seed", "4",
        "--bipartite", "--out", str(path),
    )
    assert res.returncode == 0, res.stderr
    return path


def test_generate_families(tmp_path):
    for args in (
        ["random", "--n", "6", "--p", "0.7", "--seed", "1"],
        ["one-sided", "--n", "4", "--p", "0.5", "--seed", "2"],
        ["adversary-tree", "--k", "2", "--h", "2", "--seed", "3"],
        ["ranking-hard", "--k", "2", "--h", "3"],
    ):
        res = run_cli("generate", *args)
        assert res.returncode == 0, res.stderr
        data = json.loads(res.stdout)
        assert set(data) == {"n", "events", "edges", "bipartition"}


def test_generate_bad_params():
    res = run_cli("generate", "adversary-tree", "--k", "0", "--h", "2")
    assert res.returncode == 2
    assert "error" in res.stderr.lower()


@pytest.mark.parametrize("p", ["1.5", "-0.1"])
def test_generate_edge_probability_out_of_range_exits_2(p):
    res = run_cli("generate", "random", "--n", "4", "--p", p)
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr


def test_run_ranking_and_greedy(instance_file):
    res = run_cli("run", "--instance", str(instance_file), "--seed", "7", "--trace")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["algorithm"] == "ranking"
    assert len(data["trace"]) == data["n"]
    res2 = run_cli("run", "--instance", str(instance_file), "--alg", "greedy")
    assert res2.returncode == 0
    assert json.loads(res2.stdout)["algorithm"] == "greedy"
    assert "trace" not in json.loads(res2.stdout)
    # greedy reports carry the trace too: Ranking's on the arrival positions
    res3 = run_cli("run", "--instance", str(instance_file), "--alg", "greedy", "--trace")
    assert res3.returncode == 0, res3.stderr
    trace = json.loads(res3.stdout)["trace"]
    with open(instance_file) as fp:
        inst = load_instance(fp)
    ranks = ranks_from_values(inst.arrival_pos)
    assert trace == list(run_ranking(inst, ranks, with_trace=True).trace)
    assert len(trace) == inst.n


def test_run_missing_instance_exits_2():
    res = run_cli("run", "--instance", "missing.json")
    assert res.returncode == 2


def test_unknown_subcommand_exits_2():
    assert run_cli("frobnicate").returncode == 2


def test_ratio_requires_exactly_one_source(instance_file):
    assert run_cli("ratio", "--trials", "5").returncode == 2
    res = run_cli(
        "ratio", "--instance", str(instance_file),
        "--family", "ranking-hard", "--trials", "5",
    )
    assert res.returncode == 2


def test_ratio_on_instance(instance_file):
    res = run_cli(
        "ratio", "--instance", str(instance_file), "--trials", "200", "--seed", "1"
    )
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert 0.5 <= data["mean"] <= 1.0
    assert data["trials"] == 200


def test_ratio_on_family():
    res = run_cli(
        "ratio", "--family", "ranking-hard", "--k", "5", "--h", "4",
        "--trials", "100", "--seed", "2",
    )
    assert res.returncode == 0
    assert 0.5 <= json.loads(res.stdout)["mean"] <= 1.0


def test_verify_duals_pass(instance_file):
    res = run_cli(
        "verify-duals", "--instance", str(instance_file), "--charging", "exp",
        "--target", "0.5541", "--trials", "5000", "--seed", "3",
    )
    assert res.returncode == 0, res.stdout
    data = json.loads(res.stdout)
    assert data["summary"]["pass"] is True
    assert data["summary"]["cond1_violations"] == 0


def test_verify_duals_failure_exit_code(instance_file):
    res = run_cli(
        "verify-duals", "--instance", str(instance_file), "--charging", "exp",
        "--target", "0.999", "--trials", "2000", "--seed", "3",
    )
    assert res.returncode == 1
    assert json.loads(res.stdout)["summary"]["pass"] is False


def test_verify_duals_csv_columns(instance_file):
    res = run_cli(
        "verify-duals", "--instance", str(instance_file), "--charging", "piecewise",
        "--target", "0.5211", "--trials", "2000", "--seed", "5",
        "--format", "csv",
    )
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "u,v,mean,stderr,trials"
    assert len(lines) > 1


def test_verify_duals_empty_edges_header_only(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({
        "n": 2,
        "events": [
            {"kind": "arrival", "v": 0}, {"kind": "arrival", "v": 1},
            {"kind": "deadline", "v": 0}, {"kind": "deadline", "v": 1},
        ],
        "edges": [],
        "bipartition": None,
    }))
    res = run_cli(
        "verify-duals", "--instance", str(path), "--charging", "exp",
        "--target", "0.5", "--trials", "100", "--seed", "0", "--format", "csv",
    )
    assert res.returncode == 0
    assert res.stdout.strip() == "u,v,mean,stderr,trials"


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_nonpositive_trials_exit_2(instance_file, trials):
    for args in (
        ["verify-duals", "--instance", str(instance_file), "--target", "0.5"],
        ["ratio", "--instance", str(instance_file)],
    ):
        res = run_cli(*args, "--trials", trials)
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr


def _instance_json(**overrides):
    data = {
        "n": 2,
        "events": [
            {"kind": "arrival", "v": 0}, {"kind": "arrival", "v": 1},
            {"kind": "deadline", "v": 0}, {"kind": "deadline", "v": 1},
        ],
        "edges": [[0, 1]],
        "bipartition": None,
    }
    data.update(overrides)
    return json.dumps(data)


def test_malformed_event_kind_exits_2(tmp_path):
    path = tmp_path / "bad_kind.json"
    path.write_text(_instance_json(events=[
        {"kind": "arrival", "v": 0}, {"kind": "arrival", "v": 1},
        {"kind": "leave", "v": 0}, {"kind": "deadline", "v": 1},
    ]))
    res = run_cli("run", "--instance", str(path))
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "malformed instance" in res.stderr


def test_three_element_edge_exits_2(tmp_path):
    path = tmp_path / "bad_edge.json"
    path.write_text(_instance_json(edges=[[0, 1, 2]]))
    res = run_cli("opt", "--instance", str(path))
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "malformed instance" in res.stderr


def _events_arriving(v):
    """The two-vertex event stream with `v` as the second arrival's id."""
    return [
        {"kind": "arrival", "v": 0}, {"kind": "arrival", "v": v},
        {"kind": "deadline", "v": 0}, {"kind": "deadline", "v": 1},
    ]


@pytest.mark.parametrize(
    "overrides",
    [
        {"edges": [[0.5, 1]]},
        {"edges": [[0, 1.0]]},
        {"edges": [["0", "1"]]},
        {"edges": [[True, 1]]},
        {"n": 2.0},
        {"n": "2"},
        {"events": _events_arriving(1.0)},
        {"events": _events_arriving(True)},
        {"events": _events_arriving("1")},
        {"bipartition": [0, 1.0]},
        {"bipartition": [False, True]},
    ],
)
def test_non_integer_ids_exit_2(tmp_path, overrides):
    path = tmp_path / "ids.json"
    path.write_text(_instance_json(**overrides))
    code, out, err = _in_process(
        ["ratio", "--instance", str(path), "--trials", "5", "--workers", "1"]
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "must be an integer" in err, err


@pytest.mark.parametrize("big", [99999999999999999999999, -(2**63) - 1, 2**63])
def test_vertex_ids_beyond_int64_exit_2(tmp_path, big):
    from fomlab.errors import IndexOutOfRange
    from fomlab.instance import load_instance

    path = tmp_path / "big.json"
    path.write_text(_instance_json(edges=[[0, big]]))
    with open(path) as fp, pytest.raises(IndexOutOfRange):
        load_instance(fp)
    code, out, err = _in_process(
        ["ratio", "--instance", str(path), "--trials", "5", "--workers", "1"]
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_check_charging_piecewise():
    res = run_cli("check-charging", "--kind", "piecewise", "--grid", "1e-3")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["properties"]["passed"] is True
    assert data["ratio"] > 0.5211


def test_check_charging_exponential():
    res = run_cli("check-charging", "--kind", "exp", "--grid", "1e-3")
    data = json.loads(res.stdout)
    assert 0.5540 <= data["ratio"] <= 0.5545


def test_check_charging_bad_grid():
    # 0.7 and 0.3 do not divide [0, 1] into whole steps
    for grid in ("0", "nan", "inf", "2", "0.7", "0.3"):
        res = run_cli("check-charging", "--grid", grid)
        assert res.returncode == 2, (grid, res.stdout)
        assert "Traceback" not in res.stderr
        assert res.stdout == ""
    res = run_cli("check-charging", "--grid", "0.7")
    assert "valid steps near it: 1.0, 0.5" in res.stderr


def _cap_address_space():
    # keep a 4 GB cap on the child in case a bound ever builds whole matrices
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


def test_check_charging_tiny_grid_exits_2():
    # a 1e-5 step would need 100,001-point axes; the bounds take O(points^2)
    # time (about 0.5 s at 2e-4), so without the grid check it runs for minutes
    start = time.perf_counter()
    try:
        res = subprocess.run(
            CLI + ["check-charging", "--grid", "1e-5"],
            capture_output=True, text=True, preexec_fn=_cap_address_space,
            timeout=60,
        )
    except subprocess.TimeoutExpired:
        pytest.fail("check-charging --grid 1e-5 ran past 60 s")
    assert time.perf_counter() - start < 30
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "points" in res.stderr
    assert res.stdout == ""


def test_verify_duals_without_edges_prints_null(tmp_path):
    path = tmp_path / "empty.json"
    res = run_cli("generate", "random", "--n", "2", "--p", "0", "--out", str(path))
    assert res.returncode == 0, res.stderr
    res = run_cli(
        "verify-duals", "--instance", str(path), "--target", "0.5", "--trials", "10"
    )
    assert res.returncode == 0, res.stderr
    data = json.loads(res.stdout, parse_constant=_reject_constant)
    assert data["summary"]["min_mean"] is None
    assert data["summary"]["pass"] is True


@pytest.mark.parametrize("target", ["nan", "-inf", "inf"])
def test_verify_duals_nonfinite_target_exits_2(instance_file, target):
    res = run_cli(
        "verify-duals", "--instance", str(instance_file), "--target", target,
        "--trials", "100",
    )
    assert res.returncode == 2, res.stdout
    assert "Traceback" not in res.stderr
    assert "target" in res.stderr


def test_negative_seed_exits_2(instance_file):
    for args in (
        ["generate", "random"],
        ["run", "--instance", str(instance_file)],
        ["ratio", "--family", "adversary-tree", "--trials", "2"],
        ["verify-duals", "--instance", str(instance_file), "--target", "0.5"],
    ):
        res = run_cli(*args, "--seed", "-1")
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr


def _every_command_with_out(instance_file):
    return [
        ["generate", "random", "--n", "4"],
        ["generate", "adversary-tree", "--k", "2", "--h", "2"],
        ["run", "--instance", str(instance_file)],
        ["ratio", "--instance", str(instance_file), "--trials", "2", "--workers", "1"],
        ["verify-duals", "--instance", str(instance_file), "--target", "0.5",
         "--trials", "10", "--workers", "1"],
        ["check-charging", "--grid", "0.1"],
        ["hardness", "omega"],
        ["opt", "--instance", str(instance_file)],
    ]


def test_unwritable_out_exits_2(instance_file, tmp_path):
    missing = tmp_path / "missing" / "report.json"
    for args in _every_command_with_out(instance_file):
        code, stdout, stderr = _in_process([*args, "--out", str(missing)])
        assert code == 2, (args, stderr)
        assert "cannot write" in stderr, (args, stderr)
        assert stdout == ""
        # a folder is refused by the option itself
        code, stdout, stderr = _in_process([*args, "--out", str(tmp_path)])
        assert code == 2, (args, stderr)
        assert stdout == ""
    assert not missing.parent.exists()


def test_out_writes_the_report(instance_file, tmp_path):
    for i, args in enumerate(_every_command_with_out(instance_file)):
        code, stdout, _ = _in_process(args)
        out = tmp_path / f"report-{i}.json"
        assert _in_process([*args, "--out", str(out)]) == (code, "", "")
        assert out.read_text() == stdout


@pytest.mark.parametrize("value", ["abc", "99999999999", "1.5", "4097"])
def test_bad_worker_count_exits_2(instance_file, value):
    for args in (
        ["verify-duals", "--instance", str(instance_file), "--target", "0.5",
         "--trials", "10"],
        ["ratio", "--family", "adversary-tree", "--trials", "2"],
    ):
        res = run_cli(*args, env_extra={"FOMLAB_THREADS": value})
        assert res.returncode == 2, (args, res.stderr)
        assert "Traceback" not in res.stderr
        assert "worker count" in res.stderr
        assert res.stdout == ""
    res = run_cli(
        "verify-duals", "--instance", str(instance_file), "--target", "0.5",
        "--trials", "10", "--workers", "99999999999",
    )
    assert res.returncode == 2 and "Traceback" not in res.stderr


def test_trials_above_the_budget_exit_2(instance_file):
    from fomlab._parallel import MAX_TRIALS

    over = str(MAX_TRIALS + 1)
    for args in (
        ["verify-duals", "--instance", str(instance_file), "--target", "0.5"],
        ["ratio", "--instance", str(instance_file)],
        ["ratio", "--family", "adversary-tree"],
    ):
        for trials in (over, "1000000000000000"):
            res = run_cli(*args, "--trials", trials)
            assert res.returncode == 2, (args, res.stderr)
            assert "Traceback" not in res.stderr
            assert "budget" in res.stderr
            assert res.stdout == ""


@pytest.mark.parametrize("family", ["adversary-tree", "ranking-hard"])
def test_generator_above_edge_budget_exits_2(family):
    start = time.perf_counter()
    res = run_cli("generate", family, "--k", "1000", "--h", "1000")
    assert time.perf_counter() - start < 10
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    assert "budget" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ["hardness", "adversary", "--k", "7", "--h", "30"],
        ["hardness", "layered", "--k", "2", "--h", "100000000"],
        ["generate", "random", "--n", "300000", "--p", "0.0001"],
        ["generate", "one-sided", "--n", "30000"],
    ],
)
def test_analysis_and_random_generators_above_budget_exit_2(args):
    start = time.perf_counter()
    res = run_cli(*args)
    assert time.perf_counter() - start < 10
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


def _in_process(argv):
    """Run the CLI entry point in this process: (exit code, stdout, stderr)."""
    from fomlab import cli

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "argv", ["fomlab", *argv]):
        with redirect_stdout(out), redirect_stderr(err):
            try:
                cli.entrypoint()
                code = 0
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
    return code, out.getvalue(), err.getvalue()


def test_adversary_tree_seeds_build_different_trees():
    from fomlab import hardness

    built = []
    original = hardness.gen_adversary_tree

    def recording(params):
        built.append(params.seed)
        return original(params)

    trees = {}
    with mock.patch.object(hardness, "gen_adversary_tree", recording):
        for seed in ("0", "1"):
            built.clear()
            code, out, err = _in_process(
                ["ratio", "--family", "adversary-tree", "--k", "2", "--h", "2",
                 "--trials", "5", "--seed", seed, "--workers", "1"]
            )
            assert code == 0, err
            trees[seed] = list(built)
    assert len(set(trees["0"])) == 5
    assert not set(trees["0"]) & set(trees["1"])
    first = [
        original(hardness.AdversaryTreeParams(k=2, h=2, seed=s))
        for s in (trees["0"][0], trees["1"][0])
    ]
    assert (first[0].events, first[0].edges) != (first[1].events, first[1].edges)


def test_check_charging_model_follows_the_kind():
    # the general bound for the piecewise kind only, the bipartite bound for
    # the others; both commands offer every kind, in the enum's order
    from fomlab import charging

    grid = charging.BoundGrid(1e-2)
    for kind in charging.ChargingKind:
        code, out, err = _in_process(
            ["check-charging", "--kind", kind.value, "--grid", "1e-2"]
        )
        assert code == 0, err
        data = json.loads(out)
        general = kind is charging.ChargingKind.PIECEWISE_GENERAL
        bound = charging.ratio_general if general else charging.ratio_bipartite
        assert data["model"] == ("general" if general else "bipartite")
        assert data["ratio"] == float(f"{bound(charging.by_name(kind.value), grid):.12g}")
    for command, option in (("verify-duals", "--charging"), ("check-charging", "--kind")):
        code, out, _ = _in_process([command, "--help"])
        assert code == 0 and f"{option} [exp|piecewise|capped]" in out


def test_hardness_omega():
    res = run_cli("hardness", "omega")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["omega"] == pytest.approx(0.567143290409784, abs=1e-11)


def test_hardness_adversary():
    res = run_cli("hardness", "adversary", "--k", "7", "--h", "8")
    data = json.loads(res.stdout)
    assert list(data) == ["k", "h", "p_h", "t", "ratio_finite", "ratio_asymptotic"]
    assert data["ratio_asymptotic"] == pytest.approx(0.631745, abs=1e-6)


def test_hardness_layered():
    res = run_cli("hardness", "layered", "--k", "10", "--h", "80")
    data = json.loads(res.stdout)
    assert data["fluid_limit"] == pytest.approx(data["omega"], abs=1e-9)


def test_opt_subcommand(instance_file):
    res = run_cli("opt", "--instance", str(instance_file))
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["oracle"] == "blossom"
    assert data["size"] >= 0


def test_opt_general_instance_is_blossom_and_exact(tmp_path):
    from fomlab.instance import random_instance, save_instance
    from fomlab.oracle import max_matching_bruteforce

    inst = random_instance(9, 0.5, False, 3)
    assert 0 < inst.m <= 24
    path = tmp_path / "general.json"
    with open(path, "w") as fp:
        save_instance(inst, fp)
    res = run_cli("opt", "--instance", str(path))
    assert res.returncode == 0, res.stderr
    data = json.loads(res.stdout)
    assert data["oracle"] == "blossom"
    assert data["size"] == max_matching_bruteforce(inst).size
    assert len(data["witness"]) == data["size"]
    endpoints = [v for edge in data["witness"] for v in edge]
    assert len(set(endpoints)) == len(endpoints)
    assert all(tuple(edge) in inst.edges for edge in data["witness"])


def test_invariant_violation_exits_1(tmp_path, monkeypatch, capsys):
    from fomlab import cli
    from fomlab.errors import InvariantViolated
    from fomlab.instance import random_instance, save_instance

    path = tmp_path / "general.json"
    with open(path, "w") as fp:
        save_instance(random_instance(6, 0.5, False, 0), fp)

    def broken_oracle(instance):
        raise InvariantViolated("witness is not a matching")

    monkeypatch.setattr(cli, "max_matching_general", broken_oracle)
    monkeypatch.setattr(sys, "argv", ["fomlab", "opt", "--instance", str(path)])
    with pytest.raises(SystemExit) as exc:
        cli.entrypoint()
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err == "error: invariant violated: witness is not a matching\n"


def test_json_floats_round_trip_at_12_digits():
    res = run_cli("hardness", "adversary", "--k", "7", "--h", "8")
    data = json.loads(res.stdout)
    # re-serializing the parsed floats must not lose precision
    assert json.loads(json.dumps(data)) == data


@pytest.mark.parametrize(
    "args",
    [
        ["generate", "random", "--n", "10", "--p", "0.5", "--seed", "9"],
        ["hardness", "adversary", "--k", "5", "--h", "4"],
        ["check-charging", "--kind", "exp", "--grid", "1e-2"],
        ["ratio", "--family", "ranking-hard", "--k", "4", "--h", "4",
         "--trials", "50", "--seed", "6"],
    ],
)
def test_byte_identical_across_runs_and_workers(args, instance_file):
    outs = set()
    for env in ({"FOMLAB_THREADS": "1"}, {"FOMLAB_THREADS": "2"}, None):
        res = run_cli(*args, env_extra=env)
        assert res.returncode == 0, res.stderr
        outs.add(res.stdout)
    assert len(outs) == 1


def test_verify_duals_byte_identical_across_workers(instance_file):
    outs = set()
    for workers in ("1", "2", "3"):
        res = run_cli(
            "verify-duals", "--instance", str(instance_file), "--charging", "exp",
            "--target", "0.5541", "--trials", "8192", "--seed", "11",
            env_extra={"FOMLAB_THREADS": workers},
        )
        assert res.returncode == 0
        outs.add(res.stdout)
    assert len(outs) == 1


# -- exit-code contract under garbled input ------------------------------------

# Out-of-range and malformed numbers.  Values that only make one run large
# (a grid step near 0, k or h above 3, many trials) are left out: they cost
# memory or time, and the contract is about exit codes.
_NUMBERS = ["nan", "inf", "-inf", "-1", "0", "1", "2", "3", "0.5", "0.001",
            "-0.1", "1.5", "2.5", "1e300", "x", ""]
_CHEAP = {  # in-range values that keep one run short
    "--p": ["0", "0.5", "1"], "--k": ["1", "2", "3"], "--h": ["1", "2", "3"],
    "--seed": ["0", "3"], "--trials": ["1", "2", "5"],
    "--target": ["0.3", "0.5", "0.9"], "--grid": ["0.5", "0.25", "0.01"],
}


@st.composite
def _command(draw, prefix, flags, choices=()):
    """`prefix`, then each numeric flag absent or at a cheap value, except
    one (or none) that takes a value from _NUMBERS; `choices` are lists of
    alternative argument lists, one of which is appended each."""
    argv = list(prefix)
    for options in choices:
        argv += draw(st.sampled_from(options))
    hostile = draw(st.sampled_from([None, *flags]))
    for flag in flags:
        values = _NUMBERS if flag == hostile else [None, *_CHEAP[flag]]
        value = draw(st.sampled_from(values))
        if value is not None:
            argv += [flag, value]
    return argv


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_KEYS = st.sampled_from(["n", "events", "edges", "bipartition"])
# vertex ids that are not JSON integers in int64 range
_ODD_IDS = st.sampled_from(
    [0.5, 1.0, -0.0, float("nan"), "0", True, False, None, [0], 2**64, -(2**70)]
)
_MUTATION = st.one_of(
    st.tuples(st.just("set"), _KEYS, _JSON),
    st.tuples(st.just("drop"), _KEYS),
    st.tuples(st.just("event"), st.integers(0, 7), st.sampled_from(["kind", "v"]),
              _JSON | _ODD_IDS),
    st.tuples(st.just("edge"), st.integers(0, 5), _JSON),
    st.tuples(st.just("endpoint"), st.integers(0, 5), st.integers(0, 1), _ODD_IDS),
)


def _garble(base, mutations, cut):
    data = json.loads(json.dumps(base))
    for m in mutations:
        events, edges = data.get("events"), data.get("edges")
        if m[0] == "set":
            data[m[1]] = m[2]
        elif m[0] == "drop":
            data.pop(m[1], None)
        elif m[0] == "event" and isinstance(events, list) and events:
            ev = events[m[1] % len(events)]
            if isinstance(ev, dict):
                ev[m[2]] = m[3]
        elif m[0] == "edge" and isinstance(edges, list) and edges:
            edges[m[1] % len(edges)] = m[2]
        elif m[0] == "endpoint" and isinstance(edges, list) and edges:
            edge = edges[m[1] % len(edges)]
            if isinstance(edge, list) and len(edge) == 2:
                edge[m[2]] = m[3]
    text = json.dumps(data)
    return text if cut is None else text[:cut]


def _holds_odd_id(text):
    """Whether an instance file parses and holds a vertex count, event
    vertex, edge endpoint or bipartition side that is not a JSON integer in
    int64 range; loading such a file must fail."""
    try:
        data = json.loads(text)
    except ValueError:
        return False
    if not isinstance(data, dict):
        return False
    ids = [data["n"]] if "n" in data else []
    events, edges, sides = (data.get(k) for k in ("events", "edges", "bipartition"))
    if isinstance(events, list):
        ids += [ev["v"] for ev in events if isinstance(ev, dict) and "v" in ev]
    if isinstance(edges, list):
        ids += [x for e in edges if isinstance(e, list) and len(e) == 2 for x in e]
    if isinstance(sides, list):
        ids += sides
    return any(type(x) is not int or not -(2**63) <= x < 2**63 for x in ids)


_INSTANCE = "@instance"
_REPORT = "@report"  # a writable --out path
_NOWHERE = "@nowhere"  # an --out path in a folder that does not exist
_OUT = [[], ["--out", _REPORT], ["--out", _NOWHERE]]
_ALG = [[], ["--alg", "ranking"], ["--alg", "greedy"]]
_COMMANDS = st.one_of(
    _command(["generate"], ["--p", "--k", "--h", "--seed"],
             [[["random"], ["one-sided"], ["adversary-tree"], ["ranking-hard"]], _OUT]),
    _command(["run", "--instance", _INSTANCE], ["--seed"],
             [_ALG, [[], ["--trace"]], _OUT]),
    _command(["ratio", "--workers", "1"], ["--k", "--h", "--trials", "--seed"],
             [[["--instance", _INSTANCE], ["--family", "adversary-tree"],
               ["--family", "ranking-hard"], []], _ALG, _OUT]),
    _command(["verify-duals", "--instance", _INSTANCE, "--workers", "1"],
             ["--target", "--trials", "--seed"],
             [[[], ["--charging", "exp"], ["--charging", "piecewise"],
               ["--charging", "capped"]], _OUT]),
    _command(["check-charging"], ["--grid"],
             [[[], ["--kind", "exp"], ["--kind", "piecewise"], ["--kind", "capped"]],
              _OUT]),
    _command(["hardness"], ["--k", "--h"],
             [[["adversary"], ["layered"], ["omega"]], _OUT]),
    _command(["opt", "--instance", _INSTANCE], [], [_OUT]),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _case(argv, mutations=()):
    return example(argv=argv, bipartite=False, mutations=list(mutations), cut=None,
                   garbled=bool(mutations))


@settings(max_examples=100, deadline=None)
@_case(["check-charging", "--grid", "nan"])
@_case(["verify-duals", "--instance", _INSTANCE, "--target", "nan", "--trials", "5"])
@_case(["run", "--instance", _INSTANCE, "--seed", "-1"])
@_case(["opt", "--instance", _INSTANCE], [("set", "n", float("inf"))])
@_case(["verify-duals", "--instance", _INSTANCE, "--target", "0.5", "--trials", "5"],
       [("set", "edges", [])])
@_case(["ratio", "--workers", "1", "--instance", _INSTANCE], [("endpoint", 0, 1, 0.5)])
@_case(["opt", "--instance", _INSTANCE], [("endpoint", 1, 0, 2**64)])
@_case(["run", "--instance", _INSTANCE], [("event", 2, "v", True)])
@_case(["opt", "--instance", _INSTANCE], [("set", "n", 4.0)])
@_case(["generate", "random", "--out", _NOWHERE])
@_case(["check-charging", "--kind", "capped", "--out", _REPORT])
@given(
    argv=_COMMANDS,
    bipartite=st.booleans(),
    mutations=st.lists(_MUTATION, max_size=3),
    cut=st.none() | st.integers(0, 200),
    garbled=st.booleans(),
)
def test_cli_exit_codes_under_garbled_input(
    fuzz_dir, argv, bipartite, mutations, cut, garbled
):
    from fomlab.instance import random_instance, to_json_dict

    base = to_json_dict(random_instance(4, 0.7, bipartite, 1))
    path = fuzz_dir / "instance.json"
    text = _garble(base, mutations, cut) if garbled else json.dumps(base)
    path.write_text(text)
    reads_instance = _INSTANCE in argv
    report_path = fuzz_dir / "report.json"
    report_path.unlink(missing_ok=True)
    places = {_INSTANCE: path, _REPORT: report_path,
              _NOWHERE: fuzz_dir / "missing" / "report.json"}
    nowhere = _NOWHERE in argv
    argv = [str(places.get(a, a)) for a in argv]
    code, out, err = _in_process(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if reads_instance and _holds_odd_id(text):
        assert code == 2, (argv, text, out)
    if nowhere:
        assert code == 2 and not out, (argv, code, err)
    if report_path.exists():
        assert not out
        out = report_path.read_text()
    if out:
        # every report is strict JSON: no NaN or Infinity
        json.loads(out, parse_constant=_reject_constant)
    if code == 1:
        # exit 1 only for a verification report that says it failed
        assert argv[0] in ("verify-duals", "check-charging"), (argv, err)
        report = json.loads(out)
        passed = report["summary"]["pass"] if argv[0] == "verify-duals" else (
            report["properties"]["passed"])
        assert passed is False

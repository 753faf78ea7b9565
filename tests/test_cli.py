import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from rainbowsim.cli import main
from rainbowsim.graphs import read_edgelist
from rainbowsim.models import RngStream, colour_uniform, sample_gnp
from rainbowsim.oracles import exact_max_rainbow_tree


def run_cli(args, env=None):
    """Run the CLI in-process, capturing (exit_code, stdout)."""
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    old_env = {}
    if env:
        for k, v in env.items():
            old_env[k] = os.environ.get(k)
            os.environ[k] = v
    try:
        with redirect_stdout(buf):
            try:
                code = main(args)
            except SystemExit as exc:
                code = exc.code
    finally:
        for k, v in old_env.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# gen

def test_gen_complete_graph(tmp_path):
    out = tmp_path / "k10.edges"
    code, text = run_cli(["gen", "--n", "10", "--p", "1.0", "--c", "3",
                          "--seed", "1", "--out", str(out)])
    assert code == 0
    g = read_edgelist(out)
    assert g.m == 45 and g.c == 3
    assert g.colour.min() >= 1 and g.colour.max() <= 3
    assert "edges=45" in text


def test_gen_empty_graph(tmp_path):
    out = tmp_path / "empty.edges"
    code, _ = run_cli(["gen", "--n", "100", "--p", "0", "--c", "1",
                       "--seed", "1", "--out", str(out)])
    assert code == 0
    assert read_edgelist(out).m == 0


def test_gen_deterministic(tmp_path):
    a = tmp_path / "a.edges"
    b = tmp_path / "b.edges"
    args = ["gen", "--n", "200", "--d", "2", "--c", "5", "--seed", "9"]
    assert run_cli(args + ["--out", str(a)])[0] == 0
    assert run_cli(args + ["--out", str(b)])[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_seed_env_fallback(tmp_path):
    a = tmp_path / "a.edges"
    b = tmp_path / "b.edges"
    run_cli(["gen", "--n", "50", "--p", "0.1", "--c", "2", "--out", str(a)],
            env={"RAINBOW_SEED": "123"})
    run_cli(["gen", "--n", "50", "--p", "0.1", "--c", "2", "--seed", "123",
             "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_gen_missing_flags_usage_error(tmp_path):
    code, _ = run_cli(["gen", "--n", "10", "--out", str(tmp_path / "x")])
    assert code == 64


def test_gen_forest_model(tmp_path):
    out = tmp_path / "forest.txt"
    code, text = run_cli(["gen", "--model", "forest", "--m", "9", "--t", "2",
                          "--seed", "5", "--out", str(out)])
    assert code == 0 and "edges=7" in text
    from rainbowsim.graphs import forest_from_line
    f = forest_from_line(out.read_text().strip())
    f.check()
    assert f.m == 9 and f.t == 2
    code2, _ = run_cli(["gen", "--model", "forest", "--m", "9",
                        "--out", str(out)])
    assert code2 == 64


def test_gen_config_model(tmp_path):
    out = tmp_path / "config.edges"
    code, _ = run_cli(["gen", "--model", "config", "--degrees", "3,3,2,2",
                       "--seed", "5", "--out", str(out)])
    assert code == 0
    g = read_edgelist(out)
    assert g.degrees().tolist() == [3, 3, 2, 2]


@pytest.mark.parametrize("flags, fragment", [
    (["--model", "forest", "--m", "5", "--t", "0"], "need 1 <= t <= m"),
    (["--model", "forest", "--m", "-2", "--t", "1"], "need 1 <= t <= m"),
    (["--model", "config", "--degrees", "1,x"], "invalid literal"),
    (["--model", "config", "--degrees", "1,1,1"], "degree sum must be even"),
])
def test_gen_rejected_model_arguments_exit_64(tmp_path, capsys, flags, fragment):
    out = tmp_path / "out.txt"
    code, _ = run_cli(["gen"] + flags + ["--out", str(out)])
    _assert_one_line_usage_error(code, capsys, fragment)
    assert not out.exists()


def test_python_dash_m_runs_the_cli(tmp_path):
    import rainbowsim
    src = os.path.dirname(os.path.dirname(os.path.abspath(rainbowsim.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = tmp_path / "g.edges"
    proc = subprocess.run([sys.executable, "-m", "rainbowsim", "gen", "--n", "20",
                           "--p", "0.2", "--c", "4", "--seed", "1",
                           "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert read_edgelist(out).n == 20


# ---------------------------------------------------------------------------
# find

def _write_rainbow_path(tmp_path, n=12):
    from rainbowsim.graphs import ColouredGraph, write_edgelist
    g = ColouredGraph.from_edges(n, [(i, i + 1, i + 1) for i in range(n - 1)],
                                 c=n - 1)
    path = tmp_path / "path.edges"
    write_edgelist(g, path)
    return path


def test_find_sub_on_rainbow_path(tmp_path):
    path = _write_rainbow_path(tmp_path, 12)
    code, text = run_cli(["find", "--finder", "sub", "--input", str(path)])
    assert code == 0
    record = json.loads(text.splitlines()[-1])
    assert record["order"] == 12


def test_find_super_on_tree_exits_2(tmp_path):
    path = _write_rainbow_path(tmp_path, 6)
    code, _ = run_cli(["find", "--finder", "super", "--input", str(path)])
    assert code == 2


def test_find_super_without_vertices_exits_2(capsys):
    code, _ = run_cli(["find", "--finder", "super", "--n", "0", "--c", "3",
                       "--p", "0.5"])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


def _assert_one_line_usage_error(code, capsys, *fragments):
    assert code == 64
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    for fragment in fragments:
        assert fragment in lines[0]


@pytest.mark.parametrize("text, fragment", [
    ("3 2\n0 1 1\n1 2\n", "invalid column index"),      # two fields
    ("3 2\n0 1 1\n1 3 2\n", "endpoint out of range"),    # fails validation
    ("3 2\n0 1 1\n1 2 1.5\n", "could not convert"),      # not an integer
    ("\n0 1 1\n", "header"),                              # empty header
    ("3 x\n0 1 1\n", "invalid literal"),                  # malformed header
])
def test_find_bad_edge_list_exits_64(tmp_path, capsys, text, fragment):
    path = tmp_path / "bad.edges"
    path.write_text(text)
    with warnings.catch_warnings():
        # the verdict must not hang on the caller's warning filters
        warnings.simplefilter("ignore")
        code, _ = run_cli(["find", "--finder", "sub", "--input", str(path)])
    _assert_one_line_usage_error(code, capsys, "cannot read edge list", fragment)


def test_find_missing_input_exits_64(tmp_path, capsys):
    path = tmp_path / "absent.edges"
    code, _ = run_cli(["find", "--finder", "super", "--input", str(path)])
    _assert_one_line_usage_error(code, capsys, "No such file", str(path))


@pytest.mark.parametrize("finder", ["sub", "cycle"])
def test_find_uncoloured_generator_exits_64(capsys, finder):
    code, _ = run_cli(["find", "--finder", finder, "--n", "50", "--c", "0",
                       "--eps", "0.2"])
    _assert_one_line_usage_error(code, capsys, "--c of at least 1")


def test_find_without_probability_exits_64(capsys):
    code, _ = run_cli(["find", "--finder", "sub", "--n", "50", "--c", "5"])
    _assert_one_line_usage_error(code, capsys, "one of --p, --eps, --d")


def test_find_eps_with_zero_n_exits_64(capsys):
    code, _ = run_cli(["find", "--finder", "sub", "--n", "0", "--c", "5",
                       "--eps", "0.1"])
    _assert_one_line_usage_error(code, capsys, "--n of at least 1")


@pytest.mark.parametrize("flags, message", [
    (["--n", "-3", "--c", "5"], "argument --n: must be at least 0, got -3"),
    (["--n", "10", "--c", "-1"], "argument --c: must be at least 0, got -1"),
])
def test_find_rejects_negative_counts(capsys, flags, message):
    code, _ = run_cli(["find", "--finder", "sub", "--p", "0.5"] + flags)
    assert code == 64
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [ln for ln in err.splitlines() if ln.startswith("error:")] == [
        f"error: {message}"]


def test_find_uncoloured_input_exits_64(tmp_path, capsys):
    path = tmp_path / "plain.edges"
    path.write_text("3 0\n0 1 0\n1 2 0\n")
    code, _ = run_cli(["find", "--finder", "super", "--input", str(path)])
    _assert_one_line_usage_error(code, capsys, "uncoloured")


@pytest.mark.parametrize("command", ["find", "gen"])
@pytest.mark.parametrize("flags, p", [
    (["--d", "20"], "2.0"),
    (["--eps", "19"], "2.0"),
    (["--p", "-0.5"], "-0.5"),
])
def test_probability_outside_unit_interval_exits_64(tmp_path, capsys, command,
                                                    flags, p):
    out = tmp_path / "out.edges"
    extra = ["--finder", "sub"] if command == "find" else ["--out", str(out)]
    code, _ = run_cli([command, "--n", "10", "--c", "3"] + flags + extra)
    _assert_one_line_usage_error(code, capsys,
                                 f"edge probability {p} is outside [0, 1]")
    assert not out.exists()


def test_find_unknown_flag_usage(tmp_path):
    code, _ = run_cli(["find", "--bogus"])
    assert code == 64


def test_find_rdfs_golden_fixture(tmp_path):
    # fixture: n=8, p=0.6, c=5, seed=42; value frozen from a cross-checked run
    fixture = tmp_path / "fix.edges"
    run_cli(["gen", "--n", "8", "--p", "0.6", "--c", "5", "--seed", "42",
             "--out", str(fixture)])
    code, text = run_cli(["find", "--finder", "rdfs", "--mode", "greedy",
                          "--input", str(fixture)])
    assert code == 0
    record = json.loads(text.splitlines()[-1])
    g = read_edgelist(fixture)
    best = exact_max_rainbow_tree(g)
    best_order = len(np.unique(np.concatenate([g.u[best], g.v[best]]))) if len(best) else 1
    assert record["length"] + 1 <= best_order
    assert record["length"] == GOLDEN_RDFS_LENGTH


GOLDEN_RDFS_LENGTH = 4


def test_find_out_file_deterministic(tmp_path):
    fixture = tmp_path / "fix.edges"
    run_cli(["gen", "--n", "30", "--p", "0.2", "--c", "10", "--seed", "3",
             "--out", str(fixture)])
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli(["find", "--finder", "rbfs", "--input", str(fixture), "--seed", "4",
             "--out", str(a)])
    run_cli(["find", "--finder", "rbfs", "--input", str(fixture), "--seed", "4",
             "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    assert "wall_time_ms" not in json.loads(a.read_text())


# ---------------------------------------------------------------------------
# experiment

def test_experiment_invalid_suite():
    code, _ = run_cli(["experiment", "--suite", "nope"])
    assert code == 64


@pytest.mark.parametrize("reps, message", [
    ("0", "must be at least 1, got 0"),
    ("-3", "must be at least 1, got -3"),
    ("two", "not an integer: 'two'"),
])
def test_experiment_rejects_bad_reps(capsys, reps, message):
    code, _ = run_cli(["experiment", "--suite", "borel", "--reps", reps])
    assert code == 64
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [ln for ln in err.splitlines() if ln.startswith("error:")] == [
        f"error: argument --reps: {message}"]


def test_experiment_borel_csv(tmp_path):
    out = tmp_path / "borel.csv"
    code, text = run_cli(["experiment", "--suite", "borel", "--reps", "20000",
                          "--seed", "7", "--n", "10000", "--out", str(out),
                          "--raw"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# {")
    assert lines[1] == "experiment,params,mean,std,reps,reference,formula"
    assert sum(1 for ln in lines if ln.startswith("borel,")) == 5
    raw = json.loads((tmp_path / "borel.csv.json").read_text())
    assert raw["config"]["seed"] == 7


def test_experiment_csv_thread_invariant(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    base = ["experiment", "--suite", "giant", "--reps", "6", "--seed", "2",
            "--n", "20000"]
    assert run_cli(base + ["--threads", "1", "--out", str(a)])[0] == 0
    assert run_cli(base + ["--threads", "2", "--out", str(b)])[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_experiment_smoke_all(tmp_path):
    # every suite runs end to end at toy sizes; envelope failures at these
    # sizes are expected and only affect the exit code
    out = tmp_path / "all.csv"
    code, text = run_cli(["experiment", "--suite", "all", "--reps", "3",
                          "--seed", "1", "--n", "4000", "--out", str(out),
                          "--raw"])
    assert code in (0, 2)
    lines = out.read_text().splitlines()
    names = ("min-split", "bridge", "double-bridge", "borel", "phase",
             "giant", "cycle")
    for name in names:
        assert any(ln.startswith(name + ",") for ln in lines)
    # every check printed is also in the file, and the raw file is one
    # JSON document holding every suite
    printed = [ln for ln in text.splitlines() if ln.startswith("check ")]
    written = [ln for ln in lines if ln.startswith("# check ")]
    assert len(written) == len(printed) > 0
    with open(str(out) + ".json", encoding="ascii") as fh:
        raw = json.load(fh)
    assert [suite["config"]["experiment"] for suite in raw] == list(names)
    assert sum(len(suite["checks"]) for suite in raw) == len(printed)


def test_help_lists_defaults():
    for sub in ("gen", "find", "experiment"):
        code, text = run_cli([sub, "--help"])
        assert code == 0
        assert "default" in text

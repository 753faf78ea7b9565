import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from rainbowsim.cli import _SUITES, main
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


@pytest.mark.parametrize("args", [
    ["gen", "--n", "10", "--c", "3", "--p", "0.3"],
    ["find", "--finder", "sub", "--n", "10", "--c", "3", "--p", "0.3"],
    ["experiment", "--suite", "borel", "--n", "1000", "--reps", "2"],
])
def test_bad_seed_env_exits_64(tmp_path, capsys, args):
    out = tmp_path / "out.txt"
    code, _ = run_cli(args + ["--out", str(out)],
                      env={"RAINBOW_SEED": "seven"})
    _assert_one_line_usage_error(code, capsys, "'seven'")
    assert not out.exists()


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
    # flags the model would ignore
    (["--n", "10", "--p", "0.3", "--c", "3", "--m", "5", "--t", "2",
      "--degrees", "1,1"], "gen --model gnp does not read --m, --t, --degrees"),
    (["--model", "config", "--degrees", "3,3,2,2", "--n", "100", "--p", "0.5"],
     "gen --model config does not read --n, --p"),
    (["--model", "config", "--degrees", "2,2", "--eps", "0.1", "--m", "3",
      "--t", "1"], "gen --model config does not read --eps, --m, --t"),
    (["--model", "config", "--degrees", "2,2", "--d", "2"],
     "gen --model config does not read --d"),
    (["--model", "forest", "--m", "5", "--t", "1", "--n", "5", "--p", "0.5",
      "--c", "3", "--degrees", "1,1"],
     "gen --model forest does not read --n, --p, --c, --degrees"),
    (["--model", "forest", "--m", "5", "--t", "1", "--eps", "0.1"],
     "gen --model forest does not read --eps"),
    (["--model", "forest", "--m", "5", "--t", "1", "--d", "2"],
     "gen --model forest does not read --d"),
    (["--model", "config", "--degrees", ""],
     "gen --model config requires --degrees"),
])
def test_gen_rejected_model_arguments_exit_64(tmp_path, capsys, flags, fragment):
    out = tmp_path / "out.txt"
    code, _ = run_cli(["gen"] + flags + ["--out", str(out)])
    _assert_one_line_usage_error(code, capsys, fragment)
    assert not out.exists()


def test_gen_forest_refusal_leaves_stdout_empty(tmp_path, capsys):
    # gen prints only once its file is written, so a refused forest prints
    # nothing
    out = tmp_path / "f.txt"
    code, text = run_cli(["gen", "--model", "forest", "--m", "5", "--t", "0",
                          "--out", str(out)])
    _assert_one_line_usage_error(code, capsys, "need 1 <= t <= m")
    assert text == "" and not out.exists()


@pytest.mark.parametrize("flags, out, lines, digest", [
    # 12 of the 60 vertices are isolated
    pytest.param(["--n", "60", "--p", "0.02", "--c", "20", "--seed", "7"],
                 "g.edges",
                 ['config {"c": 20, "command": "gen", "n": 60, '
                  '"out": "g.edges", "p": 0.02, "seed": 7}',
                  "n=60 edges=42 components=19"],
                 "f4a874e2a38356f4e770df9716ccc9a062d7d9499b4969f3348f2d60e6bc2d43",
                 id="gnp"),
    # two loops, a parallel pair and an isolated vertex
    pytest.param(["--model", "config", "--degrees", "3,3,2,2,1,1,2,2,0",
                  "--c", "4", "--seed", "6"],
                 "m.edges",
                 ['config {"c": 4, "command": "gen", '
                  '"degrees": [3, 3, 2, 2, 1, 1, 2, 2, 0], "model": "config", '
                  '"out": "m.edges", "seed": 6}',
                  "n=9 edges=8 components=4"],
                 "9a24c2affdb91a3e92b6556bb42af7564d0e7ad59280b753704fd3ccf24c873e",
                 id="config-multigraph"),
    pytest.param(["--model", "forest", "--m", "9", "--t", "2", "--seed", "5"],
                 "f.txt",
                 ['config {"command": "gen", "m": 9, "model": "forest", '
                  '"out": "f.txt", "seed": 5, "t": 2}',
                  "m=9 t=2 edges=7"],
                 "ffeef0cc2dd8b0116b3faa366b5802c8663394ac603cf07be62c87eb87c875a7",
                 id="forest"),
])
def test_gen_outputs_are_frozen(tmp_path, monkeypatch, flags, out, lines,
                                digest):
    monkeypatch.chdir(tmp_path)
    code, text = run_cli(["gen"] + flags + ["--out", out])
    assert code == 0
    assert text.splitlines() == lines
    assert hashlib.sha256((tmp_path / out).read_bytes()).hexdigest() == digest


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


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_find_sub_order_counts_tree_vertices(tmp_path, seed):
    path = tmp_path / "g.edges"
    run_cli(["gen", "--n", "3000", "--eps", "-0.1", "--c", "3000",
             "--seed", str(seed), "--out", str(path)])
    code, text = run_cli(["find", "--finder", "sub", "--input", str(path)])
    assert code == 0
    record = json.loads(text.splitlines()[-1])
    g = read_edgelist(path)
    edges = record["edges"]
    assert edges
    verts = set(g.u[edges].tolist()) | set(g.v[edges].tolist())
    assert record["order"] == len(verts)


@pytest.mark.parametrize("finder, n, order",
                         [("sub", "0", 0), ("sub", "5", 1),
                          ("rbfs", "0", 0), ("rbfs", "5", 1)],
                         ids=["0-0", "5-1", "rbfs-0", "rbfs-5"])
def test_find_sub_without_edges(finder, n, order):
    # an empty tree is a single vertex, and a graph with no vertex has none
    code, text = run_cli(["find", "--finder", finder, "--n", n, "--c", "3",
                          "--p", "0"])
    assert code == 0
    assert json.loads(text.splitlines()[-1])["order"] == order


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


_GNP = ["--n", "60", "--c", "60", "--d", "3"]


@pytest.mark.parametrize("args, fragment", [
    (["find", "--finder", "rdfs", "--mode", "faithful", "--budget", "-5"] + _GNP,
     "argument --budget: must be at least 0, got -5"),
    (["find", "--finder", "rdfs", "--mode", "faithful", "--delta", "1.5"] + _GNP,
     "need 0 < delta < 1"),
    (["find", "--finder", "rdfs", "--mode", "faithful", "--delta", "nan"] + _GNP,
     "need 0 < delta < 1"),
    (["find", "--finder", "rbfs", "--mode", "faithful", "--delta", "0.9"] + _GNP,
     "delta too large"),
    (["find", "--finder", "rbfs", "--mode", "faithful", "--alpha", "0"] + _GNP,
     "need 0 < delta < min(1, alpha)"),
    (["find", "--finder", "cycle", "--n", "100", "--c", "100", "--eps", "1.5"],
     "need 0 < epsilon < 1"),
    (["find", "--finder", "cycle", "--n", "0", "--c", "100", "--eps", "0.1"],
     "need n >= 1"),
    (["experiment", "--suite", "borel", "--n", "1", "--reps", "1"],
     "need 1 <= t <= m"),
    (["experiment", "--suite", "giant", "--n", "-5", "--reps", "1"],
     "argument --n: must be at least 1, got -5"),
    (["experiment", "--suite", "giant", "--n", "0", "--reps", "1"],
     "argument --n: must be at least 1, got 0"),
    (["experiment", "--suite", "cycle", "--n", "10", "--reps", "1"],
     "edge probability 12.9 is outside [0, 1]"),
    (["experiment", "--suite", "min-split", "--n", "5", "--reps", "1"],
     "--n does not apply to suite 'min-split'"),
    (["experiment", "--suite", "bridge", "--n", "5", "--reps", "1"],
     "--n does not apply to suite 'bridge'"),
    (["experiment", "--suite", "double-bridge", "--n", "5", "--reps", "1"],
     "--n does not apply to suite 'double-bridge'"),
    (["experiment", "--suite", "bridge", "--reps", "1", "--threads", "0"],
     "argument --threads: must be at least 1, got 0"),
    (["experiment", "--suite", "bridge", "--reps", "1", "--threads", "-3"],
     "argument --threads: must be at least 1, got -3"),
    # find's default --delta 0.1 at c = n: the message names the bound
    (["find", "--finder", "rbfs", "--mode", "faithful", "--n", "3000",
      "--d", "3", "--c", "3000"],
     "need delta <= kappa^2/4 = 0.0625 at alpha = 1.0"),
    (["find", "--finder", "nope"], "argument --finder: invalid choice: 'nope'"),
    (["experiment", "--suite", "nope"],
     "argument --suite: invalid choice: 'nope'"),
    # flags the finder would ignore; each is refused before --input is read
    (["find", "--finder", "cycle", "--input", "absent.edges", "--n", "3000",
      "--c", "3000", "--eps", "0.3"], "find --finder cycle does not read --input"),
    (["find", "--finder", "super", "--input", "absent.edges", "--n", "5",
      "--c", "7"], "find --finder super --input does not read --n, --c"),
    (["find", "--finder", "sub", "--input", "absent.edges", "--p", "0.5"],
     "find --finder sub --input does not read --p"),
    (["find", "--finder", "rbfs", "--input", "absent.edges", "--c", "9",
      "--d", "2"], "find --finder rbfs --input does not read --c, --d"),
    (["find", "--finder", "rdfs", "--input", "absent.edges", "--eps", "0.1"],
     "find --finder rdfs --input does not read --eps"),
    (["find", "--finder", "sub", "--input", "absent.edges", "--budget", "5",
      "--alpha", "3"], "find --finder sub --input does not read --budget, --alpha"),
    (["find", "--finder", "rbfs", "--budget", "5"] + _GNP,
     "find --finder rbfs does not read --budget"),
    (["find", "--finder", "rdfs", "--alpha", "1"] + _GNP,
     "find --finder rdfs does not read --alpha"),
    (["find", "--finder", "cycle", "--n", "100", "--c", "100", "--eps", "0.1",
      "--budget", "3"], "find --finder cycle does not read --budget"),
    # faithful rbfs needs a finite growth margin; path.edges is a rainbow path
    (["find", "--finder", "rbfs", "--mode", "faithful", "--input", "path.edges",
      "--delta", "0.05", "--eps", "nan"], "need a finite eps, got nan"),
    (["find", "--finder", "rbfs", "--mode", "faithful", "--input", "path.edges",
      "--delta", "0.05", "--eps", "inf"], "need a finite eps, got inf"),
    (["find", "--finder", "rbfs", "--mode", "faithful", "--input", "path.edges",
      "--delta", "0.05", "--alpha", "nan"], "need a finite alpha, got nan"),
    (["find", "--finder", "rbfs", "--mode", "faithful", "--delta", "0.05",
      "--alpha", "nan"] + _GNP, "need a finite alpha, got nan"),
    # only rdfs and rbfs read --delta and --mode
    (["find", "--finder", "sub", "--input", "path.edges", "--delta", "0.5"],
     "find --finder sub --input does not read --delta"),
    (["find", "--finder", "sub", "--mode", "greedy"] + _GNP,
     "find --finder sub does not read --mode"),
    (["find", "--finder", "super", "--input", "path.edges", "--delta", "0.9",
      "--mode", "faithful"], "find --finder super --input does not read --delta, --mode"),
    (["find", "--finder", "super", "--delta", "0.1"] + _GNP,
     "find --finder super does not read --delta"),
    (["find", "--finder", "cycle", "--n", "100", "--c", "100", "--eps", "0.1",
      "--delta", "0.3"], "find --finder cycle does not read --delta"),
    (["find", "--finder", "cycle", "--n", "100", "--c", "100", "--eps", "0.1",
      "--mode", "faithful", "--budget", "3"],
     "find --finder cycle does not read --budget, --mode"),
    # a greedy explorer, greedy being the fallback mode, reads only --mode
    (["find", "--finder", "rdfs", "--input", "path.edges", "--budget", "3"],
     "find --finder rdfs --input does not read --budget"),
    (["find", "--finder", "rdfs", "--mode", "greedy", "--delta", "0.4"] + _GNP,
     "find --finder rdfs does not read --delta"),
    (["find", "--finder", "rbfs", "--input", "path.edges", "--alpha", "7",
      "--eps", "0.4"], "find --finder rbfs --input does not read --eps, --alpha"),
    # faithful rbfs reads only eps^2, so a negative eps would run as |eps|
    (["find", "--finder", "rbfs", "--mode", "faithful", "--input", "path.edges",
      "--delta", "0.05", "--eps", "-0.1"], "need eps >= 0, got -0.1"),
    # the cycle finder's probability comes from the one rule in models
    (["find", "--finder", "cycle", "--n", "1", "--c", "5", "--eps", "0.5"],
     "edge probability 2.0 is outside [0, 1]"),
])
def test_refused_parameters_exit_64(tmp_path, monkeypatch, capsys, args,
                                    fragment):
    monkeypatch.chdir(tmp_path)
    _write_rainbow_path(tmp_path)
    code, _ = run_cli(args)
    assert code == 64
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # argparse refusals print the usage lines first
    errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and fragment in errors[0]


@pytest.mark.parametrize("flags", [
    ["--finder", "sub", "--n", "50", "--c", "5", "--p", "0.1", "--delta", "0.2"],
    ["--finder", "super", "--input", "path.edges", "--mode", "greedy"],
    ["--finder", "rdfs", "--input", "path.edges", "--n", "5"],
    ["--finder", "cycle", "--n", "100", "--c", "100"],             # no --eps
    ["--finder", "sub", "--n", "100", "--eps", "0.1"],             # no --c
    ["--finder", "sub", "--n", "50", "--c", "0", "--eps", "0.2"],  # --c of 0
    ["--finder", "rbfs", "--n", "50", "--c", "5"],                 # no p
    ["--finder", "sub", "--n", "0", "--c", "5", "--eps", "0.1"],
    ["--finder", "rdfs", "--n", "10", "--c", "3", "--d", "20"],    # p = 2
    # an unreadable or uncoloured graph, and an unread flag beside --input
    ["--finder", "sub", "--input", "absent.edges"],
    ["--finder", "super", "--input", "plain.edges"],               # c = 0
    ["--finder", "rbfs", "--input", "path.edges", "--alpha", "2"],  # greedy
])
def test_find_flag_checks_leave_stdout_empty(tmp_path, monkeypatch, capsys,
                                             flags):
    # a refused run prints nothing: find echoes only once its work is done
    monkeypatch.chdir(tmp_path)
    _write_rainbow_path(tmp_path)
    (tmp_path / "plain.edges").write_text("3 0\n0 1 0\n1 2 0\n")
    code, text = run_cli(["find", "--out", "record.json"] + flags)
    _assert_one_line_usage_error(code, capsys)
    assert text == "" and not (tmp_path / "record.json").exists()


@pytest.mark.parametrize("args", [
    ["gen", "--n", "10", "--c", "3", "--p", "0.3"],
    ["find", "--finder", "sub", "--n", "10", "--c", "3", "--p", "0.3"],
    ["experiment", "--suite", "borel", "--n", "1000", "--reps", "2"],
    ["gen", "--model", "config", "--degrees", "1,1,2", "--c", "2"],
    ["gen", "--model", "forest", "--m", "5", "--t", "2"],
])
def test_unwritable_out_exits_64(tmp_path, capsys, args):
    out = tmp_path / "missing" / "out.txt"
    code, text = run_cli(args + ["--out", str(out)])
    _assert_one_line_usage_error(code, capsys, "No such file", str(out))
    assert text == ""


@pytest.mark.parametrize("args", [
    ["find", "--finder", "rdfs", "--mode", "faithful", "--delta", "1.5"] + _GNP,
    # the fallback --delta 0.1 is over faithful rbfs's kappa bound at c = n
    ["find", "--finder", "rbfs", "--mode", "faithful"] + _GNP,
    ["find", "--finder", "cycle", "--n", "100", "--c", "100", "--eps", "1.5"],
    ["find", "--finder", "cycle", "--n", "1", "--c", "1", "--eps", "0.5"],
    # the cycle suite refuses d/n > 1 after six suites have run
    ["experiment", "--suite", "all", "--n", "100", "--reps", "1"],
])
def test_refusals_by_the_work_leave_stdout_empty(tmp_path, capsys, args):
    # each command prints only once its work is done and its files written
    out = tmp_path / "out.txt"
    code, text = run_cli(args + ["--out", str(out)])
    _assert_one_line_usage_error(code, capsys)
    assert text == "" and not out.exists()


@pytest.mark.parametrize("flags, read", [
    # rbfs takes --eps as its growth margin, so --input leaves it open
    (["--finder", "rbfs", "--alpha", "1", "--eps", "0.1"],
     {"alpha": 1.0, "eps": 0.1}),
    (["--finder", "rdfs", "--budget", "50"], {"budget": 50}),
])
def test_find_input_keeps_the_finder_flags(tmp_path, flags, read):
    fixture = tmp_path / "fix.edges"
    run_cli(["gen", "--n", "300", "--d", "2", "--c", "300", "--seed", "3",
             "--out", str(fixture)])
    code, text = run_cli(["find", "--mode", "faithful", "--delta", "0.05",
                          "--input", str(fixture)] + flags)
    assert code == 0
    params = json.loads(text.splitlines()[-1])["params"]
    assert {k: params[k] for k in read} == read


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


# accepted find runs on two gen graphs, a G(n, p) and a configuration
# multigraph, each pinned to its config line and the SHA-256 of its --out
# record; None marks a structural miss, which writes no record
@pytest.mark.parametrize("flags, config, digest", [
    pytest.param(["--finder", "sub", "--input", "g.edges"],
                 '{"alpha": null, "budget": null, "c": null, "command": "find", '
                 '"delta": 0.1, "eps": null, "finder": "sub", '
                 '"input": "g.edges", "mode": "greedy", "n": null, "seed": 0}',
                 "a6e49fc2205697480f059ed54b3b67cfeff31cf7766ab97b290e5a60acff527f",
                 id="sub"),
    pytest.param(["--finder", "super", "--input", "g.edges"],
                 '{"alpha": null, "budget": null, "c": null, "command": "find", '
                 '"delta": 0.1, "eps": null, "finder": "super", '
                 '"input": "g.edges", "mode": "greedy", "n": null, "seed": 0}',
                 "3656a205ab25fd9a7b44260c0385497cd4085fbb11a17d8a2ddd86aefc9d80c9",
                 id="super"),
    pytest.param(["--finder", "super", "--input", "m.edges"],
                 '{"alpha": null, "budget": null, "c": null, "command": "find", '
                 '"delta": 0.1, "eps": null, "finder": "super", '
                 '"input": "m.edges", "mode": "greedy", "n": null, "seed": 0}',
                 "30a844bbfd00c7461e42ca742a948e964352888c11f713119e0bdea779445bfd",
                 id="super-multigraph"),
    pytest.param(["--finder", "rdfs", "--input", "g.edges"],
                 '{"alpha": null, "budget": null, "c": null, "command": "find", '
                 '"delta": 0.1, "eps": null, "finder": "rdfs", '
                 '"input": "g.edges", "mode": "greedy", "n": null, "seed": 0}',
                 "12f7d87c85da2d6485bae5ca53b8334a4405724ce783b186820d96f14314ef8d",
                 id="rdfs-greedy"),
    pytest.param(["--finder", "rdfs", "--mode", "faithful", "--delta", "0.05",
                  "--input", "g.edges"],
                 '{"alpha": null, "budget": null, "c": null, "command": "find", '
                 '"delta": 0.05, "eps": null, "finder": "rdfs", '
                 '"input": "g.edges", "mode": "faithful", "n": null, "seed": 0}',
                 "5713d6f309e0f128b6b13407e355ddd6bff0dc1d93c3ffcce4d6bda491f53e5b",
                 id="rdfs-faithful"),
    pytest.param(["--finder", "rbfs", "--input", "g.edges", "--seed", "4"],
                 '{"alpha": null, "budget": null, "c": null, "command": "find", '
                 '"delta": 0.1, "eps": null, "finder": "rbfs", '
                 '"input": "g.edges", "mode": "greedy", "n": null, "seed": 4}',
                 "e5d4b5aa62f0fa109dae6e8b68b8cf7dd8055f690a76be5cb6f99859214314b6",
                 id="rbfs-greedy"),
    pytest.param(["--finder", "rbfs", "--mode", "faithful", "--delta", "0.05",
                  "--input", "g.edges"],
                 '{"alpha": null, "budget": null, "c": null, "command": "find", '
                 '"delta": 0.05, "eps": null, "finder": "rbfs", '
                 '"input": "g.edges", "mode": "faithful", "n": null, "seed": 0}',
                 "f19a268d80f14afebc5bd9af4ed2c36d28961a9faa15bfebabc78c69bb01e344",
                 id="rbfs-faithful"),
    pytest.param(["--finder", "cycle", "--n", "2000", "--c", "2000", "--eps",
                  "0.5", "--seed", "1"],
                 '{"alpha": null, "budget": null, "c": 2000, "command": "find", '
                 '"delta": 0.1, "eps": 0.5, "finder": "cycle", '
                 '"input": null, "mode": "greedy", "n": 2000, "seed": 1}',
                 "76208f4bde4821c2c9a9f230eaf58285fa8669baf66d974ab62213bb4a8c6b5f",
                 id="cycle"),
    pytest.param(["--finder", "cycle", "--n", "200", "--c", "200", "--eps",
                  "0.1", "--seed", "1"],
                 '{"alpha": null, "budget": null, "c": 200, "command": "find", '
                 '"delta": 0.1, "eps": 0.1, "finder": "cycle", '
                 '"input": null, "mode": "greedy", "n": 200, "seed": 1}',
                 None,
                 id="cycle-miss"),
])
def test_find_outputs_are_frozen(tmp_path, monkeypatch, capsys, flags, config,
                                 digest):
    monkeypatch.chdir(tmp_path)
    degrees = ",".join(["3"] * 150 + ["2"] * 50)
    for args in (["--n", "300", "--d", "2", "--c", "300", "--seed", "3",
                  "--out", "g.edges"],
                 ["--model", "config", "--degrees", degrees, "--c", "200",
                  "--seed", "2", "--out", "m.edges"]):
        assert run_cli(["gen"] + args)[0] == 0
    capsys.readouterr()
    code, text = run_cli(["find", "--out", "record.json"] + flags)
    lines = text.splitlines()
    assert lines[0] == "config " + config
    record = tmp_path / "record.json"
    if digest is None:
        assert code == 2 and len(lines) == 1 and not record.exists()
        assert capsys.readouterr().err == (
            "NotFound: first-round rainbow path too short\n")
    else:
        assert code == 0
        assert hashlib.sha256(record.read_bytes()).hexdigest() == digest
        printed = json.loads(lines[1])
        del printed["wall_time_ms"]
        assert printed == json.loads(record.read_text())


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


# each suite's echoed config at --reps 3 --seed 1 --n 4000, verbatim; the
# suite's call takes its parameters from the same dict, so this pins them too
_ALL_SUITE_HEADERS = [
    '# {"envelopes_version": "2025.1", "experiment": "min-split", '
    '"m_grid": "4/100/400/1600", "reps": 3, "seed": 1}',
    '# {"envelopes_version": "2025.1", "experiment": "bridge", "m": 1000, '
    '"reps": 3, "seed": 1, "t": 50}',
    '# {"envelopes_version": "2025.1", "experiment": "double-bridge", '
    '"m_factor": 100, "reps": 3, "seed": 1, "t_grid": "10/100/1000"}',
    '# {"envelopes_version": "2025.1", "experiment": "borel", "m": 4000, '
    '"reps": 3, "seed": 1, "t": 40}',
    '# {"c": 4000, "envelopes_version": "2025.1", "eps_grid": "-0.05/0.05", '
    '"experiment": "phase", "n": 4000, "reps": 3, "seed": 1}',
    '# {"d": 2.0, "envelopes_version": "2025.1", "experiment": "giant", '
    '"n": 4000, "reps": 3, "seed": 1}',
    '# {"c": 4000, "d": 129.0, "delta": 0.5, "envelopes_version": "2025.1", '
    '"experiment": "cycle", "n": 4000, "reps": 3, "seed": 1}',
]


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
    # the echo on stdout and the CSV header state the same config
    assert [ln for ln in lines if ln.startswith("# {")] == _ALL_SUITE_HEADERS
    assert [ln for ln in text.splitlines() if ln.startswith("config ")] == [
        "config " + ln[2:] for ln in _ALL_SUITE_HEADERS]


def test_help_lists_defaults():
    for sub in ("gen", "find", "experiment"):
        code, text = run_cli([sub, "--help"])
        assert code == 0
        assert "default" in text
    # experiment's --n help, its last option, names exactly the sized suites
    n_help = " ".join(text.split("--n N", 1)[1].split())
    for suite, n in _SUITES.items():
        assert (f" {suite}" in n_help) == (n is not None), suite

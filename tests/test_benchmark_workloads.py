"""Every benchmark workload under perfbench/ runs end to end at toy size,
the way perfbench/run.py drives it: a change that breaks a call or a field
a workload reads fails here, not only in a benchmark run."""

import json
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402


class Cycle(workloads.Cycle):
    # at this size the second round misses the path's end windows for some
    # seeds (NotFoundError, a failed repetition in run.py); seed 0 closes
    # the cycle
    n = c = 400


class Phase(workloads.Phase):
    n = c = 20_000
    eps = 0.3


class Rbfs(workloads.Rbfs):
    n = c = 3_000


class Forest(workloads.Forest):
    reps = 3
    m_grid = (4, 16)
    bridge = (40, 5)


TOY = {"cycle": Cycle, "phase": Phase, "rbfs": Rbfs, "forest": Forest}


def test_every_workload_has_a_toy_size():
    assert TOY.keys() == workloads.WORKLOADS.keys()
    assert all(issubclass(TOY[name], workloads.WORKLOADS[name]) for name in TOY)


@pytest.mark.parametrize("tracer", [NullTracer, Tracer])
@pytest.mark.parametrize("name", sorted(TOY))
def test_workload_runs_checks_and_catches_corruptions(tmp_path, name, tracer):
    tr = tracer()
    wl = TOY[name](0, str(tmp_path / name))
    with tr.round("setup", "setup"):
        wl.prepare(tr)
    wl.load()
    with tr.round(0):
        out = wl.rep(0, tr)
    if tr.enabled:
        wl.replay(out, tr)
        spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
        tr.medians(["rep_s"] + [m["name"] for m in spec["per_layer"]])
    assert tr.calls > 0
    assert wl.check(out) == set()
    missed = [(label, sorted(found), want)
              for label, found, want in wl.selftest(out) if want not in found]
    assert missed == []

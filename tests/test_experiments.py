import json
import math
import os

import numpy as np
import pytest

from rainbowsim import experiments as experiments_module
from rainbowsim import finders as finders_module
from rainbowsim.envelopes import ENVELOPES_VERSION
from rainbowsim.experiments import (EnvelopeCheck, ExperimentConfig,
                                    InvalidConfigError, SummaryRow,
                                    _PairSizeSampler, _rep_bridge, _rep_cycle, _rep_giant,
                                    _rep_phase_sub,
                                    _rep_phase_super, _run_reps,
                                    _stream_keys,
                                    exp_bridge_number, exp_cycle,
                                    exp_giant_benchmark, exp_min_double_bridge,
                                    exp_min_split, exp_phase_transition,
                                    exp_tree_size_law,
                                    min_double_bridge_samples, raw_records,
                                    write_csv)
from rainbowsim.graphs import (InvalidRootCountError, RootedForest,
                               connected_components, subtree_sizes)
from rainbowsim.finders import find_rainbow_cycle_weakly_super
from rainbowsim.models import (InvalidProbabilityError, RngStream,
                               RootTreeSizeSampler, sample_gnp)
from rainbowsim.oracles import enumerate_forests


# ---------------------------------------------------------------------------
# min split

def test_min_split_m2_is_exactly_one():
    rows, _ = exp_min_split((2,), 500, 1)
    assert rows[0].mean == 1.0 and rows[0].std == 0.0


def test_min_split_m4_matches_oracle():
    rows, checks = exp_min_split((4,), 20000, 2)
    oracle = next(c for c in checks if c.name == "min_split_m4_oracle")
    assert oracle.passed
    assert rows[0].mean == pytest.approx(1.25, abs=0.02)


def test_min_split_rejects_tiny_m():
    with pytest.raises(InvalidConfigError):
        exp_min_split((1,), 10, 1)


# ---------------------------------------------------------------------------
# bridge number

def test_bridge_single_nonroot_vertex():
    rows, checks = exp_bridge_number(5, 4, 300, 3)
    assert rows[0].mean == 1.0
    assert all(c.passed for c in checks)


def test_bridge_5_2_matches_enumeration():
    forests = enumerate_forests(5, 2)
    total = 0
    count = 0
    for par in forests:
        f = RootedForest(m=5, t=2, parent=np.array(par))
        sizes = subtree_sizes(f)
        for w in range(2, 5):
            total += int(sizes[w])
            count += 1
    exact = total / count
    rows, _ = exp_bridge_number(5, 2, 50000, 4)
    tol = 4 * rows[0].std / math.sqrt(rows[0].reps)
    assert abs(rows[0].mean - exact) <= tol


def test_bridge_requires_an_edge():
    with pytest.raises(InvalidConfigError):
        exp_bridge_number(3, 3, 10, 1)


# ---------------------------------------------------------------------------
# double bridge

def test_double_bridge_guard_needs_two_edges():
    with pytest.raises(InvalidConfigError):
        min_double_bridge_samples(5, 4, 10, 1)


def test_double_bridge_5_2_matches_enumeration():
    # exact mean of min(B_e, B_e') over all forests and distinct edge pairs
    forests = enumerate_forests(5, 2)
    total = 0
    count = 0
    for par in forests:
        f = RootedForest(m=5, t=2, parent=np.array(par))
        sizes = subtree_sizes(f)
        ws = [2, 3, 4]
        for i in range(3):
            for j in range(i + 1, 3):
                total += min(int(sizes[ws[i]]), int(sizes[ws[j]]))
                count += 1
    exact = total / count
    vals = min_double_bridge_samples(5, 2, 100000, 5)
    mean = sum(vals) / len(vals)
    std = math.sqrt(sum((v - mean) ** 2 for v in vals) / (len(vals) - 1))
    assert abs(mean - exact) <= 4 * std / math.sqrt(len(vals))


def test_double_bridge_rows_and_checks_shape():
    rows, checks = exp_min_double_bridge((10, 100), 2000, 6)
    assert len(rows) == 2 and len(checks) == 1
    assert rows[0].formula == "m/t"


def test_double_bridge_vanishes_as_ratio_grows():
    # the smaller bridge number grows only logarithmically in m/t, so the
    # normalised mean has to fall once the ratio m/t itself grows
    t = 20
    small = min_double_bridge_samples(20 * t, t, 20000, 7)
    large = min_double_bridge_samples(500 * t, t, 20000, 7, stream=1)
    norm_small = sum(small) / len(small) / 20
    norm_large = sum(large) / len(large) / 500
    assert norm_large < 0.5 * norm_small


# ---------------------------------------------------------------------------
# tree size law

def test_tree_size_all_roots_degenerate():
    assert RootTreeSizeSampler(9, 9).sample(RngStream(1).generator()) == 1


def test_tree_size_law_rows():
    rows, checks = exp_tree_size_law(10 ** 4, 10 ** 2, 30000, 7)
    assert [dict(r.params)["k"] for r in rows] == [1, 2, 3, 4, 5]
    assert all(c.passed for c in checks)


# ---------------------------------------------------------------------------
# giant benchmark

def test_giant_benchmark_supercritical():
    rows, checks = exp_giant_benchmark(2 * 10 ** 4, 2.0, 10, 8)
    assert checks[0].passed
    assert rows[0].reference == pytest.approx(0.796812, abs=1e-6)


def test_giant_benchmark_subcritical():
    rows, checks = exp_giant_benchmark(2 * 10 ** 4, 0.5, 10, 9)
    assert checks[0].passed and rows[0].mean < 0.01


def test_giant_benchmark_dense():
    rows, _ = exp_giant_benchmark(10 ** 4, 20.0, 5, 10)
    assert rows[0].mean > 0.99


# ---------------------------------------------------------------------------
# phase transition (scaled-down smoke; the full envelope runs in acceptance)

def test_phase_transition_smoke():
    rows, checks = exp_phase_transition(3 * 10 ** 4, 3 * 10 ** 4,
                                        (-0.15, 0.15), 3, 11)
    names = [c.name for c in checks]
    assert any("phase_super" in n for n in names)
    assert any("phase_sub" in n for n in names)
    assert any("benchmark" in n for n in names)
    sub_row = rows[0]
    assert dict(sub_row.params)["eps3n"] == pytest.approx(0.15 ** 3 * 3 * 10 ** 4)


def test_phase_transition_rejects_zero_eps():
    with pytest.raises(InvalidConfigError):
        exp_phase_transition(1000, 1000, (0.0,), 2, 1)


def test_phase_super_computes_components_once_per_repetition(monkeypatch):
    # the suite hands its partition of the whole graph to the finder; the
    # finder's own calls on its core piece and its tree have fewer vertices
    seen = []

    def counting(g):
        seen.append(g.n)
        return connected_components(g)

    for module in (experiments_module, finders_module):
        monkeypatch.setattr(module, "connected_components", counting)
    rows, _ = exp_phase_transition(3000, 3000, (0.2,), 4, 2024)
    assert seen.count(3000) == 4
    assert rows[0].mean == (400 + 494 + 491 + 523) / 4


# ---------------------------------------------------------------------------
# cycle pipeline (scaled-down smoke)

def test_cycle_guards():
    with pytest.raises(InvalidConfigError):
        exp_cycle(1000, 1000, 129.0, 1.0, 2, 1)
    with pytest.raises(InvalidProbabilityError):
        exp_cycle(100, 100, 129.0, 0.5, 2, 1)


def test_cycle_small_colour_budget_targets_c():
    # with c = n/2 the target scales with c, not n
    n = 4000
    rows, checks = exp_cycle(n, n // 2, 129.0, 0.5, 3, 12)
    assert rows[0].reference == pytest.approx(0.5 * (n // 2))
    assert checks[0].passed


def test_cycle_smoke():
    rows, checks = exp_cycle(4000, 4000, 129.0, 0.5, 3, 13)
    assert checks[0].passed
    rate = next(r for r in rows if ("stat", "success_rate") in r.params)
    assert rate.mean == 1.0


# ---------------------------------------------------------------------------
# determinism and output formats

def test_experiment_rows_reproducible():
    a = exp_giant_benchmark(10 ** 4, 2.0, 5, 14)
    b = exp_giant_benchmark(10 ** 4, 2.0, 5, 14)
    assert a == b


# Per-repetition values of each _run_reps suite at seed 2024, frozen from the
# per-repetition streams: a shifted or reordered stream changes them.
_FROZEN = [
    pytest.param(_rep_bridge, (4, 1), [2, 3, 1, 2, 2, 1, 2, 1], id="min-split-4"),
    pytest.param(_rep_bridge, (100, 1), [1, 7, 1, 1, 1, 1, 6, 3],
                 id="min-split-100"),
    pytest.param(_rep_bridge, (1000, 50), [1, 3, 7, 1, 1, 1, 17, 19],
                 id="bridge"),
    pytest.param(_rep_phase_sub, (3000, 3000, 0.2), [33, 38, 29, 46],
                 id="phase-sub"),
    pytest.param(_rep_phase_super, (3000, 3000, 0.2),
                 [(400, 795), (494, 800), (491, 855), (523, 931)],
                 id="phase-super"),
    pytest.param(_rep_giant, (2000, 2.0), [0.7635, 0.7765, 0.798, 0.7935],
                 id="giant"),
    pytest.param(_rep_cycle, (2000, 2000, 129.0, 0.5), [1236, 1272, 1335],
                 id="cycle"),
]


@pytest.mark.parametrize("fn, params, expected", _FROZEN)
def test_run_reps_streams_are_frozen(fn, params, expected):
    assert _run_reps(fn, params, len(expected), 2024) == expected


def test_min_split_streams_are_frozen():
    rows, _ = exp_min_split((4, 100), 8, 2024)
    assert [(r.mean, r.std) for r in rows] == [
        (1.5, 0.5345224838248488), (2.625, 2.5035688811888406)]


# The full (rows, checks) of each suite at seed 2024 and toy sizes, frozen
# exactly: a changed mean, std, reps, row order or check shows here. The
# min-split grid repeats m = 4, which must keep its own row; at eps = 0.2 the
# L1 row's mean and std differ in the last bit if each order is scaled by 1/n
# before averaging.
_FROZEN_SUITES = [
    pytest.param(
        lambda: exp_min_split((4, 16, 4), 8, 2024),
        [
            SummaryRow((("m", 4),), 1.5, 0.5345224838248488, 8, 2.0,
                       "sqrt(m)"),
            SummaryRow((("m", 16),), 2.25, 1.5811388300841898, 8, 4.0,
                       "sqrt(m)"),
            SummaryRow((("m", 4),), 1.5, 0.5345224838248488, 8, 2.0,
                       "sqrt(m)"),
        ], [
            EnvelopeCheck("min_split_ratio_m4_to_m16", False, 1.5,
                          "[1.6, 2.4]"),
            EnvelopeCheck("min_split_m4_oracle", True, 1.5,
                          "1.25 +- 0.566947"),
        ], id="min-split"),
    pytest.param(
        lambda: exp_bridge_number(1000, 50, 8, 2024),
        [
            SummaryRow((("m", 1000), ("t", 50)), 6.25, 7.55456342692472, 8,
                       19.607843137254903, "m/(t+1)"),
        ], [
            EnvelopeCheck("bridge_mean_m1000_t50", True, 6.25,
                          "<= 1.05*19.607843"),
        ], id="bridge"),
    pytest.param(
        lambda: exp_min_double_bridge((10, 100), 200, 2024),
        [
            SummaryRow((("m", 1000), ("t", 10)), 3.37, 8.444504025767658, 200,
                       100.0, "m/t"),
            SummaryRow((("m", 10000), ("t", 100)), 4.31, 13.399688738603492,
                       200, 100.0, "m/t"),
        ], [
            EnvelopeCheck("double_bridge_decreasing_t10_t100", False,
                          0.04309999999999999, "< 0.033700"),
        ], id="double-bridge"),
    pytest.param(
        lambda: exp_tree_size_law(1000, 10, 500, 2024),
        [
            SummaryRow((("m", 1000), ("t", 10), ("k", 1)), 0.324,
                       0.020929596269398033, 500, 0.36787944117144233,
                       "exp(-k) k^(k-1)/k!"),
            SummaryRow((("m", 1000), ("t", 10), ("k", 2)), 0.118,
                       0.014427473791346842, 500, 0.13533528323661276,
                       "exp(-k) k^(k-1)/k!"),
            SummaryRow((("m", 1000), ("t", 10), ("k", 3)), 0.064,
                       0.010945684080951725, 500, 0.0746806025517959,
                       "exp(-k) k^(k-1)/k!"),
            SummaryRow((("m", 1000), ("t", 10), ("k", 4)), 0.048,
                       0.009559916317625379, 500, 0.04884170370329117,
                       "exp(-k) k^(k-1)/k!"),
            SummaryRow((("m", 1000), ("t", 10), ("k", 5)), 0.024,
                       0.00684455988358638, 500, 0.035093473953570105,
                       "exp(-k) k^(k-1)/k!"),
        ], [
            EnvelopeCheck("borel_k1", False, 0.324, "0.367879 +- 0.01"),
            EnvelopeCheck("borel_k2", False, 0.118, "0.135335 +- 0.01"),
            EnvelopeCheck("borel_k3", False, 0.064, "0.074681 +- 0.01"),
            EnvelopeCheck("borel_k4", True, 0.048, "0.048842 +- 0.01"),
            EnvelopeCheck("borel_k5", False, 0.024, "0.035093 +- 0.01"),
        ], id="borel"),
    pytest.param(
        lambda: exp_phase_transition(10000, 10000, (-0.3, 0.1, 0.2), 4, 2024),
        [
            SummaryRow((("n", 10000), ("c", 10000), ("eps", -0.3),
                        ("eps3n", 269.99999999999994)),
                       41.75, 8.958236433584458, 4, 124.40937686663054,
                       "(2/eps^2) ln(eps^3 n)"),
            SummaryRow((("n", 10000), ("c", 10000), ("eps", 0.1),
                        ("eps3n", 10.000000000000002)),
                       839.25, 508.2429701104253, 4, 2000.0, "2 eps n"),
            SummaryRow((("n", 10000), ("c", 10000), ("eps", 0.1),
                        ("benchmark", "L1")),
                       0.12275, 0.09079693460317553, 4, 0.2,
                       "(2 eps + O(eps^2))"),
            SummaryRow((("n", 10000), ("c", 10000), ("eps", 0.2),
                        ("eps3n", 80.00000000000001)),
                       1689.5, 252.33509466580347, 4, 4000.0, "2 eps n"),
            SummaryRow((("n", 10000), ("c", 10000), ("eps", 0.2),
                        ("benchmark", "L1")),
                       0.31295, 0.02657624252347699, 4, 0.4,
                       "(2 eps + O(eps^2))"),
        ], [
            EnvelopeCheck("phase_sub_eps-0.3", False, 0,
                          ">= 8/10 of ratios in [0.5, 1.5]"),
            EnvelopeCheck("phase_super_eps0.1", False, 1,
                          ">= 8/10 of orders >= 0.7*2000.0"),
            EnvelopeCheck("phase_benchmark_eps0.1", False, 0.12275,
                          "2 eps +- 15%"),
            EnvelopeCheck("phase_super_eps0.2", False, 0,
                          ">= 8/10 of orders >= 0.7*4000.0"),
            EnvelopeCheck("phase_benchmark_eps0.2", False, 0.31295,
                          "2 eps +- 15%"),
        ], id="phase"),
    pytest.param(
        lambda: exp_giant_benchmark(2000, 2.0, 4, 2024),
        [
            SummaryRow((("n", 2000), ("d", 2.0)), 0.782875,
                       0.01589221507531285, 4, 0.79681213002002, "gamma(d)"),
        ], [
            EnvelopeCheck("giant_fraction_d2.0", True, 0.782875,
                          "0.796812 +- 0.02"),
        ], id="giant"),
    pytest.param(
        lambda: exp_giant_benchmark(2000, 0.5, 4, 2024),
        [
            SummaryRow((("n", 2000), ("d", 0.5)), 0.0085, 0.002943920288775949,
                       4, 0.0, "gamma(d)"),
        ], [
            EnvelopeCheck("giant_fraction_d0.5", True, 0.0085, "< 0.01"),
        ], id="giant-sub"),
    pytest.param(
        lambda: exp_cycle(2000, 2000, 129.0, 0.5, 3, 2024),
        [
            SummaryRow((("n", 2000), ("c", 2000), ("d", 129.0),
                        ("delta", 0.5)), 1281.0, 50.1098792654702, 3, 1000.0,
                       "(1-delta) min(n,c)"),
            SummaryRow((("n", 2000), ("c", 2000), ("d", 129.0), ("delta", 0.5),
                        ("stat", "success_rate")),
                       1.0, 0.0, 3, 0.8, "success fraction"),
        ], [
            EnvelopeCheck("cycle_d129.0_delta0.5", True, 3,
                          ">= 8/10 cycles of length >= 1000"),
        ], id="cycle"),
]


def test_min_split_runs_each_distinct_m_once(monkeypatch):
    calls = []

    def counting(fn, params, *args, **kwargs):
        calls.append(params)
        return _run_reps(fn, params, *args, **kwargs)

    monkeypatch.setattr(experiments_module, "_run_reps", counting)
    _, rows, checks = _FROZEN_SUITES[0].values
    assert exp_min_split((4, 16, 4), 8, 2024) == (rows, checks)
    assert calls == [(4, 1), (16, 1)]
    # the m < 2 refusal comes before any repetition
    calls.clear()
    with pytest.raises(InvalidConfigError):
        exp_min_split((4, 1, 16), 8, 2024)
    assert calls == []


@pytest.mark.parametrize("run, rows, checks", _FROZEN_SUITES)
def test_suite_outputs_are_frozen(run, rows, checks):
    assert run() == (rows, checks)


_THREAD_SUITES = {
    "min-split": lambda th: exp_min_split((4, 100), 11, 15, threads=th),
    "bridge": lambda th: exp_bridge_number(100, 5, 9, 15, threads=th),
    "phase": lambda th: exp_phase_transition(3000, 3000, (-0.2, 0.2), 5, 15,
                                             threads=th),
    "giant": lambda th: exp_giant_benchmark(10 ** 4, 2.0, 6, 15, threads=th),
    "cycle": lambda th: exp_cycle(2000, 2000, 129.0, 0.5, 5, 15, threads=th),
}


@pytest.mark.parametrize("suite", list(_THREAD_SUITES))
def test_threads_do_not_change_results(suite):
    run = _THREAD_SUITES[suite]
    assert run(1) == run(2)


_ZERO_REPS = [
    (exp_min_split, {"m_grid": (4, 16)}),
    (exp_bridge_number, {"m": 100, "t": 5}),
    (exp_min_double_bridge, {"t_grid": (10, 100)}),
    (exp_tree_size_law, {"m": 1000, "t": 10}),
    (exp_phase_transition, {"n": 3000, "c": 3000, "eps_grid": (-0.2, 0.2)}),
    (exp_giant_benchmark, {"n": 1000, "d": 2.0}),
    (exp_cycle, {"n": 2000, "c": 2000, "d": 129.0, "delta": 0.5}),
]


@pytest.mark.parametrize("run, kw", _ZERO_REPS,
                         ids=[run.__name__ for run, _ in _ZERO_REPS])
def test_suites_refuse_zero_reps(run, kw):
    with pytest.raises(InvalidConfigError, match="need reps >= 1"):
        run(**kw, reps=0, seed=1)


@pytest.mark.parametrize("reps", [2.5, True])
@pytest.mark.parametrize("run, kw", _ZERO_REPS,
                         ids=[run.__name__ for run, _ in _ZERO_REPS])
def test_suites_refuse_non_integer_reps(monkeypatch, run, kw, reps):
    # refused before any draw: no generator is made or reset
    def no_draw(*args, **kwargs):
        raise AssertionError("a repetition drew")

    monkeypatch.setattr(experiments_module, "_rep_job", no_draw)
    monkeypatch.setattr(RngStream, "generator", no_draw)
    with pytest.raises(ValueError) as info:
        run(**kw, reps=reps, seed=1)
    assert str(info.value) == f"reps must be an integer, got {reps!r}"
    assert not isinstance(info.value, InvalidConfigError)


_SIZED = [
    (exp_phase_transition, {"c": 3000, "eps_grid": (0.2,)}),
    (exp_phase_transition, {"c": 3000, "eps_grid": (-0.2,)}),
    (exp_giant_benchmark, {"d": 2.0}),
    (exp_cycle, {"c": 2000, "d": 129.0, "delta": 0.5}),
]


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("run, kw", _SIZED,
                         ids=["phase-super", "phase-sub", "giant", "cycle"])
def test_sized_suites_refuse_n_below_one(monkeypatch, run, kw, n):
    def no_draw(*args, **kwargs):
        raise AssertionError("a repetition ran")

    monkeypatch.setattr(experiments_module, "_run_reps", no_draw)
    with pytest.raises(InvalidConfigError, match="need n >= 1"):
        run(n=n, **kw, reps=2, seed=1)


_OUTSIDE = (InvalidProbabilityError, r"edge probability .* is outside \[0, 1\]")


@pytest.mark.parametrize("run, args, error", [
    (exp_min_split, ((4, 1), 10, 1),
     (InvalidConfigError, "min-split needs m >= 2")),
    (exp_min_split, ((4.5,), 2, 1), (ValueError, "m must be an integer")),
    (exp_bridge_number, (10, 0, 2, 1),
     (InvalidRootCountError, "need 1 <= t <= m")),
    (exp_min_double_bridge, ((10, 0), 200, 1),
     (InvalidRootCountError, "need 1 <= t <= m")),
    (exp_phase_transition, (100, 100, (-0.1, 0.0), 2, 1),
     (InvalidConfigError, "eps must be nonzero")),
    (exp_phase_transition, (100, 0, (0.1,), 2, 1), (ValueError, "need c >= 1")),
    (exp_phase_transition, (100, 2.5, (-0.1,), 2, 1),
     (ValueError, "c must be an integer")),
    (exp_phase_transition, (1, 1, (0.1,), 2, 1), _OUTSIDE),
    (exp_phase_transition, (1, 1, (-0.1, 0.1), 2, 1), _OUTSIDE),
    (exp_phase_transition, (10, 10, (-0.1, -11.0), 2, 1), _OUTSIDE),
    (exp_phase_transition, (10, 10, (-0.1, float("nan")), 2, 1), _OUTSIDE),
    (exp_giant_benchmark, (1, 2.0, 2, 1), _OUTSIDE),
    (exp_giant_benchmark, (100, -1.0, 2, 1), _OUTSIDE),
    (exp_giant_benchmark, (2.5, 2.0, 2, 1), (ValueError, "n must be an integer")),
    (exp_cycle, (100, 100, 0.5, 0.5, 2, 1), _OUTSIDE),
    (exp_cycle, (200, 0, 129.0, 0.5, 2, 1), (ValueError, "need c >= 1")),
], ids=["min-split-grid", "min-split-non-integer", "bridge-no-root",
        "double-bridge-grid", "phase-grid", "phase-no-colour",
        "phase-non-integer-c", "phase-super", "phase-sub-then-super",
        "phase-sub-negative", "phase-nan", "giant", "giant-negative",
        "giant-non-integer-n", "cycle-below-one", "cycle-no-colour"])
def test_suites_check_grid_and_probabilities_before_any_repetition(
        monkeypatch, run, args, error):
    def no_draw(*args, **kwargs):
        raise AssertionError("a repetition ran")

    # the double-bridge suite draws from one stream per t, not by _run_reps
    for name in ("_run_reps", "min_double_bridge_samples"):
        monkeypatch.setattr(experiments_module, name, no_draw)
    with pytest.raises(error[0], match=error[1]):
        run(*args)


@pytest.mark.parametrize("call, p", [
    (lambda: sample_gnp(10, 1.5, RngStream(1)), "1.5"),
    (lambda: sample_gnp(10, -0.5, RngStream(1)), "-0.5"),
    (lambda: sample_gnp(10, float("nan"), RngStream(1)), "nan"),
    (lambda: exp_phase_transition(10, 10, (10.0,), 2, 1), "1.1"),
    (lambda: exp_giant_benchmark(10, 20.0, 2, 1), "2.0"),
    (lambda: exp_cycle(100, 100, 129.0, 0.5, 2, 1), "1.29"),
    (lambda: find_rainbow_cycle_weakly_super(1, 5, 0.5, RngStream(1)), "2.0"),
], ids=["gnp-above", "gnp-below", "gnp-nan", "phase", "giant", "cycle",
        "cycle-finder"])
def test_every_probability_entry_point_gives_the_one_refusal(call, p):
    with pytest.raises(InvalidProbabilityError) as info:
        call()
    assert str(info.value) == f"edge probability {p} is outside [0, 1]"


_KEY_SEEDS = [0, 1, 2024, 2 ** 32 - 1, 2 ** 32, 2 ** 63 + 5, 2 ** 64 - 1,
              2 ** 64, 2 ** 64 + 1, 2 ** 128 + 3, 2 ** 200 + 7]


@pytest.mark.parametrize("seed", _KEY_SEEDS)
def test_stream_keys_match_seed_sequence(seed):
    # 11 seeds x 1000 streams, from 0 up and across 2^32 and 2^64 - 1
    rng = np.random.default_rng(seed % 2 ** 64)
    streams = np.concatenate([
        np.arange(900, dtype=np.uint64),
        np.array([2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 40 + 7, 2 ** 63,
                  2 ** 64 - 1], dtype=np.uint64),
        rng.integers(0, 2 ** 64 - 1, size=94, dtype=np.uint64, endpoint=True),
    ])
    got = _stream_keys(seed, streams)
    assert len(got) == streams.size
    for key, stream in zip(got, streams.tolist()):
        want = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
        assert key == want.generate_state(2, np.uint64).tolist()


def test_stream_keys_refuse_a_negative_seed():
    with pytest.raises(ValueError):
        _stream_keys(-1, np.arange(3, dtype=np.uint64))
    with pytest.raises(ValueError):
        _run_reps(_rep_bridge, (4, 1), 3, -1)


def _odd_draws(k, gen):
    """k 32-bit draws, leaving a spare 32-bit value when k is odd, then a
    double, leaving Philox's 4-word buffer part-read."""
    return (gen.integers(0, 2 ** 32, size=k, dtype=np.uint32).tolist(),
            gen.random(), gen.integers(0, 2 ** 32, dtype=np.uint32).item())


@pytest.mark.parametrize("k", [1, 3, 5])
def test_reused_generator_starts_each_repetition_afresh(k):
    # a repetition that leaves a spare 32-bit value and a part-read buffer
    # must not leak either into the next one
    got = _run_reps(_odd_draws, (k,), 6, 2024)
    assert got == [_odd_draws(k, RngStream(2024, rep).generator())
                   for rep in range(6)]


@pytest.mark.parametrize("threads, reps, cores, workers", [
    (64, 3, 64, 3),     # no more workers than repetitions
    (64, 10, 2, 2),     # nor than cores
    (2, 10, 64, 2),
    (64, 10, None, 1),  # core count unknown: serial
    (64, 1, 64, 1),
])
def test_run_reps_caps_the_worker_pool(monkeypatch, threads, reps, cores,
                                       workers):
    import concurrent.futures
    pools = []

    class SerialPool:
        """Records how it was asked for and maps in this process."""

        def __init__(self, max_workers):
            pools.append({"max_workers": max_workers})

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            pools[-1]["chunksize"] = chunksize
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    got = _run_reps(_rep_bridge, (100, 5), reps, 2024, threads=threads)
    assert got == _run_reps(_rep_bridge, (100, 5), reps, 2024)
    if workers == 1:
        assert pools == []
    else:
        assert pools == [{"max_workers": workers,
                          "chunksize": max(1, reps // (workers * 4))}]


def test_write_csv_byte_stable(tmp_path):
    rows, checks = exp_min_split((4, 16), 1000, 16)
    config = ExperimentConfig(name="min-split", reps=1000, seed=16)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_csv(p1, [(config, rows, checks)])
    write_csv(p2, [(config, rows, checks)])
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header.startswith("# {") and json.loads(header[2:])["seed"] == 16


def test_raw_records_json():
    rows, checks = exp_giant_benchmark(10 ** 4, 2.0, 3, 17)
    blob = json.loads(raw_records([(ExperimentConfig("giant", 3, 17), rows,
                                    checks)]))
    assert blob["config"]["seed"] == 17
    assert len(blob["rows"]) == 1 and len(blob["checks"]) == 1


def _two_suites():
    a = (ExperimentConfig("alpha", 2, 5, (("m", 4),)),
         [SummaryRow((("m", 4), ("stat", "x")), 1.5, 0.25, 2, 2.0, "sqrt(m)"),
          SummaryRow((("m", 9),), 3.0, 0.0, 2, 3.0, "a, b")],
         [EnvelopeCheck("a_ok", True, 1.5, "<= 2")])
    b = (ExperimentConfig("beta", 3, 6),
         [SummaryRow((("n", 10),), 0.5, 0.125, 3, 1.0, "one")],
         [EnvelopeCheck("b_low", False, 0.5, ">= 1"),
          EnvelopeCheck("b_high", True, 0.5, "<= 2")])
    return [a, b]


def test_write_csv_two_suites(tmp_path):
    path = tmp_path / "two.csv"
    write_csv(path, _two_suites())
    lines = path.read_text().splitlines()
    assert [json.loads(ln[2:])["experiment"] for ln in lines[:2]] == \
        ["alpha", "beta"]
    assert json.loads(lines[0][2:]) == {"experiment": "alpha", "reps": 2,
                                        "seed": 5, "m": 4,
                                        "envelopes_version":
                                            ENVELOPES_VERSION}
    assert lines[2:] == [
        "experiment,params,mean,std,reps,reference,formula",
        "alpha,m=4;stat=x,1.5,0.25,2,2.0,sqrt(m)",
        "alpha,m=9,3.0,0.0,2,3.0,a; b",
        "beta,n=10,0.5,0.125,3,1.0,one",
        "# check a_ok PASS observed=1.5 bound=<= 2",
        "# check b_low FAIL observed=0.5 bound=>= 1",
        "# check b_high PASS observed=0.5 bound=<= 2",
    ]


def test_raw_records_two_suites():
    suites = _two_suites()
    blobs = json.loads(raw_records(suites))
    assert isinstance(blobs, list) and len(blobs) == 2
    assert blobs[0] == {
        "config": suites[0][0].as_dict(),
        "rows": [{"params": {"m": 4, "stat": "x"}, "mean": 1.5, "std": 0.25,
                  "reps": 2, "reference": 2.0, "formula": "sqrt(m)"},
                 {"params": {"m": 9}, "mean": 3.0, "std": 0.0, "reps": 2,
                  "reference": 3.0, "formula": "a, b"}],
        "checks": [{"name": "a_ok", "passed": True, "observed": 1.5,
                    "bound": "<= 2"}],
    }
    assert [c["name"] for c in blobs[1]["checks"]] == ["b_low", "b_high"]
    # one suite is the bare object, not a list of one
    assert json.loads(raw_records(suites[1:])) == blobs[1]


# ---------------------------------------------------------------------------
# the edge-pair sampler against its earlier body

class ReferencePairSizeSampler(_PairSizeSampler):
    """The edge-pair sampler with its draw as it was before each uniform got
    one region; kept verbatim as the reference for the current body."""

    def draw(self, gen) -> int:
        m = self.m
        while True:
            a = self.first.sample(gen)
            sampler = self.rest.get(m - a)
            if sampler is None:
                sampler = RootTreeSizeSampler(m - a, self.t + 1)
                self.rest[m - a] = sampler
            b = sampler.sample(gen)
            x = float(gen.random())
            y = float(gen.random())
            u_in_1 = x < a / m
            u_in_2 = (not u_in_1) and x < (a + b) / m
            v_in_1 = y < a / m
            v_in_2 = (not v_in_1) and y < (a + b) / m
            if u_in_1 or v_in_2 or (u_in_2 and v_in_1):
                continue  # the two added edges would not leave a rooted forest
            if u_in_2:
                return a
            if v_in_1:
                return b
            return min(a, b)


@pytest.mark.parametrize("m, t", [(4, 2), (12, 10), (5, 2), (10, 1),
                                  (40, 4), (300, 3)])
@pytest.mark.parametrize("stream", [0, 1, 2])
def test_pair_sampler_matches_reference(m, t, stream):
    got_gen = RngStream(2323, stream).generator()
    want_gen = RngStream(2323, stream).generator()
    got = _PairSizeSampler(m, t)
    want = ReferencePairSizeSampler(m, t)
    draws = [got.draw(got_gen) for _ in range(3000)]
    assert draws == [want.draw(want_gen) for _ in range(3000)]
    assert all(type(x) is int for x in draws)
    assert got_gen.random() == want_gen.random()

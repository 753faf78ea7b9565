import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare, ks_2samp

from rainbowsim import models
from rainbowsim.graphs import ColouredGraph, InvalidRootCountError
from rainbowsim.models import (DegreeSequence, InvalidProbabilityError,
                               OddDegreeSumError, RngStream,
                               RootTreeSizeSampler, as_generator,
                               colour_uniform,
                               expected_colour_fraction, sample_configuration,
                               sample_gnp, sample_uniform_forest,
                               survival_probability,
                               _iter_wilson_parents)
from rainbowsim.oracles import enumerate_forests, forest_count

CHI2_SIGNIFICANCE = 1e-3


# ---------------------------------------------------------------------------
# RNG streams

def test_stream_reproducibility():
    a = RngStream(7, 3).generator().integers(0, 1000, size=20)
    b = RngStream(7, 3).generator().integers(0, 1000, size=20)
    c = RngStream(7, 4).generator().integers(0, 1000, size=20)
    assert a.tolist() == b.tolist()
    assert a.tolist() != c.tolist()


# ---------------------------------------------------------------------------
# G(n, p)

def test_gnp_trivial_cases():
    assert sample_gnp(100, 0.0, RngStream(1)).m == 0
    g = sample_gnp(4, 1.0, RngStream(1))
    assert g.m == 6
    with pytest.raises(InvalidProbabilityError):
        sample_gnp(10, 1.5, RngStream(1))
    with pytest.raises(InvalidProbabilityError):
        sample_gnp(10, -0.1, RngStream(1))


def test_gnp_refuses_negative_n():
    with pytest.raises(ValueError, match="need n >= 0, got -5"):
        sample_gnp(-5, 0.5, RngStream(1))


def test_gnp_simple_and_in_range():
    g = sample_gnp(500, 0.02, RngStream(2))
    assert (g.u != g.v).all()
    assert g.u.max() < 500 and g.v.max() < 500
    key = np.minimum(g.u, g.v) * 500 + np.maximum(g.u, g.v)
    assert len(np.unique(key)) == g.m


def test_gnp_edge_count_binomial():
    # binomial oracle: mean N p, sd sqrt(N p (1-p)), each seed within 4 sd
    n, p = 10 ** 5, 1.0 / 10 ** 5
    big_n = n * (n - 1) // 2
    mean = big_n * p
    sd = math.sqrt(big_n * p * (1 - p))
    for seed in range(100):
        m = sample_gnp(n, p, RngStream(7000 + seed)).m
        assert abs(m - mean) <= 4 * sd


def test_gnp_edge_count_exchangeable_under_relabelling():
    counts_plain = []
    counts_perm = []
    for seed in range(200):
        g = sample_gnp(200, 0.02, RngStream(8000 + seed))
        counts_plain.append(g.m)
        g2 = sample_gnp(200, 0.02, RngStream(9000 + seed))
        perm = RngStream(9500 + seed).generator().permutation(200)
        relabelled = ColouredGraph(n=200, c=0, u=perm[g2.u], v=perm[g2.v],
                                   colour=g2.colour)
        counts_perm.append(relabelled.m)
    assert ks_2samp(counts_plain, counts_perm).pvalue > CHI2_SIGNIFICANCE


# ---------------------------------------------------------------------------
# colouring

def test_colour_uniform_single_colour():
    g = colour_uniform(sample_gnp(20, 0.5, RngStream(3)), 1, RngStream(4))
    assert (g.colour == 1).all() and g.c == 1


def test_colour_k4_many_colours_rainbow():
    # collision probability <= 15/10^6 per pair; 100 seeds all rainbow
    for seed in range(100):
        g = colour_uniform(sample_gnp(4, 1.0, RngStream(seed)), 10 ** 6,
                           RngStream(10_000 + seed))
        assert len(np.unique(g.colour)) == 6


def test_colour_deterministic():
    g = sample_gnp(30, 0.3, RngStream(5))
    a = colour_uniform(g, 7, RngStream(6)).colour
    b = colour_uniform(g, 7, RngStream(6)).colour
    assert a.tolist() == b.tolist()


# ---------------------------------------------------------------------------
# configuration model

def test_configuration_forced_matchings():
    g = sample_configuration([2], RngStream(1))
    assert (g.u.tolist(), g.v.tolist(), g.colour.tolist()) == ([0], [0], [0])
    g = sample_configuration([1, 1], RngStream(2))
    assert (g.u.tolist(), g.v.tolist(), g.colour.tolist()) == ([0], [1], [0])


def test_configuration_two_two_frequencies():
    # 3 matchings of 4 half-edges: 2 give parallel edges, 1 gives two loops
    gen = RngStream(11).generator()
    parallel = 0
    for _ in range(10 ** 4):
        g = sample_configuration([2, 2], gen)
        if (g.u != g.v).all():
            parallel += 1
    assert abs(parallel / 10 ** 4 - 2 / 3) <= 0.02


def test_configuration_preserves_degrees():
    gen = RngStream(12).generator()
    for _ in range(20):
        size = int(gen.integers(2, 12))
        degs = gen.integers(0, 6, size=size)
        if degs.sum() % 2 == 1:
            degs[0] += 1
        for _ in range(50):
            g = sample_configuration(degs, gen)
            assert g.degrees().tolist() == degs.tolist()


def test_configuration_odd_sum_rejected():
    with pytest.raises(OddDegreeSumError):
        sample_configuration([1, 2], RngStream(1))
    with pytest.raises(OddDegreeSumError):
        DegreeSequence(np.array([3]))


# ---------------------------------------------------------------------------
# uniform forests

def test_forest_all_roots():
    f = sample_uniform_forest(4, 4, RngStream(1))
    assert (f.parent == -1).all()


def test_forest_invalid_roots():
    with pytest.raises(InvalidRootCountError):
        sample_uniform_forest(4, 0, RngStream(1))
    with pytest.raises(InvalidRootCountError):
        sample_uniform_forest(4, 5, RngStream(1))


def test_forest_4_1_uniform():
    gen = RngStream(21).generator()
    counts = Counter()
    for par in _iter_wilson_parents(4, 1, gen, count=10 ** 5):
        counts[tuple(par)] += 1
    assert len(counts) == 16
    assert chisquare(list(counts.values())).pvalue > CHI2_SIGNIFICANCE


def test_forest_4_2_support_matches_enumeration():
    expected = set(enumerate_forests(4, 2))
    gen = RngStream(22).generator()
    counts = Counter()
    for par in _iter_wilson_parents(4, 2, gen, count=10 ** 5):
        counts[tuple(par)] += 1
    assert set(counts) == expected and len(expected) == 8
    assert chisquare(list(counts.values())).pvalue > CHI2_SIGNIFICANCE


def test_forest_samples_satisfy_invariants():
    gen = RngStream(23).generator()
    for _ in range(200):
        m = int(gen.integers(1, 30))
        t = int(gen.integers(1, m + 1))
        sample_uniform_forest(m, t, gen).check()


def test_forest_uniformity_all_small_cases():
    # every (m, t) with m <= 6: support size matches the closed form and the
    # empirical distribution over 10^6 draws passes a chi-square test
    for m in range(1, 7):
        for t in range(1, m + 1):
            expect = forest_count(m, t)
            gen = RngStream(31 * m + t).generator()
            counts = Counter()
            for par in _iter_wilson_parents(m, t, gen, count=10 ** 6):
                counts[tuple(par)] += 1
            assert len(counts) == expect
            if expect > 1:
                assert chisquare(list(counts.values())).pvalue > CHI2_SIGNIFICANCE


def chunk_tolist_iter_wilson_parents(m: int, t: int, gen, count: int):
    """_iter_wilson_parents when it converted each whole draw chunk to
    Python ints as soon as it was drawn, kept verbatim as the reference."""
    chunk = min(1 << 15, max(64, 4 * m))  # fixes the draw sequence
    hi = m - 1
    buf: list = []
    ptr = chunk                     # the first draw fills the buffer
    for _ in range(count):
        parent = [-1] * m
        in_forest = bytearray([1]) * t + bytearray(m - t)
        for i in range(t, m):
            u = i
            while not in_forest[u]:
                if ptr == chunk:
                    buf = gen.integers(0, hi, size=chunk).tolist()
                    ptr = 0
                x = buf[ptr]
                ptr += 1
                if x >= u:
                    x += 1
                parent[u] = x
                u = x
            u = i
            while not in_forest[u]:
                in_forest[u] = 1
                u = parent[u]
        yield parent


# chunks of 64 (m <= 16), of 256 = one slice (m = 64), of one slice and 4
# draws (m = 65), of several slices, and at the 32768 cap (m >= 8192); the
# first walk goes to numpy from m - 1 = 256 t on: (256, 1) and (2048, 8)
# stay scalar, (257, 1) and (2049, 8) do not; at m = 257 most first walks
# repeat a draw, and at (300, 1, 200) some first walks cross a chunk end
_WILSON_CASES = [(1, 1, 50), (2, 1, 400), (4, 1, 300), (6, 3, 300),
                 (16, 1, 100), (64, 1, 40), (65, 1, 40), (100, 7, 20),
                 (256, 1, 40), (257, 1, 60), (300, 1, 200), (1000, 50, 12),
                 (1600, 1, 3), (2048, 8, 4), (2049, 8, 4), (8192, 1, 2),
                 (9000, 3, 3), (20000, 1, 1)]


@pytest.mark.parametrize("m, t, count", _WILSON_CASES)
def test_wilson_draws_match_chunk_tolist_reference(m, t, count):
    for stream in range(3):
        # bulk: one shared buffer across every sample
        got_gen = RngStream(4600 + m, stream).generator()
        want_gen = RngStream(4600 + m, stream).generator()
        assert (list(_iter_wilson_parents(m, t, got_gen, count))
                == list(chunk_tolist_iter_wilson_parents(m, t, want_gen,
                                                          count)))
        assert got_gen.random() == want_gen.random()
        # single: a fresh buffer per sample, on one generator
        for _ in range(min(count, 5)):
            got = sample_uniform_forest(m, t, got_gen).parent.tolist()
            assert got == next(chunk_tolist_iter_wilson_parents(
                m, t, want_gen, 1))
            assert got_gen.random() == want_gen.random()


class _RecordingGen:
    """A generator that keeps every draw chunk it hands out."""

    def __init__(self, gen):
        self.gen = gen
        self.chunks = []

    def integers(self, *args, **kwargs):
        self.chunks.append(self.gen.integers(*args, **kwargs))
        return self.chunks[-1]


def _first_walk_draws(monkeypatch, m, t, count):
    """The raw draws each numpy first walk read, and whether it crossed a
    chunk end, spied on one bulk run."""
    walks = []
    first_walk = models._first_walk

    def spy(m, t, gen, chunk, draws, pos, parent, in_forest):
        before = len(gen.chunks)
        draws_out, pos_out = first_walk(m, t, gen, chunk, draws, pos,
                                        parent, in_forest)
        new = gen.chunks[before:]
        if not new:
            walks.append((draws[pos:pos_out], False))
        else:
            read = ([draws[pos:]] if pos < chunk else []) + new[:-1]
            walks.append((np.concatenate(read + [new[-1][:pos_out]]),
                          len(read) > 0))
        return draws_out, pos_out

    monkeypatch.setattr(models, "_first_walk", spy)
    gen = _RecordingGen(RngStream(4600 + m, 0).generator())
    assert len(list(_iter_wilson_parents(m, t, gen, count))) == count
    assert len(walks) == count
    for r, _ in walks:
        # a first walk ends at its first draw below t
        assert r[-1] < t and (r[:-1] >= t).all()
    return walks


def test_wilson_first_walk_crosses_chunk_ends(monkeypatch):
    walks = _first_walk_draws(monkeypatch, 300, 1, 200)
    assert any(crossed for _, crossed in walks)


def test_wilson_first_walk_repeats_draws(monkeypatch):
    # a repeated draw r_k == r_(k-1) is the step whose vertex numpy fixes
    # in order; at m = 257 most first walks take one
    walks = _first_walk_draws(monkeypatch, 257, 1, 60)
    assert 2 * sum((r[1:] == r[:-1]).any() for r, _ in walks) > len(walks)


def test_wilson_first_walk_takes_narrow_numpy_counts():
    # 256 t overflows an int8 t; the forest is the one Python ints give
    for m, t in [(np.int16(300), np.int8(1)), (np.int16(2049), np.int8(8))]:
        got = sample_uniform_forest(m, t, RngStream(7)).parent.tolist()
        assert got == sample_uniform_forest(int(m), int(t),
                                            RngStream(7)).parent.tolist()


def test_wilson_first_walk_stays_scalar_below_the_switch(monkeypatch):
    def fail(*args):
        raise AssertionError("numpy first walk below the switch")

    monkeypatch.setattr(models, "_first_walk", fail)
    for m, t in [(4, 1), (256, 1), (1000, 50), (2048, 8)]:
        list(_iter_wilson_parents(m, t, RngStream(m).generator(), 3))
        sample_uniform_forest(m, t, RngStream(m))


# ---------------------------------------------------------------------------
# root-tree-size marginal sampler

def test_root_tree_size_pmf_matches_enumeration():
    for (m, t) in [(5, 2), (6, 2), (6, 3)]:
        forests = enumerate_forests(m, t)
        counts = Counter()
        for par in forests:
            size = 1
            changed = True
            members = {0}
            while changed:
                changed = False
                for w in range(t, m):
                    if w not in members and par[w] in members:
                        members.add(w)
                        changed = True
            counts[len(members)] += 1
        sampler = RootTreeSizeSampler(m, t)
        for k in range(1, m - t + 2):
            assert math.exp(sampler._log_pmf(k)) == pytest.approx(
                counts.get(k, 0) / len(forests), abs=1e-12)


def test_root_tree_size_sampler_matches_wilson():
    m, t = 12, 3
    gen = RngStream(41).generator()
    sampler = RootTreeSizeSampler(m, t)
    fast = Counter(sampler.sample(gen) for _ in range(40000))
    gen2 = RngStream(42).generator()
    slow = Counter()
    for par in _iter_wilson_parents(m, t, gen2, count=40000):
        members = {0}
        changed = True
        while changed:
            changed = False
            for w in range(t, m):
                if w not in members and par[w] in members:
                    members.add(w)
                    changed = True
        slow[len(members)] += 1
    ks = range(1, m - t + 2)
    f_obs = np.array([fast.get(k, 0) for k in ks], dtype=float)
    f_exp = np.array([slow.get(k, 0) for k in ks], dtype=float)
    keep = (f_obs + f_exp) >= 20
    res = chisquare(f_obs[keep], f_exp[keep] * f_obs[keep].sum() / f_exp[keep].sum())
    assert res.pvalue > CHI2_SIGNIFICANCE


def test_root_tree_size_degenerate_cases():
    assert RootTreeSizeSampler(7, 1).sample(RngStream(1).generator()) == 7
    assert RootTreeSizeSampler(5, 5).sample(RngStream(1).generator()) == 1


def test_conditional_tree_size_one_sided_bound():
    # E[|T_root| | v not in T_root] <= m/t; only the upper side is claimed,
    # so the test stays one-sided
    m, t, v = 30, 5, 7
    gen = RngStream(45).generator()
    total = 0
    hits = 0
    for par in _iter_wilson_parents(m, t, gen, count=20000):
        members = {0}
        changed = True
        while changed:
            changed = False
            for w in range(t, m):
                if w not in members and par[w] in members:
                    members.add(w)
                    changed = True
        if v not in members:
            total += len(members)
            hits += 1
    cond_mean = total / hits
    assert cond_mean <= m / t * 1.02


# ---------------------------------------------------------------------------
# survival probability

def fixed_point_gamma(d, tol=1e-12):
    """Independent oracle: damped fixed-point iteration of g = 1 - exp(-g d)."""
    g = 0.5
    for _ in range(100000):
        nxt = 1.0 - math.exp(-d * g)
        if abs(nxt - g) < tol:
            return nxt
        g = nxt
    return g


def test_survival_subcritical_zero():
    assert survival_probability(0.3) == 0.0
    assert survival_probability(1.0) == 0.0


def test_survival_matches_fixed_point_oracle():
    assert survival_probability(2.0) == pytest.approx(fixed_point_gamma(2.0),
                                                      abs=1e-10)
    assert survival_probability(2.0) == pytest.approx(0.796812, abs=1e-6)


def test_survival_residual_and_monotone():
    grid = [1.01, 1.1, 2.0, 5.0, 20.0]
    prev = 0.0
    for d in grid:
        g = survival_probability(d)
        assert abs(1.0 - g - math.exp(-g * d)) <= 1e-10
        assert g > prev
        prev = g
    assert survival_probability(20.0) > 0.999


# ---------------------------------------------------------------------------
# expected colour fraction

def test_colour_fraction_limits():
    assert expected_colour_fraction(1e9, 2.0) == pytest.approx(0.0, abs=1e-6)
    assert expected_colour_fraction(1.0, 1.0 + 1e-9) == pytest.approx(0.0, abs=1e-4)


def test_colour_fraction_direct_evaluation():
    g = survival_probability(2.0)
    want = 1.0 - (1.0 - g) ** (1.0 - g / 2.0)
    assert expected_colour_fraction(1.0, 2.0) == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError):
        expected_colour_fraction(0.0, 2.0)
    with pytest.raises(ValueError):
        expected_colour_fraction(1.0, 0.9)


# ---------------------------------------------------------------------------
# the configuration sampler against its earlier body

def reference_sample_configuration(d, rng=None) -> ColouredGraph:
    """The configuration sampler as it was before it read the matching off
    its stub list; kept verbatim as the reference for the current body."""
    if isinstance(d, DegreeSequence):
        degs = d.degrees
    else:
        degs = DegreeSequence(np.asarray(d)).degrees
    gen = as_generator(rng)
    stubs = np.repeat(np.arange(len(degs), dtype=np.int64), degs).tolist()
    k = len(stubs)
    us, vs = [], []
    i = 0
    while i < k:
        j = int(gen.integers(i + 1, k))
        stubs[i + 1], stubs[j] = stubs[j], stubs[i + 1]
        us.append(stubs[i])
        vs.append(stubs[i + 1])
        i += 2
    u = np.array(us, dtype=np.int64)
    v = np.array(vs, dtype=np.int64)
    return ColouredGraph._trusted(len(degs), 0, u, v,
                                  np.zeros(len(u), dtype=np.int64), True)


@st.composite
def degree_sequences(draw):
    """Degree sequences with an even sum: an odd sum is fixed by one more
    degree-1 vertex or by one more half-edge at the first vertex."""
    degs = draw(st.lists(st.integers(0, 6), max_size=25))
    if sum(degs) % 2:
        if draw(st.booleans()):
            degs.append(1)
        else:
            degs[0] += 1
    form = draw(st.sampled_from(["list", "int32", "sequence"]))
    if form == "int32":
        return np.array(degs, dtype=np.int32)
    if form == "sequence":
        return DegreeSequence(degs)
    return degs


@settings(max_examples=300, deadline=None)
@given(degree_sequences(), st.integers(0, 2 ** 32))
@example([], 1)
@example([0, 0, 0], 2)
@example([2], 3)
def test_configuration_matches_reference(degs, seed):
    got_gen, want_gen = RngStream(seed).generator(), RngStream(seed).generator()
    got = sample_configuration(degs, got_gen)
    want = reference_sample_configuration(degs, want_gen)
    assert (got.n, got.c, got.multigraph) == (want.n, want.c, want.multigraph)
    for a, b in ((got.u, want.u), (got.v, want.v), (got.colour, want.colour)):
        assert a.dtype == b.dtype and a.flags.c_contiguous
        assert a.tolist() == b.tolist()
    assert got_gen.random() == want_gen.random()


# ---------------------------------------------------------------------------
# vertex and colour counts must be integers

@pytest.mark.parametrize("n", [2.5, 3.0])
def test_gnp_refuses_a_non_integer_n_before_any_draw(n):
    gen = RngStream(1).generator()
    with pytest.raises(ValueError, match="n must be an integer"):
        sample_gnp(n, 0.5, gen)
    assert gen.random() == RngStream(1).generator().random()


@pytest.mark.parametrize("c", [2.5, 3.0])
def test_colour_uniform_refuses_a_non_integer_c_before_any_draw(c):
    g = sample_gnp(6, 0.5, RngStream(2))
    gen = RngStream(1).generator()
    with pytest.raises(ValueError, match="c must be an integer"):
        colour_uniform(g, c, gen)
    assert gen.random() == RngStream(1).generator().random()


def test_numpy_integer_counts_are_accepted():
    g = sample_gnp(np.int64(5), 1.0, RngStream(1))
    assert g.n == 5 and g.m == 10
    coloured = colour_uniform(g, np.int64(5), RngStream(2))
    assert coloured.c == 5
    assert coloured.colour.min() >= 1 and coloured.colour.max() <= 5


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
def test_bool_counts_are_refused_before_any_draw(flag):
    # bool is an Integral, yet a flag is no vertex or colour count
    with pytest.raises(ValueError, match="n must be an integer"):
        ColouredGraph(flag, 0, [], [], [])
    with pytest.raises(ValueError, match="c must be an integer"):
        ColouredGraph(0, flag, [], [], [])
    gen = RngStream(1).generator()
    with pytest.raises(ValueError, match="n must be an integer"):
        sample_gnp(flag, 0.5, gen)
    with pytest.raises(ValueError, match="c must be an integer"):
        colour_uniform(sample_gnp(6, 0.5, RngStream(2)), flag, gen)
    assert gen.random() == RngStream(1).generator().random()


# ---------------------------------------------------------------------------
# refusals

@pytest.mark.parametrize("call, message", [
    (lambda: colour_uniform(sample_gnp(4, 1.0, RngStream(1)), 0), "need c >= 1"),
    (lambda: DegreeSequence([2, -2]), "degrees must be non-negative"),
    (lambda: survival_probability(-1), "need d >= 0"),
], ids=["colour-count", "negative-degree", "negative-mean"])
def test_model_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_as_generator_reads_an_int_as_a_seed():
    assert as_generator(5).random() == RngStream(5).generator().random()

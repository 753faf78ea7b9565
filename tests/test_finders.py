from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowsim.finders import (InvalidDeltaError, InvalidEpsilonError,
                                NotFoundError, check_cycle, close_cycle_edges,
                                find_rainbow_cycle_weakly_super, rbfs_forest,
                                rdfs_longest_path, sprinkle_close_cycle,
                                subcritical_rainbow_tree,
                                supercritical_rainbow_tree, _path_colours)
from rainbowsim.graphs import (ColouredGraph, EmptyCoreError, adjacency,
                               connected_components, is_rainbow)
from rainbowsim.models import (RngStream, colour_uniform, sample_gnp,
                               sample_uniform_forest)
from rainbowsim.oracles import exact_max_rainbow_tree


def tree_order(g, edge_ids):
    ids = np.asarray(edge_ids, dtype=np.int64)
    if ids.size == 0:
        return 1
    return len(np.unique(np.concatenate([g.u[ids], g.v[ids]])))


def random_coloured_tree(m, c, seed):
    """Uniform labelled tree as a coloured graph."""
    f = sample_uniform_forest(m, 1, RngStream(seed))
    edges = [(int(f.parent[w]), w) for w in range(1, m)]
    gen = RngStream(seed, 1).generator()
    cols = gen.integers(1, c + 1, size=m - 1)
    return ColouredGraph.from_edges(m, [(a, b, int(col)) for (a, b), col
                                        in zip(edges, cols)], c=c)


# ---------------------------------------------------------------------------
# subcritical finder

def test_subcritical_rainbow_path_kept_whole():
    g = ColouredGraph.from_edges(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3)], c=3)
    tree = subcritical_rainbow_tree(g)
    assert sorted(tree.tolist()) == [0, 1, 2]


def test_subcritical_duplicate_colours_split_path():
    g = ColouredGraph.from_edges(4, [(0, 1, 1), (1, 2, 2), (2, 3, 1)], c=2)
    tree = subcritical_rainbow_tree(g)
    assert tree.tolist() == [1]
    assert tree_order(g, tree) == 2


def test_subcritical_empty_graph():
    g = ColouredGraph.from_edges(3, [], c=1)
    assert subcritical_rainbow_tree(g).size == 0


def naive_duplicate_deletion(g):
    """Independent implementation: delete repeated colours, BFS the survivor."""
    col_count = Counter(g.colour.tolist())
    keep = [e for e in range(g.m) if col_count[int(g.colour[e])] == 1]
    adj = {}
    for e in keep:
        a, b = int(g.u[e]), int(g.v[e])
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    seen = set()
    best = 1
    for s in adj:
        if s in seen:
            continue
        comp = [s]
        seen.add(s)
        queue = [s]
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    queue.append(y)
        best = max(best, len(comp))
    return best


def test_subcritical_random_tree_envelope():
    # expected loss is O(m^2/c) colour pairs, each cutting an O(sqrt(m))
    # piece: about 20 vertices at (m, c) = (1000, 10^6), with a heavy
    # k^(-1/2) tail, so the mean is tight but high quantiles are not
    orders = []
    for seed in range(100):
        g = random_coloured_tree(1000, 10 ** 6, 5000 + seed)
        tree = subcritical_rainbow_tree(g)
        order = tree_order(g, tree)
        assert order == naive_duplicate_deletion(g)
        orders.append(order)
    assert sum(orders) / len(orders) >= 950
    assert sum(1 for o in orders if o >= 990) >= 75


def test_subcritical_optimal_on_rainbow_trees():
    for seed in range(20):
        m = 12
        g = random_coloured_tree(m, 10 ** 6, 6000 + seed)
        if len(np.unique(g.colour)) < g.m:
            continue
        tree = subcritical_rainbow_tree(g)
        best = exact_max_rainbow_tree(g)
        assert tree_order(g, tree) == tree_order(g, best) == m


# ---------------------------------------------------------------------------
# supercritical pipeline

def test_supercritical_rainbow_cycle_core():
    edges = [(i, (i + 1) % 5, i + 1) for i in range(5)]
    g = ColouredGraph.from_edges(5, edges, c=5)
    tree, report = supercritical_rainbow_tree(g)
    assert len(tree) == 4
    assert report.final_tree_order == 5
    assert report.core_order == 5 and report.non_unique_core_edges == 0


def test_supercritical_pendant_with_core_colour():
    g = ColouredGraph.from_edges(4, [(0, 1, 1), (1, 2, 2), (2, 0, 3), (2, 3, 2)], c=3)
    tree, report = supercritical_rainbow_tree(g)
    assert report.final_tree_order == 3
    assert report.deleted_shared_colour == 1
    assert report.colour_set_size == 3


def test_supercritical_empty_core_raises():
    g = ColouredGraph.from_edges(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3)], c=3)
    with pytest.raises(EmptyCoreError):
        supercritical_rainbow_tree(g)


def test_supercritical_tree_giant_beside_unicyclic_core_raises():
    # the giant is a tree; only the unicyclic triangle has a 2-core
    edges = [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4),
             (5, 6, 5), (6, 7, 6), (7, 5, 7)]
    g = ColouredGraph.from_edges(8, edges, c=7)
    with pytest.raises(EmptyCoreError):
        supercritical_rainbow_tree(g)


def test_supercritical_tree_giant_sample_raises_empty_core():
    # n = c = 2000, eps = 0.05: this stream's giant is a tree
    n, eps = 2000, 0.05
    gen = RngStream(7, 3).generator()
    g = colour_uniform(sample_gnp(n, (1.0 + eps) / n, gen), n, gen)
    with pytest.raises(EmptyCoreError):
        supercritical_rainbow_tree(g)


def test_supercritical_double_colour_keeps_bigger_branch():
    # rainbow 4-cycle core; colour 9 on a 2-vertex branch and a 1-vertex branch
    edges = [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4),
             (0, 4, 9), (4, 5, 10), (1, 6, 9)]
    g = ColouredGraph.from_edges(7, edges, c=10)
    tree, report = supercritical_rainbow_tree(g)
    ids = set(tree.tolist())
    assert 4 in ids and 5 in ids      # branch below (0,4) kept
    assert 6 not in ids               # smaller branch deleted
    assert report.deleted_double_colour == 1
    assert report.final_tree_order == 6


def test_supercritical_high_frequency_colour_deletes_all():
    edges = [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4),
             (0, 4, 9), (1, 5, 9), (2, 6, 9)]
    g = ColouredGraph.from_edges(7, edges, c=9)
    tree, report = supercritical_rainbow_tree(g)
    assert report.deleted_high_frequency == 3
    assert report.final_tree_order == 4


def test_supercritical_unrooted_trees_dropped():
    # two rainbow triangles; the smaller one's pendant is rooted off the
    # giant's kept core and must be deleted in the last pass
    edges = [(0, 1, 1), (1, 2, 2), (2, 0, 3), (2, 3, 4),   # giant: K3 + pendant
             (4, 5, 5), (5, 6, 6), (6, 4, 7), (6, 7, 8)]   # unicyclic comp
    g = ColouredGraph.from_edges(8, edges, c=8)
    tree, report = supercritical_rainbow_tree(g)
    ids = set(tree.tolist())
    assert ids == {0, 1, 3}  # giant triangle spanning tree + its pendant
    assert report.deleted_unrooted_trees == 4
    assert report.final_tree_order == 4


def test_supercritical_invariants_on_random_samples():
    done = 0
    for seed in range(60):
        gen = RngStream(7100 + seed).generator()
        g = colour_uniform(sample_gnp(300, 1.5 / 300, gen), 300, gen)
        try:
            tree, report = supercritical_rainbow_tree(g)
        except EmptyCoreError:
            continue
        done += 1
        assert is_rainbow(g, tree)
        assert report.final_tree_order == tree_order(g, tree)
        part = connected_components(g)
        assert report.final_tree_order <= part.sizes_desc[0] + \
            part.sizes_desc[1:].sum()
        for x in (report.deleted_shared_colour, report.deleted_high_frequency,
                  report.deleted_double_colour, report.deleted_unrooted_trees):
            assert x >= 0
    assert done >= 30


# ---------------------------------------------------------------------------
# rainbow DFS

def test_rdfs_full_rainbow_path():
    g = ColouredGraph.from_edges(5, [(i, i + 1, i + 1) for i in range(4)], c=4)
    trace = rdfs_longest_path(g, mode="greedy")
    assert trace.path == [0, 1, 2, 3, 4]
    assert trace.length == 4 and trace.stop_reason == "exhausted"


def test_rdfs_monochromatic_k4():
    edges = [(a, b, 1) for a in range(4) for b in range(a + 1, 4)]
    g = ColouredGraph.from_edges(4, edges, c=1)
    trace = rdfs_longest_path(g, mode="greedy")
    assert trace.length == 1


def test_rdfs_deterministic():
    gen = RngStream(81).generator()
    g = colour_uniform(sample_gnp(60, 0.1, gen), 30, gen)
    a = rdfs_longest_path(g, mode="greedy")
    b = rdfs_longest_path(g, mode="greedy")
    assert a.path == b.path and a.queries == b.queries \
        and a.accepted == b.accepted and a.stop_reason == b.stop_reason


def test_rdfs_faithful_budget_is_exact_cap():
    import math
    gen = RngStream(82).generator()
    g = colour_uniform(sample_gnp(40, 0.15, gen), 40, gen)
    delta = 0.2
    r = min(g.c, g.n)
    budget = math.ceil(delta * delta * r * g.n / 8)
    trace = rdfs_longest_path(g, mode="faithful", delta=delta)
    assert trace.queries <= budget
    if trace.stop_reason == "budget":
        assert trace.queries == budget
    assert trace.accepted <= trace.queries


def test_rdfs_queries_bounded_by_pairs():
    for seed in range(10):
        gen = RngStream(8300 + seed).generator()
        g = colour_uniform(sample_gnp(25, 0.3, gen), 10, gen)
        trace = rdfs_longest_path(g, mode="greedy")
        assert trace.queries <= g.n * (g.n - 1) // 2
        assert trace.accepted <= trace.queries


def test_rdfs_respects_invalid_mode_and_delta():
    g = ColouredGraph.from_edges(2, [(0, 1, 1)], c=1)
    with pytest.raises(ValueError):
        rdfs_longest_path(g, mode="other")
    with pytest.raises(InvalidDeltaError):
        rdfs_longest_path(g, mode="faithful", delta=1.5)


# ---------------------------------------------------------------------------
# rainbow BFS

def test_rbfs_rainbow_star():
    g = ColouredGraph.from_edges(6, [(0, k, k) for k in range(1, 6)], c=5)
    trace = rbfs_forest(g, mode="greedy")
    assert trace.order == 6


def test_rbfs_colour_clash_at_root():
    g = ColouredGraph.from_edges(3, [(0, 1, 7), (0, 2, 7)], c=7)
    trace = rbfs_forest(g, mode="greedy")
    assert trace.order == 2 and trace.accepted == 1


def test_rbfs_invalid_delta():
    g = ColouredGraph.from_edges(3, [(0, 1, 1), (1, 2, 2)], c=2)
    with pytest.raises(InvalidDeltaError):
        rbfs_forest(g, delta=1.2, mode="faithful")
    with pytest.raises(InvalidDeltaError):
        rbfs_forest(g, delta=0.9, alpha=0.5, mode="faithful")


def test_rbfs_faithful_runs_and_is_rainbow():
    gen = RngStream(84).generator()
    n = 3000
    g = colour_uniform(sample_gnp(n, 1.2 / n, gen), n, gen)
    trace = rbfs_forest(g, delta=0.02, mode="faithful", rng=RngStream(85))
    assert is_rainbow(g, trace.tree_edges)
    assert trace.stop_reason in ("target", "quota", "exhausted")


def test_rbfs_faithful_deterministic_given_stream():
    gen = RngStream(86).generator()
    g = colour_uniform(sample_gnp(500, 2.5 / 500, gen), 500, gen)
    a = rbfs_forest(g, delta=0.05, mode="faithful", rng=RngStream(87))
    b = rbfs_forest(g, delta=0.05, mode="faithful", rng=RngStream(87))
    assert a.tree_edges == b.tree_edges and a.queries == b.queries


def test_rbfs_greedy_linear_tree_envelope():
    # greedy mode on a weakly supercritical graph finds a rainbow tree far
    # above the (alpha/(alpha+1)) eps n growth bound
    n = 10 ** 6
    eps = 0.1
    bound = 0.8 * (1 / 2) * eps * n
    good = 0
    for seed in range(10):
        gen = RngStream(8800 + seed).generator()
        g = colour_uniform(sample_gnp(n, (1 + eps) / n, gen), n, gen)
        trace = rbfs_forest(g, mode="greedy")
        if trace.order >= bound:
            good += 1
    assert good >= 9


# ---------------------------------------------------------------------------
# sprinkling

def _rainbow_path_graph(ln):
    return ColouredGraph.from_edges(ln + 1, [(i, i + 1, i + 1) for i in range(ln)],
                                    c=100)


def test_sprinkle_closes_full_cycle():
    g1 = _rainbow_path_graph(10)
    path = list(range(11))
    edge = sprinkle_close_cycle(g1, path, [(0, 10, 99)], delta=0.3)
    assert edge == (0, 10, 99)
    cycle = close_cycle_edges(g1, path, edge)
    check_cycle(cycle)
    assert len(cycle) == 11


def test_sprinkle_empty_second_round():
    g1 = _rainbow_path_graph(10)
    with pytest.raises(NotFoundError):
        sprinkle_close_cycle(g1, list(range(11)), [], delta=0.3)


def test_sprinkle_skips_used_colours_and_existing_edges():
    g1 = _rainbow_path_graph(10)
    path = list(range(11))
    # colour 5 is on the path; edge (0,1) exists in g1
    edge = sprinkle_close_cycle(g1, path, [(0, 10, 5), (0, 1, 99), (1, 10, 42)],
                                delta=1.0)
    assert edge == (1, 10, 42)


def sorted_lookup_colours(g, path):
    """Reference: colour of each path step by binary search in the CSR."""
    indptr, nbr, eid = adjacency(g)
    out = []
    for a, b in zip(path[:-1], path[1:]):
        lo, hi = indptr[a], indptr[a + 1]
        pos = lo + np.searchsorted(nbr[lo:hi], b)
        assert pos < hi and nbr[pos] == b
        out.append(int(g.colour[eid[pos]]))
    return out


def test_path_colours_parallel_edge_tie_rule():
    # lowest id stored in the step's direction, else lowest id stored reversed
    edges = [(1, 0, 1), (0, 1, 2), (0, 1, 3), (2, 1, 4), (1, 2, 5),
             (3, 2, 6), (3, 2, 7)]
    g = ColouredGraph.from_edges(4, edges, c=7, multigraph=True)
    assert _path_colours(g, [0, 1, 2, 3]) == [2, 5, 6]
    assert _path_colours(g, [3, 2, 1, 0]) == [6, 4, 1]
    for path in ([0, 1, 2, 3], [3, 2, 1, 0], [1, 0], [2, 3]):
        assert _path_colours(g, path) == sorted_lookup_colours(g, path)
    assert _path_colours(g, [2]) == []
    with pytest.raises(ValueError, match="not an edge"):
        _path_colours(g, [0, 2])
    with pytest.raises(ValueError, match="repeats a vertex"):
        _path_colours(g, [0, 1, 0])


@st.composite
def multigraphs_with_paths(draw):
    n = draw(st.integers(2, 10))
    path = draw(st.permutations(range(n)))[:draw(st.integers(2, n))]
    vertex = st.integers(0, n - 1)
    extra = draw(st.lists(st.tuples(vertex, vertex), max_size=30))
    flips = draw(st.lists(st.booleans(), min_size=len(path) - 1,
                          max_size=len(path) - 1))
    steps = [(b, a) if f else (a, b)
             for (a, b), f in zip(zip(path[:-1], path[1:]), flips)]
    edges = draw(st.permutations(extra + steps))
    triples = [(a, b, i + 1) for i, (a, b) in enumerate(edges)]
    g = ColouredGraph.from_edges(n, triples, c=len(triples), multigraph=True)
    return g, list(path)


@settings(max_examples=300, deadline=None)
@given(multigraphs_with_paths())
def test_path_colours_matches_sorted_lookup(case):
    g, path = case
    assert _path_colours(g, path) == sorted_lookup_colours(g, path)


# ---------------------------------------------------------------------------
# weakly supercritical cycles

def test_cycle_finder_rejects_bad_epsilon():
    with pytest.raises(InvalidEpsilonError):
        find_rainbow_cycle_weakly_super(1000, 1000, 0.0, RngStream(1))
    with pytest.raises(InvalidEpsilonError):
        find_rainbow_cycle_weakly_super(1000, 1000, 1.0, RngStream(1))


def test_cycle_finder_envelope():
    # hidden constant unpinned by the asymptotics; envelope pilot-calibrated
    n = 10 ** 6
    eps = 0.2
    bound = 0.02 * eps * eps * n
    good = 0
    for seed in range(10):
        try:
            cycle = find_rainbow_cycle_weakly_super(n, n, eps, RngStream(9100 + seed))
        except NotFoundError:
            continue
        check_cycle(cycle)
        if len(cycle) >= bound:
            good += 1
    assert good >= 8

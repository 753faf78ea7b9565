import json
import math
import tracemalloc
from collections import Counter, deque

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowsim import finders as finders_module
from rainbowsim.finders import (ExplorationTrace, InvalidDeltaError,
                                InvalidEpsilonError, NotFoundError,
                                PipelineReport, check_cycle, close_cycle_edges,
                                find_rainbow_cycle_weakly_super, rbfs_forest,
                                rdfs_longest_path, sprinkle_close_cycle,
                                subcritical_rainbow_tree,
                                supercritical_rainbow_tree, _assert_rainbow_tree,
                                _Fenwick, _path_colours, _rainbow_piece,
                                _require_coloured, _require_simple,
                                _spanning_edges)
from rainbowsim.graphs import (ColouredGraph, EmptyCoreError, adjacency,
                               connected_components, core_forest_decomposition,
                               forest_depths, is_rainbow, subtree_sizes)
from rainbowsim.models import (RngStream, as_generator, colour_uniform,
                               sample_configuration, sample_gnp,
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
# structural tree assert

def test_assert_rainbow_tree_accepts_rainbow_trees():
    g = ColouredGraph.from_edges(6, [(0, 1, 1), (1, 2, 2), (1, 3, 3),
                                     (4, 5, 4), (3, 4, 5)], c=5)
    _assert_rainbow_tree(g, [0, 1, 2, 3, 4])
    _assert_rainbow_tree(g, [3])
    _assert_rainbow_tree(g, [])


@pytest.mark.parametrize("edge_ids, message", [
    ([0, 3], "not a tree"),                 # disconnected forest
    ([0, 1, 2, 3], "not connected"),        # triangle plus a separate edge
    ([0, 6], "not rainbow"),                # repeated colour
])
def test_assert_rainbow_tree_rejects(edge_ids, message):
    g = ColouredGraph.from_edges(7, [(0, 1, 1), (1, 2, 2), (2, 0, 3),
                                     (4, 5, 4), (5, 6, 5), (3, 4, 6),
                                     (1, 3, 1)], c=6)
    with pytest.raises(AssertionError, match=message):
        _assert_rainbow_tree(g, edge_ids)


# the piece step of both tree finders before _rainbow_piece, kept verbatim
# for the references below
def _largest_piece(g: ColouredGraph, verts, edge_ids):
    """Largest component of the subgraph with vertex set ``verts`` (sorted)
    and edges ``edge_ids`` (both ends in ``verts``); ties go to the piece
    holding the smallest vertex.

    Runs on local ids 0..len(verts)-1. Returns the piece as a mask over
    ``verts`` and as a mask over ``edge_ids``.
    """
    k = len(edge_ids)
    ends = np.searchsorted(verts, np.concatenate([g.u[edge_ids], g.v[edge_ids]]))
    sub = ColouredGraph._trusted(len(verts), 0, ends[:k], ends[k:],
                                 np.zeros(k, dtype=np.int64), True)
    part = connected_components(sub)
    in_piece = part.labels == part.largest_id()
    return in_piece, in_piece[ends[:k]]


# ---------------------------------------------------------------------------
# the rainbow step both tree finders share

def test_rainbow_piece_every_colour_repeated():
    # nothing survives, so the piece is the smallest vertex alone
    g = ColouredGraph.from_edges(8, [(2, 5, 1), (5, 7, 1), (7, 2, 2),
                                     (2, 7, 2)], c=2, multigraph=True)
    in_piece, edges, tree, repeated = _rainbow_piece(
        g, np.array([2, 5, 7]), np.arange(4))
    assert in_piece.tolist() == [True, False, False]
    assert edges.tolist() == [] and tree.tolist() == []
    assert repeated == 4


def test_rainbow_piece_tie_goes_to_the_smaller_vertex():
    # two pieces of two vertices; the one holding vertex 0 wins, whatever
    # the edge ids
    g = ColouredGraph.from_edges(4, [(3, 2, 1), (1, 0, 2)], c=2)
    in_piece, edges, tree, repeated = _rainbow_piece(g, np.arange(4),
                                                     np.arange(2))
    assert in_piece.tolist() == [True, True, False, False]
    assert edges.tolist() == [1] and tree.tolist() == [1]
    assert repeated == 0


def test_rainbow_piece_keeps_unique_loops_and_parallel_pairs():
    # a loop and a parallel pair with unique colours stay in the piece; its
    # spanning edges keep the pair's lower id and drop the loop
    g = ColouredGraph.from_edges(4, [(1, 1, 1), (0, 1, 2), (1, 0, 3),
                                     (1, 2, 4), (2, 3, 4)], c=4,
                                 multigraph=True)
    in_piece, edges, tree, repeated = _rainbow_piece(g, np.arange(4),
                                                     np.arange(5))
    assert in_piece.tolist() == [True, True, False, False]
    assert edges.tolist() == [0, 1, 2]
    assert tree.tolist() == [1]
    assert repeated == 2


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
    for n in (0, 3):
        tree = subcritical_rainbow_tree(ColouredGraph.from_edges(n, [], c=1))
        assert tree.dtype == np.int64 and tree.size == 0


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


@pytest.mark.parametrize("pendants, deleted", [
    # colour 9 on two one-vertex branches: equal bridge numbers, so the
    # branch whose edge has the smaller id goes
    ([(0, 4, 9), (1, 5, 9)], 4),
    # the lower id hangs the higher-numbered vertex
    ([(0, 5, 9), (3, 4, 9)], 4),
    ([(3, 4, 9), (0, 5, 9)], 4),
])
def test_supercritical_double_colour_tie_goes_to_lower_edge_id(pendants,
                                                               deleted):
    edges = [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4)] + pendants
    g = ColouredGraph.from_edges(6, edges, c=9)
    tree, report = supercritical_rainbow_tree(g)
    assert set(tree.tolist()) == {0, 1, 2, 4, 5} - {deleted}
    assert report.deleted_double_colour == 1
    assert report.final_tree_order == 5


def test_supercritical_without_vertices_raises_empty_core():
    with pytest.raises(EmptyCoreError):
        supercritical_rainbow_tree(ColouredGraph.from_edges(0, [], c=1))


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
        # the tree lies in the giant (the largest component, ties to the
        # smallest vertex) plus the other unicyclic components
        nxg = nx.Graph(zip(g.u.tolist(), g.v.tolist()))
        nxg.add_nodes_from(range(g.n))
        comps = list(nx.connected_components(nxg))
        giant = max(comps, key=lambda comp: (len(comp), -min(comp)))
        region = set(giant).union(*(
            comp for comp in comps if comp is not giant
            and nxg.subgraph(comp).number_of_edges() == len(comp)))
        assert set(g.u[tree].tolist()) | set(g.v[tree].tolist()) <= region
        assert report.final_tree_order <= len(region) < g.n
        for x in (report.deleted_shared_colour, report.deleted_high_frequency,
                  report.deleted_double_colour, report.deleted_unrooted_trees):
            assert x >= 0
    assert done >= 30


def level_loop_supercritical_rainbow_tree(g: ColouredGraph):
    """supercritical_rainbow_tree when it pushed deletions and root ids down
    the forest one depth level at a time, kept verbatim as the reference.

    Core/forest deletion pipeline; returns (tree edge ids, PipelineReport).

    Within the giant+unicyclic region: drop non-unique colours from the
    2-core, keep its largest rainbow piece, then prune the surrounding
    forest in four passes (core-shared colours, colours appearing three or
    more times, the smaller branch of each colour pair, trees rooted off the
    kept piece) and return a spanning tree of what stays connected.
    """
    _require_coloured(g)
    if g.n == 0:
        raise EmptyCoreError("graph has no vertices")
    part = connected_components(g)
    giant_id = part.largest_id()
    giant = np.flatnonzero(part.labels == giant_id)

    # unicyclic components: edge count equals vertex count
    vcount = np.bincount(part.labels, minlength=g.n)
    ecount = np.bincount(part.labels[g.u], minlength=g.n)
    uni = (vcount > 0) & (ecount == vcount)
    uni[giant_id] = False
    unicyclic = np.flatnonzero(uni[part.labels])

    decomp = core_forest_decomposition(g, giant, unicyclic)
    core_edges = decomp.core_edges
    core_cols = g.colour[core_edges]
    col_counts = np.bincount(core_cols)
    dup_mask = col_counts[core_cols] >= 2
    r_edges = core_edges[dup_mask]
    kept_core_edges = core_edges[~dup_mask]

    # largest component of core minus duplicate-coloured edges; forest roots
    # are the core vertices in the same order, so its mask marks kept roots
    root_in_hat, hat_edge_mask = _largest_piece(g, decomp.core_vertices,
                                                kept_core_edges)
    hat_edge_ids = kept_core_edges[hat_edge_mask]
    # kept core edges carry pairwise distinct colours
    z_cols = g.colour[hat_edge_ids]

    f = decomp.forest
    m, t = f.m, f.t
    w_all = np.arange(t, m, dtype=np.int64)
    f_edge_ids = decomp.forest_edge_ids[t:]
    f_cols = g.colour[f_edge_ids]
    b = subtree_sizes(f)

    in_z = np.zeros(g.c + 1, dtype=bool)
    in_z[z_cols] = True
    fcount = np.bincount(f_cols, minlength=g.c + 1)

    e1 = w_all[in_z[f_cols]]
    e2 = w_all[fcount[f_cols] >= 3]
    x1 = int(b[e1].sum())
    x2 = int(b[e2].sum())

    # colour pairs: delete the branch with the smaller (bridge number, edge id)
    pair_ws = w_all[fcount[f_cols] == 2]
    ws = pair_ws[np.argsort(f_cols[pair_ws - t], kind="stable")]
    w_a, w_b = ws[0::2], ws[1::2]
    b_a, b_b = b[w_a], b[w_b]
    a_loses = (b_a < b_b) | ((b_a == b_b)
                             & (f_edge_ids[w_a - t] <= f_edge_ids[w_b - t]))
    e3 = np.where(a_loses, w_a, w_b)
    x3 = int(b[e3].sum())

    # propagate deletions down the forest, then drop trees rooted off the kept core
    cut = np.zeros(m, dtype=bool)
    cut[e1] = True
    cut[e2] = True
    cut[e3] = True
    depth = forest_depths(f)
    order = np.argsort(depth, kind="stable")
    removed = np.zeros(m, dtype=bool)
    root_of = np.arange(m, dtype=np.int64)
    maxd = int(depth.max()) if m else 0
    bounds = np.searchsorted(depth[order], np.arange(maxd + 2))
    for d in range(1, maxd + 1):
        vs = order[bounds[d]:bounds[d + 1]]
        pv = f.parent[vs]
        removed[vs] = removed[pv] | cut[vs]
        root_of[vs] = root_of[pv]

    tree_sizes = np.bincount(root_of, minlength=m)[:t]
    x4 = int(tree_sizes[~root_in_hat].sum())

    keep_w = w_all[(~removed[w_all]) & root_in_hat[root_of[w_all]]]
    kept_forest_edges = f_edge_ids[keep_w - t]

    hat_tree = _spanning_edges(g, hat_edge_ids)
    out = np.concatenate([hat_tree, np.sort(kept_forest_edges)])

    hat_order = int(root_in_hat.sum())
    kept_vertex_count = hat_order + int(keep_w.size)
    report = PipelineReport(
        core_order=int(decomp.core_vertices.size),
        core_size=int(core_edges.size),
        non_unique_core_edges=int(r_edges.size),
        hat_core_order=hat_order,
        colour_set_size=int(z_cols.size),
        deleted_shared_colour=x1,
        deleted_high_frequency=x2,
        deleted_double_colour=x3,
        deleted_unrooted_trees=x4,
        final_tree_order=kept_vertex_count,
    )
    _assert_rainbow_tree(g, out)
    assert report.final_tree_order <= m
    return out, report


@st.composite
def tree_finder_inputs(draw):
    """Coloured G(n, p) around the phase transition, or a coloured
    configuration multigraph with loops, parallel edges and isolated
    vertices."""
    gen = RngStream(draw(st.integers(0, 2 ** 32 - 1))).generator()
    if draw(st.booleans()):
        n = draw(st.integers(0, 400))
        g = sample_gnp(n, min(1.0, draw(st.floats(0.5, 4.0)) / max(n, 1)), gen)
    else:
        degs = draw(st.lists(st.integers(0, 4), max_size=300))
        g = sample_configuration(degs + [sum(degs) % 2], gen)
    return colour_uniform(g, draw(st.integers(1, 600)), gen)


@settings(max_examples=300, deadline=None)
@given(tree_finder_inputs())
def test_supercritical_matches_level_loop_reference(g):
    try:
        want, want_report = level_loop_supercritical_rainbow_tree(g)
    except EmptyCoreError:
        with pytest.raises(EmptyCoreError):
            supercritical_rainbow_tree(g)
        return
    got, report = supercritical_rainbow_tree(g)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()
    assert report == want_report


def reference_subcritical_rainbow_tree(g: ColouredGraph) -> np.ndarray:
    """subcritical_rainbow_tree before the shared rainbow step, kept
    verbatim as the reference.

    Rainbow tree inside the largest component by duplicate-colour deletion.

    All edges whose colour repeats within the largest component are dropped;
    the spanning tree of the largest surviving piece is returned (edge ids).
    """
    _require_coloured(g)
    if g.n == 0:
        return np.zeros(0, dtype=np.int64)
    part = connected_components(g)
    in_t = part.labels == part.largest_id()
    # the largest component is whole: an edge with one end in it lies in it
    t_edges = np.flatnonzero(in_t[g.u])
    if t_edges.size == 0:
        return np.zeros(0, dtype=np.int64)
    cols = g.colour[t_edges]
    counts = np.bincount(cols)
    keep = t_edges[counts[cols] == 1]
    # largest surviving piece among kept edges plus isolated vertices
    _, keep_in_piece = _largest_piece(g, np.flatnonzero(in_t), keep)
    out = _spanning_edges(g, keep[keep_in_piece])
    _assert_rainbow_tree(g, out)
    return out


@settings(max_examples=300, deadline=None)
@given(tree_finder_inputs())
def test_subcritical_matches_reference(g):
    want = reference_subcritical_rainbow_tree(g)
    got = subcritical_rainbow_tree(g)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()


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


@pytest.mark.parametrize("mode", ["greedy", "faithful"])
def test_rdfs_rejects_negative_budget(mode):
    g = ColouredGraph.from_edges(2, [(0, 1, 1)], c=1)
    with pytest.raises(ValueError, match="query budget"):
        rdfs_longest_path(g, mode=mode, delta=0.5, query_budget=-5)


@pytest.mark.parametrize("mode", ["greedy", "faithful"])
def test_rdfs_path_goes_through_the_tree_assert(monkeypatch, mode):
    # the path's edges get the same hard check as the tree finders' output
    import rainbowsim.finders as finders
    seen = []
    check = finders._assert_rainbow_tree

    def recording_check(g, ids):
        seen.append(list(ids))
        check(g, ids)

    monkeypatch.setattr(finders, "_assert_rainbow_tree", recording_check)
    gen = RngStream(81).generator()
    g = colour_uniform(sample_gnp(60, 0.1, gen), 30, gen)
    trace = rdfs_longest_path(g, mode=mode, delta=0.5)
    assert seen == [trace.tree_edges] and len(trace.tree_edges) > 1


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


@pytest.mark.parametrize("n, order", [(0, 0), (1, 1), (3, 1)])
def test_rbfs_order_without_edges(n, order):
    # every vertex is a root of its own; a graph with no vertex has no tree
    trace = rbfs_forest(ColouredGraph.from_edges(n, [], c=3), mode="greedy")
    assert trace.order == order and trace.length == 0


def test_rbfs_invalid_delta():
    g = ColouredGraph.from_edges(3, [(0, 1, 1), (1, 2, 2)], c=2)
    with pytest.raises(InvalidDeltaError):
        rbfs_forest(g, delta=1.2, mode="faithful")
    with pytest.raises(InvalidDeltaError):
        rbfs_forest(g, delta=0.9, alpha=0.5, mode="faithful")


@pytest.mark.parametrize("kw, error", [
    ({"eps": math.nan}, InvalidEpsilonError),
    ({"eps": math.inf}, InvalidEpsilonError),
    ({"alpha": math.nan}, InvalidDeltaError),     # min(1, nan) is 1
    ({"alpha": math.inf}, InvalidDeltaError),
])
def test_rbfs_faithful_refuses_non_finite_eps_and_alpha(kw, error):
    g = ColouredGraph.from_edges(3, [(0, 1, 1), (1, 2, 2)], c=2)
    with pytest.raises(error, match="need a finite"):
        rbfs_forest(g, delta=0.05, mode="faithful", **kw)


def test_rbfs_faithful_refuses_negative_eps():
    # only eps^2 is read, so a negative eps would run as |eps|
    g = ColouredGraph.from_edges(3, [(0, 1, 1), (1, 2, 2)], c=2)
    with pytest.raises(InvalidEpsilonError, match="need eps >= 0, got -0.1"):
        rbfs_forest(g, delta=0.05, mode="faithful", eps=-0.1)


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


def test_rbfs_peak_memory_per_half_edge():
    # the explorer reads its CSR in place: a list copy of the neighbours and
    # the half-edge colours, one int object per half-edge, took the peak to
    # 182 (greedy) and 146 (faithful) bytes a half-edge here; in place it
    # was 87 and 49. A bytearray colour table in place of a set of colours
    # took greedy to about 54; faithful stays at 49
    n = 20000
    gen = RngStream(7, 0).generator()
    g = colour_uniform(sample_gnp(n, 1.1 / n, gen), n, gen)
    for kwargs in ({"mode": "greedy"},
                   {"mode": "faithful", "delta": 0.05, "rng": RngStream(7, 1)}):
        tracemalloc.start()
        try:
            rbfs_forest(g, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 120 * 2 * g.m, (kwargs["mode"], peak / (2 * g.m))


# ---------------------------------------------------------------------------
# explorers against the Fenwick-tree references
#
# The explorers pick each root as the least undiscovered id with a bytearray
# scan, and RBFS keeps no Fenwick tree: faithful mode tracks its pool cap as
# one rising id. The references below pick the root and the cap with Fenwick
# select and keep the tree in every mode.

class ReferenceFenwick:
    """Fenwick tree over 0..n-1 counting set members, with rank and select."""

    __slots__ = ("n", "tree")

    def __init__(self, n, all_ones=True):
        self.n = n
        self.tree = [0] * (n + 1)
        if all_ones:
            for i in range(1, n + 1):
                self.tree[i] += 1
                j = i + (i & -i)
                if j <= n:
                    self.tree[j] += self.tree[i]

    def add(self, i, delta):
        i += 1
        while i <= self.n:
            self.tree[i] += delta
            i += i & -i

    def rank(self, i):
        """Count of members with id <= i."""
        if i < 0:
            return 0
        i = min(i, self.n - 1) + 1
        s = 0
        while i > 0:
            s += self.tree[i]
            i -= i & -i
        return s

    def select(self, k):
        """Smallest id whose prefix count reaches k (1-based)."""
        pos = 0
        rem = k
        log = self.n.bit_length()
        for step in range(log, -1, -1):
            nxt = pos + (1 << step)
            if nxt <= self.n and self.tree[nxt] < rem:
                pos = nxt
                rem -= self.tree[pos]
        return pos  # 0-based id


def fenwick_rdfs_longest_path(g: ColouredGraph, mode: str = "faithful",
                              delta: float = 0.1, query_budget: int | None = None,
                              target_order: int | None = None) -> ExplorationTrace:
    """The RDFS explorer with a Fenwick-tree root pick, kept as the reference."""
    _require_coloured(g)
    if mode not in ("faithful", "greedy"):
        raise ValueError("mode must be 'faithful' or 'greedy'")
    n = g.n
    r = min(g.c, n)
    faithful = mode == "faithful"
    if faithful:
        if not (0.0 < delta < 1.0):
            raise InvalidDeltaError("need 0 < delta < 1 in faithful mode")
        budget = query_budget if query_budget is not None \
            else math.ceil(delta * delta * r * n / 8.0)
        target = target_order if target_order is not None \
            else math.floor((1.0 - delta) * r) + 1
    else:
        budget = None
        target = None

    indptr, nbr, eid = adjacency(g)
    iptr = indptr.tolist()
    nbr_l = nbr.tolist()
    eid_l = eid.tolist()
    cols = g.colour.tolist()

    state = bytearray(n)            # 0 unvisited, 1 active, 2 visited
    fen = ReferenceFenwick(n)
    ucount = n
    stack: list[int] = []
    par_in = [-1] * n
    col_in = [0] * n
    edge_in = [-1] * n
    aptr = iptr[:-1].copy() if n else []
    cursor = [-1] * n
    lset: set[int] = set()
    queries = 0
    accepted = 0
    best_len = 0
    best_top = -1
    stop = None

    while stop is None:
        if not stack:
            if ucount == 0:
                stop = "exhausted"
                break
            root = fen.select(1)
            state[root] = 1
            fen.add(root, -1)
            ucount -= 1
            stack.append(root)
            if 1 > best_len:
                best_len, best_top = 1, root
            if faithful and target is not None and len(stack) >= target:
                stop = "target"
                break
            continue
        v = stack[-1]
        p = aptr[v]
        end = iptr[v + 1]
        found = -1
        while p < end:
            u = nbr_l[p]
            if state[u] == 0 and cols[eid_l[p]] not in lset:
                found = p
                break
            p += 1
        if found >= 0:
            u = nbr_l[found]
            q = fen.rank(u) - fen.rank(cursor[v])
            if faithful and queries + q > budget:
                queries = budget
                stop = "budget"
                break
            queries += q
            accepted += 1
            cursor[v] = u
            aptr[v] = found + 1
            state[u] = 1
            fen.add(u, -1)
            ucount -= 1
            colour = cols[eid_l[found]]
            par_in[u] = v
            col_in[u] = colour
            edge_in[u] = eid_l[found]
            lset.add(colour)
            stack.append(u)
            if len(stack) > best_len:
                best_len, best_top = len(stack), u
            if faithful and len(stack) >= target:
                stop = "target"
        else:
            q = ucount - fen.rank(cursor[v])
            if faithful and queries + q > budget:
                queries = budget
                stop = "budget"
                break
            queries += q
            aptr[v] = end
            cursor[v] = n
            stack.pop()
            state[v] = 2
            if par_in[v] >= 0:
                lset.discard(col_in[v])

    if stop == "target":
        path = stack[:]
    else:
        path = []
        x = best_top
        while x >= 0:
            path.append(x)
            x = par_in[x]
        path.reverse()
    path_edges = [edge_in[x] for x in path[1:]]
    trace = ExplorationTrace(queries=queries, accepted=accepted,
                             stop_reason=stop, tree_edges=path_edges,
                             path=path, rooted=bool(path))
    assert trace.accepted <= trace.queries
    assert is_rainbow(g, path_edges), "RDFS path is not rainbow"
    return trace


def fenwick_rbfs_forest(g: ColouredGraph, delta: float = 0.1,
                        alpha: float | None = None, mode: str = "greedy",
                        eps: float | None = None, rng=None) -> ExplorationTrace:
    """The RBFS explorer with a Fenwick tree in both modes, kept as the reference."""
    _require_coloured(g)
    if mode not in ("faithful", "greedy"):
        raise ValueError("mode must be 'faithful' or 'greedy'")
    n = g.n
    if alpha is None:
        alpha = g.c / n if n else 1.0
    faithful = mode == "faithful"
    if faithful:
        if not (0.0 < delta < min(1.0, alpha)):
            raise InvalidDeltaError("need 0 < delta < min(1, alpha)")
        if eps is None:
            kappa = alpha / (alpha + 1.0)
            disc = kappa * kappa - 4.0 * delta
            if disc < 0:
                raise InvalidDeltaError("delta too large to induce a growth margin")
            eps = (kappa - math.sqrt(disc)) / 2.0
        pool_cap = int((1.0 - delta) * n)
        if pool_cap < 1:
            raise InvalidDeltaError("pool cap below one vertex")
        s1 = delta * n - eps * eps * n
        s2 = eps * eps * n
        gen = as_generator(rng)
    else:
        pool_cap = n
        s1 = s2 = None
        gen = None

    indptr, nbr, eid = adjacency(g)
    iptr = indptr.tolist()
    nbr_l = nbr.tolist()
    eid_l = eid.tolist()
    cols = g.colour.tolist()

    und = bytearray([1]) * n
    fen = ReferenceFenwick(n)
    ucount = n
    forest_cols: set[int] = set()
    queue: deque[int] = deque()
    queries = 0
    accepted = 0
    total_forest = 0
    cur_edges: list[int] = []
    cur_size = 0
    best_edges: list[int] = []
    best_size = 0
    started = False
    stop = None

    def close_tree():
        nonlocal best_edges, best_size
        if cur_size > best_size:
            best_size = cur_size
            best_edges = cur_edges[:]

    while stop is None:
        if not queue:
            if started:
                close_tree()
                if faithful and total_forest >= s2:
                    stop = "quota"
                    break
            if ucount == 0:
                stop = "exhausted"
                break
            root = fen.select(1)
            und[root] = 0
            fen.add(root, -1)
            ucount -= 1
            total_forest += 1
            cur_edges = []
            cur_size = 1
            started = True
            queue.append(root)
            continue
        v = queue.popleft()
        if faithful and ucount > pool_cap:
            thr = fen.select(pool_cap)
            queries += pool_cap
        else:
            thr = n
            queries += ucount
        for p in range(iptr[v], iptr[v + 1]):
            u = nbr_l[p]
            if u > thr or not und[u]:
                continue
            colour = cols[eid_l[p]]
            if colour in forest_cols:
                continue
            if faithful:
                used = len(forest_cols)
                rej = used / g.c
                dr = delta / alpha
                if rej < dr:
                    extra = (dr - rej) / (1.0 - rej)
                    if gen.random() < extra:
                        continue
            und[u] = 0
            fen.add(u, -1)
            ucount -= 1
            queue.append(u)
            cur_edges.append(eid_l[p])
            cur_size += 1
            total_forest += 1
            forest_cols.add(colour)
            accepted += 1
            if faithful and cur_size >= s1:
                stop = "target"
                break

    close_tree()
    trace = ExplorationTrace(queries=queries, accepted=accepted,
                             stop_reason=stop, tree_edges=best_edges,
                             rooted=started)
    assert trace.accepted <= trace.queries
    assert is_rainbow(g, best_edges), "RBFS tree is not rainbow"
    if best_edges:
        _assert_rainbow_tree(g, best_edges)
    return trace


def test_fenwick_all_ones_build_matches_reference():
    gen = np.random.default_rng(130)
    for n in range(0, 130):
        fen, ref = _Fenwick(n), ReferenceFenwick(n)
        assert fen.tree == ref.tree
        # rank is asked for -1 <= i < n: a cursor before any id, or an id
        for i in gen.permutation(n)[:gen.integers(0, n + 1)].tolist():
            fen.add(i, -1)
            ref.add(i, -1)
        assert [fen.rank(i) for i in range(-1, n)] == \
            [ref.rank(i) for i in range(-1, n)]


@st.composite
def coloured_multigraphs(draw, multigraph=None):
    """Coloured graphs or multigraphs, with loops and isolated vertices."""
    n = draw(st.integers(0, 40))
    c = draw(st.integers(1, 60))
    if multigraph is None:
        multigraph = draw(st.booleans())
    pairs = []
    if n:
        vertex = st.integers(0, n - 1)
        pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    if not multigraph:
        simple = {}
        for a, b in pairs:
            if a != b:
                simple.setdefault((min(a, b), max(a, b)), (a, b))
        pairs = list(simple.values())
    cols = draw(st.lists(st.integers(1, c), min_size=len(pairs),
                         max_size=len(pairs)))
    return ColouredGraph.from_edges(n, [(a, b, col) for (a, b), col
                                        in zip(pairs, cols)],
                                    c=c, multigraph=multigraph)


def reference_spanning_edges(g: ColouredGraph, edge_ids, keep_vertices=None):
    """_spanning_edges before the minimum spanning tree: a union-find over
    the ids in ascending order, kept verbatim."""
    ids = np.asarray(edge_ids, dtype=np.int64)
    parent = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    chosen = []
    for e in np.sort(ids).tolist():
        a, b = int(g.u[e]), int(g.v[e])
        if keep_vertices is not None and (a not in keep_vertices or b not in keep_vertices):
            continue
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            chosen.append(e)
    return np.array(chosen, dtype=np.int64)


@st.composite
def edge_subsets(draw):
    """A coloured (multi)graph, some of its edge ids in any order, and an
    optional set of vertices to keep."""
    g = draw(coloured_multigraphs())
    ids = draw(st.permutations(range(g.m)))
    ids = ids[:draw(st.integers(0, g.m))]
    keep = None
    if g.n and draw(st.booleans()):
        keep = draw(st.sets(st.integers(0, g.n - 1)))
    return g, ids, keep


@settings(max_examples=500, deadline=None)
@given(edge_subsets())
def test_spanning_edges_match_union_find(case):
    g, ids, keep = case
    want = reference_spanning_edges(g, ids, keep_vertices=keep)
    ids = np.array(ids, dtype=np.int64)
    if keep is not None:
        inside = np.zeros(g.n, dtype=bool)
        inside[list(keep)] = True
        ids = ids[inside[g.u[ids]] & inside[g.v[ids]]]
    got = _spanning_edges(g, ids)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()


def test_spanning_edges_parallel_pair_keeps_lower_id():
    # 0-1 twice (ids 1 and 3), loop at 2 (id 0), 1-2 (id 2)
    g = ColouredGraph.from_edges(3, [(2, 2, 1), (1, 0, 2), (2, 1, 3), (0, 1, 4)],
                                 c=4, multigraph=True)
    assert _spanning_edges(g, [3, 2, 1, 0]).tolist() == [1, 2]
    assert _spanning_edges(g, [3, 0]).tolist() == [3]
    assert _spanning_edges(g, []).tolist() == []


@pytest.mark.parametrize("n", [0, 3])
def test_spanning_edges_without_edges(n):
    got = _spanning_edges(ColouredGraph.from_edges(n, [], c=1), [])
    assert got.dtype == np.int64 and got.size == 0


def trace_fields(trace):
    return (trace.queries, trace.accepted, trace.stop_reason, trace.path,
            trace.tree_edges, trace.rooted)


def assert_matches_reference(finder, reference, g, **kwargs):
    """Same trace as the reference, or the same refusal."""
    try:
        expected = reference(g, **kwargs)
    except InvalidDeltaError:
        with pytest.raises(InvalidDeltaError):
            finder(g, **kwargs)
        return None
    got = finder(g, **kwargs)
    assert trace_fields(got) == trace_fields(expected)
    return got


@settings(max_examples=300, deadline=None)
@given(coloured_multigraphs(),
       st.sampled_from([0.02, 0.05, 0.1, 0.2, 0.3]),
       st.one_of(st.none(), st.floats(0.05, 50.0)),
       st.one_of(st.none(), st.just(0.0), st.floats(0.01, 0.5)),
       st.integers(0, 2 ** 32 - 1))
def test_rbfs_matches_fenwick_reference(g, delta, alpha, eps, seed):
    # eps = 0 makes the forest quota 0: the faithful run stops at its
    # first tree close, which must come after the first root
    assert_matches_reference(rbfs_forest, fenwick_rbfs_forest, g, mode="greedy")
    assert_matches_reference(rbfs_forest, fenwick_rbfs_forest, g,
                             mode="faithful", delta=delta, alpha=alpha,
                             eps=eps, rng=RngStream(seed))


@settings(max_examples=300, deadline=None)
@given(coloured_multigraphs(),
       st.sampled_from([0.1, 0.3, 0.6, 0.9]),
       st.one_of(st.none(), st.integers(0, 300)),
       st.one_of(st.none(), st.integers(1, 40)))
def test_rdfs_matches_fenwick_reference(g, delta, budget, target):
    assert_matches_reference(rdfs_longest_path, fenwick_rdfs_longest_path, g,
                             mode="greedy")
    assert_matches_reference(rdfs_longest_path, fenwick_rdfs_longest_path, g,
                             mode="faithful", delta=delta, query_budget=budget,
                             target_order=target)


@settings(max_examples=200, deadline=None)
@given(coloured_multigraphs(multigraph=False),
       st.sampled_from([0.1, 0.3, 0.6, 0.9]))
def test_explorer_edges_are_ints_carrying_the_path_colours(g, delta):
    # the explorers map half-edge positions back to edge ids; on a simple
    # graph a path step names its edge, so _path_colours is a reference
    for kwargs in ({"mode": "greedy"}, {"mode": "faithful", "delta": delta}):
        trace = rdfs_longest_path(g, **kwargs)
        assert all(type(e) is int for e in trace.tree_edges)
        assert g.colour[trace.tree_edges].tolist() == _path_colours(g, trace.path)
        json.dumps(trace.tree_edges)
    trace = rbfs_forest(g, mode="greedy")
    assert all(type(e) is int for e in trace.tree_edges)
    json.dumps(trace.tree_edges)


@pytest.mark.parametrize("n", [0, 5])
def test_explorers_without_edges(n):
    g = ColouredGraph.from_edges(n, [], c=3)
    # (queries, stop_reason) per RDFS run; at n = 5 greedy queries every
    # later vertex from each root, 4 + 3 + 2 + 1, and the faithful budget
    # ceil(0.5^2 * 3 * 5 / 8) = 1 ends the first backtrack
    rdfs_stops = {0: [(0, "exhausted")] * 3,
                  5: [(10, "exhausted"), (1, "budget"), (0, "target")]}[n]
    for kwargs, (queries, stop) in zip(
            ({"mode": "greedy"}, {"mode": "faithful", "delta": 0.5},
             {"mode": "faithful", "delta": 0.5, "target_order": 1}),
            rdfs_stops):
        trace = rdfs_longest_path(g, **kwargs)
        assert trace.path == [0][:n] and trace.tree_edges == []
        assert (trace.queries, trace.accepted, trace.stop_reason) == \
            (queries, 0, stop)
    # greedy RBFS takes every vertex as an isolated root: 4 + 3 + 2 + 1 at n = 5
    trace = rbfs_forest(g, mode="greedy")
    assert trace.tree_edges == [] and trace.accepted == 0
    assert (trace.queries, trace.stop_reason) == ({0: 0, 5: 10}[n], "exhausted")
    if n:
        trace = rbfs_forest(g, mode="faithful", delta=0.1, alpha=1.0, eps=0.1)
        assert trace.tree_edges == [] and trace.accepted == 0
    else:
        # the pool cap (1 - delta) n holds no vertex
        with pytest.raises(InvalidDeltaError):
            rbfs_forest(g, mode="faithful", delta=0.1, alpha=1.0, eps=0.1)


def test_rbfs_faithful_pool_cap_moves_and_target_stops():
    # n = 50, delta = 0.2: the pool holds the 40 least undiscovered ids, so
    # the cap starts at id 40 and rises as low ids are discovered
    n = 50
    adj = {0: [1, 2, 3, 45, 46, 47, 48, 49], 1: [41, 42, 43], 2: [4, 5, 6]}
    edges = [(a, b, k + 1) for k, (a, b) in
             enumerate((a, b) for a in adj for b in adj[a])]
    g = ColouredGraph.from_edges(n, edges, c=10 ** 6)
    trace = assert_matches_reference(rbfs_forest, fenwick_rbfs_forest, g,
                                     mode="faithful", delta=0.2, eps=0.1,
                                     rng=RngStream(11))
    # the tree reaches delta n - eps^2 n = 9.5 at its tenth vertex
    assert trace.stop_reason == "target" and trace.order == 10
    reached = {v for e in trace.tree_edges for v in (g.u[e], g.v[e])}
    assert {41, 42, 43} <= reached and not reached & {45, 46, 47, 48, 49}


def test_rbfs_faithful_pool_cap_is_read_once_per_scan():
    # n = 25, delta = 0.28: the pool holds the 18 least undiscovered ids,
    # so the cap starts at id 17, and the root moves it to 18. With eps = 0
    # the target is delta n = 7.000000000000001, so the tree passes order 7,
    # where the pool holds every undiscovered id, without stopping.
    n = 25
    adj = {0: [1, 2, 19], 1: [3, 4, 5, 19, 24], 2: [24]}
    edges = [(a, b, k + 1) for k, (a, b) in
             enumerate((a, b) for a in adj for b in adj[a])]
    g = ColouredGraph.from_edges(n, edges, c=len(edges))
    trace = assert_matches_reference(rbfs_forest, fenwick_rbfs_forest, g,
                                     mode="faithful", delta=0.28, alpha=1e9,
                                     eps=0.0, rng=RngStream(5))
    # scan of 0, threshold 18: 1 and 2 move the cap to 20, and 19 waits;
    # scan of 1, threshold 20: 3, 4, 5 and 19 move it to 24, the fourth
    # leaving 18 undiscovered, and 24 waits; scan of 2 has no cap: 24 joins
    # and the tree reaches order 8
    tree = sorted((int(g.u[e]), int(g.v[e])) for e in trace.tree_edges)
    assert tree == [(0, 1), (0, 2), (1, 3), (1, 4), (1, 5), (1, 19), (2, 24)]
    assert (trace.stop_reason, trace.order, trace.queries) == ("target", 8,
                                                               3 * 18)


def test_explorers_pick_roots_in_ascending_order():
    # isolated and exhausted components force a new root many times; the
    # largest id is a root of its own
    n = 30
    edges = [(20, 3, 1), (3, 25, 2), (10, 12, 3), (12, 10, 4), (7, 7, 5),
             (28, 1, 6), (1, 28, 7), (15, 16, 8), (16, 14, 9)]
    g = ColouredGraph.from_edges(n, edges, c=9, multigraph=True)
    for mode in ("greedy", "faithful"):
        # faithful: the forest quota eps^2 n = 7.5 is met by eight roots
        assert_matches_reference(rbfs_forest, fenwick_rbfs_forest, g,
                                 mode=mode, delta=0.9, alpha=2.0, eps=0.5,
                                 rng=RngStream(3))
        assert_matches_reference(rdfs_longest_path, fenwick_rdfs_longest_path,
                                 g, mode=mode, delta=0.5, query_budget=10 ** 6)


@pytest.mark.parametrize("n, edges", [
    (8, [(5, 6, 1), (6, 7, 2)]),                    # an isolated run at the start
    (8, [(0, 1, 1), (1, 2, 2)]),                    # and at the end
    (8, [(3, 4, 1), (2, 3, 1), (4, 5, 2)]),         # on both sides of a tree
    (6, []),                                        # every vertex isolated
    # isolated runs on both sides of a vertex whose only edge is a loop: its
    # CSR row is not empty, so it is a live root
    (9, [(4, 4, 1), (7, 8, 2)]),
    (9, [(0, 0, 1), (3, 3, 2), (8, 8, 3)]),
])
def test_rbfs_takes_isolated_roots_in_bulk(n, edges):
    g = ColouredGraph.from_edges(n, edges, c=3, multigraph=True)
    for mode in ("greedy", "faithful"):
        assert_matches_reference(rbfs_forest, fenwick_rbfs_forest, g, mode=mode,
                                 delta=0.5, alpha=1.0, eps=0.9,
                                 rng=RngStream(31))


def test_rbfs_mostly_isolated_graph_matches_reference():
    # at d = 0.5 about e^-0.5 = 61 % of the vertices are isolated
    n = 20000
    gen = RngStream(31, 0).generator()
    g = colour_uniform(sample_gnp(n, 0.5 / n, gen), n, gen)
    trace = assert_matches_reference(rbfs_forest, fenwick_rbfs_forest, g,
                                     mode="greedy")
    assert trace.stop_reason == "exhausted" and trace.order > 1
    assert_matches_reference(rbfs_forest, fenwick_rbfs_forest, g,
                             mode="faithful", delta=0.05, eps=0.2,
                             rng=RngStream(31, 1))


def test_rbfs_large_colour_count_matches_reference():
    # the colour table holds c + 1 bytes, here 10 MB for a handful of edges;
    # the top colour repeats on 2-3, so the first tree stops at order 3
    g = ColouredGraph.from_edges(
        12, [(0, 1, 10 ** 7), (1, 2, 1), (2, 3, 10 ** 7), (3, 4, 5 * 10 ** 6),
             (6, 7, 10 ** 7 - 1), (7, 8, 2)], c=10 ** 7)
    for kwargs in ({"mode": "greedy"},
                   {"mode": "faithful", "delta": 0.5, "eps": 0.1,
                    "rng": RngStream(32)}):
        trace = assert_matches_reference(rbfs_forest, fenwick_rbfs_forest, g,
                                         **kwargs)
        assert trace.order == 3


def test_rbfs_matches_fenwick_reference_at_medium_size():
    # the hypothesis cases stop at n <= 40; here the giant of a coloured
    # G(5000, 1.1/n) holds trees of hundreds of vertices
    n = 5000
    gen = RngStream(24, 0).generator()
    g = colour_uniform(sample_gnp(n, 1.1 / n, gen), n, gen)
    trace = assert_matches_reference(rbfs_forest, fenwick_rbfs_forest, g,
                                     mode="greedy")
    assert trace.stop_reason == "exhausted" and trace.order > 100
    # the default eps (0.138 at alpha = 1) stops at the forest quota; at
    # eps = 0.2 the tree target is 50, which one stream reaches
    stops = set()
    for eps in (None, 0.2):
        for k in (1, 2):
            trace = assert_matches_reference(rbfs_forest, fenwick_rbfs_forest,
                                             g, mode="faithful", delta=0.05,
                                             eps=eps, rng=RngStream(24, k))
            assert trace.order > 1
            stops.add(trace.stop_reason)
    assert stops == {"quota", "target"}


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


@pytest.mark.parametrize("a, b", [(3, 7), (7, 3), (0, 2), (10, 8)])
def test_close_cycle_edges_passes_check_cycle(a, b):
    # a closing edge inside the path, given in either order
    cycle = close_cycle_edges(_rainbow_path_graph(10), list(range(11)),
                              (a, b, 99))
    check_cycle(cycle)
    assert len(cycle) == abs(a - b) + 1


@pytest.mark.parametrize("cycle, message", [
    ([(0, 1, 1), (1, 2, 2), (2, 0, 3), (3, 4, 4), (4, 5, 5), (5, 3, 6)],
     "not connected"),                      # two disjoint rainbow triangles
    ([], "empty"),
    ([(0, 1, 1), (1, 2, 2), (2, 0, 1)], "not rainbow"),
    ([(0, 1, 1), (1, 2, 2), (2, 3, 3)], "not closed"),
])
def test_check_cycle_refuses_what_is_not_one_rainbow_cycle(cycle, message):
    with pytest.raises(AssertionError, match=message):
        check_cycle(cycle)


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


def test_sprinkle_refuses_multigraphs():
    # two parallel 2-1 edges: the path [0, 2, 1] walks the one of colour 2,
    # but a step (2, 1) alone cannot say which edge it was
    g = ColouredGraph.from_edges(3, [(0, 2, 1), (2, 1, 1), (2, 1, 2)], c=3,
                                 multigraph=True)
    trace = rdfs_longest_path(g, mode="greedy")
    assert trace.path == [0, 2, 1]
    assert g.colour[trace.tree_edges].tolist() == [1, 2]
    with pytest.raises(ValueError, match="simple"):
        sprinkle_close_cycle(g, trace.path, [(0, 1, 3)], delta=1.0)
    with pytest.raises(ValueError, match="simple"):
        close_cycle_edges(g, trace.path, (0, 1, 3))


def test_sprinkling_refuses_path_vertices_outside_the_graph():
    g1 = _rainbow_path_graph(4)
    with pytest.raises(ValueError, match="outside"):
        sprinkle_close_cycle(g1, [0, 1, 2, 3, 5], [(0, 5, 9)], delta=1.0)
    with pytest.raises(ValueError, match="outside"):
        close_cycle_edges(g1, [0, 1, 2, 3, -1], (0, -1, 5))


def reference_sprinkle_close_cycle(g1, path, g2_edges, delta):
    """sprinkle_close_cycle as it was before the numpy pass: one Python loop
    over the triples against a set of g1's window edges."""
    _require_simple(g1)
    path = list(path)
    if len(path) < 2:
        raise NotFoundError("path too short to close")
    r = min(g1.n, g1.c)
    w = max(1, int(delta * r / 4.0))
    w = min(w, len(path) // 2)
    first = {v: i for i, v in enumerate(path[:w])}
    last = {v: len(path) - w + i for i, v in enumerate(path[len(path) - w:])}
    used = set(_path_colours(g1, path))
    # a candidate joins two window vertices, so only g1 edges inside the
    # windows can rule one out
    window = np.zeros(g1.n, dtype=bool)
    window[list(first)] = True
    window[list(last)] = True
    inside = window[g1.u] & window[g1.v]
    u, v = g1.u[inside], g1.v[inside]
    in_g1 = set(zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist()))
    for a, b, colour in g2_edges:
        a, b, colour = int(a), int(b), int(colour)
        if ((a in first and b in last) or (a in last and b in first)):
            if (min(a, b), max(a, b)) in in_g1:
                continue
            if colour in used:
                continue
            return (a, b, colour)
    raise NotFoundError("no fresh edge joins the endpoint windows")


def assert_sprinkles_like_reference(g1, path, g2_edges, delta):
    try:
        want = reference_sprinkle_close_cycle(g1, path, g2_edges, delta)
    except NotFoundError as exc:
        with pytest.raises(NotFoundError, match=str(exc)):
            sprinkle_close_cycle(g1, path, g2_edges, delta)
        return
    got = sprinkle_close_cycle(g1, path, g2_edges, delta)
    assert got == want and all(type(x) is int for x in got)


@st.composite
def sprinkle_cases(draw):
    """A simple coloured g1 holding a path, and second-round triples that
    join window vertices, repeat g1 edges and path colours, or fall
    outside [0, n) and [1, c]."""
    n = draw(st.integers(1, 14))
    c = draw(st.integers(1, 30))
    ln = draw(st.one_of(st.just(n), st.integers(0, n)))
    path = draw(st.permutations(range(n)))[:ln]
    colour = st.integers(1, c)
    edges = {(min(a, b), max(a, b)): (a, b, draw(colour))
             for a, b in zip(path[:-1], path[1:])}
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=20)):
        if a != b:
            edges.setdefault((min(a, b), max(a, b)), (a, b, draw(colour)))
    g1 = ColouredGraph.from_edges(n, list(edges.values()), c=c)
    vertex = st.integers(-2, n + 1)
    triple = st.one_of(
        st.tuples(vertex, vertex, st.integers(-1, c + 2)),
        st.tuples(st.sampled_from(path[:len(path) // 2] or [0]),
                  st.sampled_from(path[len(path) // 2:] or [0]),
                  st.integers(0, c + 1)),
        st.sampled_from(list(edges.values()) or [(0, 0, 1)]))
    g2_edges = draw(st.lists(triple, max_size=25))
    delta = draw(st.sampled_from([0.0, 0.3, 1.0, 4.0, 100.0]))
    return g1, path, g2_edges, delta


@settings(max_examples=400, deadline=None)
@given(sprinkle_cases())
def test_sprinkle_matches_reference(case):
    assert_sprinkles_like_reference(*case)


def test_sprinkle_matches_reference_on_cycle_workload_graphs():
    # the graphs, paths and second rounds of one exp_cycle repetition
    n = c = 5000
    d, delta = 129.0, 0.5
    p1 = (d - 1.0) / n
    p2 = 1.0 - (1.0 - d / n) / (1.0 - p1)
    for i in range(20):
        gen = RngStream(4242, i).generator()
        g1 = colour_uniform(sample_gnp(n, p1, gen), c, gen)
        trace = rdfs_longest_path(g1, mode="faithful", delta=delta / 2.0,
                                  query_budget=n * min(n, c))
        g2 = colour_uniform(sample_gnp(n, p2, gen), c, gen)
        g2_edges = list(zip(g2.u.tolist(), g2.v.tolist(), g2.colour.tolist()))
        assert_sprinkles_like_reference(g1, trace.path, g2_edges, delta)
        assert (sprinkle_close_cycle(g1, trace.path, g2_edges, delta)
                == sprinkle_close_cycle(g1, trace.path,
                                        np.column_stack([g2.u, g2.v,
                                                         g2.colour]), delta))


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


def test_path_colours_fixed_cases():
    # steps stored in either direction, beside edges off the path
    edges = [(1, 0, 1), (0, 2, 2), (1, 2, 3), (3, 2, 4), (1, 3, 5)]
    g = ColouredGraph.from_edges(4, edges, c=5)
    assert _path_colours(g, [0, 1, 2, 3]) == [1, 3, 4]
    assert _path_colours(g, [3, 2, 1, 0]) == [4, 3, 1]
    for path in ([0, 1, 2, 3], [3, 2, 1, 0], [1, 0], [2, 3], [0, 2, 3, 1]):
        assert _path_colours(g, path) == sorted_lookup_colours(g, path)
    assert _path_colours(g, [2]) == []
    assert _path_colours(g, []) == []
    with pytest.raises(ValueError, match="not an edge"):
        _path_colours(g, [0, 3])
    with pytest.raises(ValueError, match="not an edge"):
        _path_colours(g, [1, 0, 3, 2])     # only the middle step is missing
    with pytest.raises(ValueError, match="repeats a vertex"):
        _path_colours(g, [0, 1, 0])
    # a vertex id outside [0, n) is refused, neither wrapped nor overrun
    line = _rainbow_path_graph(4)
    for bad in ([2, 3, -1], [3, 4, 5], [-1], [5]):
        with pytest.raises(ValueError, match="outside"):
            _path_colours(line, bad)


@st.composite
def simple_graphs_with_paths(draw):
    """A simple graph holding a path, its steps stored in either direction,
    among extra edges in any order."""
    n = draw(st.integers(2, 10))
    path = draw(st.permutations(range(n)))[:draw(st.integers(2, n))]
    vertex = st.integers(0, n - 1)
    extra = draw(st.lists(st.tuples(vertex, vertex), max_size=30))
    flips = draw(st.lists(st.booleans(), min_size=len(path) - 1,
                          max_size=len(path) - 1))
    steps = [(b, a) if f else (a, b)
             for (a, b), f in zip(zip(path[:-1], path[1:]), flips)]
    simple = {}
    for a, b in draw(st.permutations(steps + extra)):
        if a != b:
            simple.setdefault((min(a, b), max(a, b)), (a, b))
    triples = [(a, b, i + 1) for i, (a, b) in enumerate(simple.values())]
    g = ColouredGraph.from_edges(n, triples, c=len(triples))
    return g, list(path)


@settings(max_examples=300, deadline=None)
@given(simple_graphs_with_paths())
def test_path_colours_matches_sorted_lookup(case):
    g, path = case
    assert _path_colours(g, path) == sorted_lookup_colours(g, path)


# ---------------------------------------------------------------------------
# all four finders against the exact oracle

@st.composite
def small_coloured_graphs(draw):
    """Coloured graphs of at most 16 edges: simple ones, or configuration
    multigraphs with loops, parallel edges and isolated vertices."""
    c = draw(st.integers(1, 20))
    if draw(st.booleans()):
        n = draw(st.integers(0, 12))
        pairs = []
        if n > 1:
            vertex = st.integers(0, n - 1)
            pairs = draw(st.lists(
                st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                max_size=16, unique_by=lambda e: (min(e), max(e))))
        cols = draw(st.lists(st.integers(1, c), min_size=len(pairs),
                             max_size=len(pairs)))
        return ColouredGraph.from_edges(n, [(a, b, col) for (a, b), col
                                            in zip(pairs, cols)], c=c)
    degs = draw(st.lists(st.integers(0, 4), max_size=8))
    gen = RngStream(draw(st.integers(0, 2 ** 32 - 1))).generator()
    g = sample_configuration(degs + [sum(degs) % 2], gen)
    return colour_uniform(g, c, gen)


def check_rainbow_tree(g, edge_ids):
    """Independent of the finders' own assert: distinct colours, and the
    edges (loops and parallel pairs included) form one tree."""
    ids = [int(e) for e in edge_ids]
    assert len({int(g.colour[e]) for e in ids}) == len(ids)
    if ids:
        tree = nx.MultiGraph()
        tree.add_edges_from((int(g.u[e]), int(g.v[e])) for e in ids)
        assert nx.is_tree(tree)


@settings(max_examples=300, deadline=None)
@given(small_coloured_graphs())
def test_finders_stay_within_the_exact_optimum(g):
    best = exact_max_rainbow_tree(g).size
    sub = subcritical_rainbow_tree(g)
    check_rainbow_tree(g, sub)
    assert sub.size <= best
    try:
        sup, report = supercritical_rainbow_tree(g)
    except EmptyCoreError:
        pass
    else:
        check_rainbow_tree(g, sup)
        assert sup.size <= best
        assert report.final_tree_order == sup.size + 1
    tree = rbfs_forest(g, mode="greedy").tree_edges
    check_rainbow_tree(g, tree)
    assert len(tree) <= best
    trace = rdfs_longest_path(g, mode="greedy")
    path, edges = trace.path, trace.tree_edges
    assert len(set(path)) == len(path) == min(g.n, len(edges) + 1)
    for a, b, e in zip(path, path[1:], edges):
        assert {a, b} == {int(g.u[e]), int(g.v[e])}
    assert len({int(g.colour[e]) for e in edges}) == len(edges)
    assert len(edges) <= best


# ---------------------------------------------------------------------------
# weakly supercritical cycles

def test_cycle_finder_rejects_bad_epsilon():
    with pytest.raises(InvalidEpsilonError):
        find_rainbow_cycle_weakly_super(1000, 1000, 0.0, RngStream(1))
    with pytest.raises(InvalidEpsilonError):
        find_rainbow_cycle_weakly_super(1000, 1000, 1.0, RngStream(1))


@pytest.mark.parametrize("c, message", [(0, "need c >= 1"),
                                        (2.5, "c must be an integer")])
def test_cycle_finder_checks_its_colour_count_before_sampling(monkeypatch, c,
                                                              message):
    def no_draw(*args, **kwargs):
        raise AssertionError("G(n, p) was sampled")

    monkeypatch.setattr(finders_module, "sample_gnp", no_draw)
    with pytest.raises(ValueError, match=message):
        find_rainbow_cycle_weakly_super(2000, c, 0.3, RngStream(1))


_UNCOLOURED = ColouredGraph.from_edges(3, [(0, 1, 0), (1, 2, 0)])
_PATH = ColouredGraph.from_edges(3, [(0, 1, 1), (1, 2, 2)], c=2)


@pytest.mark.parametrize("call, message", [
    (lambda: subcritical_rainbow_tree(_UNCOLOURED), "requires a coloured graph"),
    (lambda: supercritical_rainbow_tree(_UNCOLOURED),
     "requires a coloured graph"),
    (lambda: rdfs_longest_path(_UNCOLOURED), "requires a coloured graph"),
    (lambda: rbfs_forest(_UNCOLOURED), "requires a coloured graph"),
    (lambda: rbfs_forest(_PATH, mode="fair"),
     "mode must be 'faithful' or 'greedy'"),
], ids=["sub", "super", "rdfs", "rbfs", "rbfs-mode"])
def test_finders_refuse_uncoloured_graphs_and_unknown_modes(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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

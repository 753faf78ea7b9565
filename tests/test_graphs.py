import os
import threading
import warnings
from collections import deque

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowsim import graphs as graphs_module
from rainbowsim.graphs import (ColouredGraph, EdgeNotInForestError,
                               EmptyCoreError, RootedForest, _climb,
                               _peel, adjacency, bridge_number,
                               connected_components,
                               core_forest_decomposition, forest_depths,
                               forest_from_line, forest_to_line, is_rainbow,
                               read_edgelist, subtree_sizes, two_core,
                               write_edgelist)
from rainbowsim.models import RngStream, colour_uniform, sample_configuration, \
    sample_gnp, sample_uniform_forest, survival_probability


# ---------------------------------------------------------------------------
# independent oracles

def bfs_components(n, edges):
    """Plain adjacency-dict BFS, independent of the library implementation."""
    adj = {}
    for a, b, *_ in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        queue = [s]
        while queue:
            x = queue.pop()
            for y in adj.get(x, ()):
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    queue.append(y)
        comps.append(sorted(comp))
    return comps


def brute_force_two_core(g):
    """Union of all vertex subsets inducing min degree >= 2 (n <= 10)."""
    from itertools import combinations
    best = set()
    edges = g.edge_list()
    for k in range(2, g.n + 1):
        for subset in combinations(range(g.n), k):
            s = set(subset)
            deg = {v: 0 for v in s}
            for a, b, _ in edges:
                if a in s and b in s:
                    deg[a] += 1
                    deg[b] += 1
            if all(d >= 2 for d in deg.values()):
                best |= s
    return best


# ---------------------------------------------------------------------------
# ColouredGraph

def test_graph_validation():
    ColouredGraph.from_edges(3, [(0, 1, 1), (1, 2, 2)], c=2)
    with pytest.raises(ValueError):
        ColouredGraph.from_edges(2, [(0, 2, 1)], c=1)  # endpoint out of range
    with pytest.raises(ValueError):
        ColouredGraph.from_edges(2, [(0, 1, 3)], c=2)  # colour out of range
    with pytest.raises(ValueError):
        ColouredGraph.from_edges(2, [(0, 0, 1)], c=1)  # loop without flag
    with pytest.raises(ValueError):
        ColouredGraph.from_edges(2, [(0, 1, 1), (1, 0, 1)], c=1)  # parallel
    g = ColouredGraph.from_edges(2, [(0, 0, 1), (0, 1, 1), (1, 0, 1)],
                                 c=1, multigraph=True)
    assert g.m == 3
    assert list(g.degrees()) == [4, 2]  # loop counts twice


def test_uncoloured_graph_requires_zero_colours():
    ColouredGraph.from_edges(2, [(0, 1, 0)], c=0)
    with pytest.raises(ValueError):
        ColouredGraph.from_edges(2, [(0, 1, 1)], c=0)


@pytest.mark.parametrize("u, v, colour, message", [
    ([0, 3], [1, 1], [1, 1], "endpoint out of range"),
    ([0, -1], [1, 2], [1, 1], "endpoint out of range"),
    ([0, 1], [1, 2], [1, 4], "colour out of range"),
    ([0, 1], [1, 2], [0, 1], "colour out of range"),
    ([0, 1], [1, 1], [1, 2], "loops require multigraph=True"),
    ([0, 1, 2, 0], [1, 2, 0, 1], [1, 2, 3, 1], "parallel edges require"),
    ([2, 1, 0, 1], [0, 2, 1, 0], [1, 2, 3, 1], "parallel edges require"),
    # a cast to int64 would truncate these: u = 0.9, v = 1.7 gave edge (0, 1)
    ([0.9], [1], [1], "u must hold integers, got dtype float64"),
    ([0], [1.7], [1], "v must hold integers"),
    ([0], [1], [1.2], "colour must hold integers"),
])
def test_public_constructor_rejects_bad_edges(u, v, colour, message):
    with pytest.raises(ValueError, match=message):
        ColouredGraph(n=3, c=3, u=np.array(u), v=np.array(v),
                      colour=np.array(colour))
    with pytest.raises(ValueError, match=message):
        ColouredGraph.from_edges(3, list(zip(u, v, colour)), c=3)


def test_public_constructor_accepts_empty_lists():
    # numpy reads an empty list as float64; it holds no value to truncate
    g = ColouredGraph(n=3, c=2, u=[], v=[], colour=[])
    assert g.m == 0 and g.u.dtype == np.int64
    assert ColouredGraph.from_edges(3, [], c=2).m == 0


def _write_raw_edgelist(path, n, c, edges):
    path.write_text(f"{n} {c}\n" + "".join(f"{a} {b} {col}\n"
                                          for a, b, col in edges))
    return path


@pytest.mark.parametrize("edges, message", [
    ([(0, 1, 1), (1, 3, 1)], "endpoint out of range"),
    ([(0, 1, 1), (-1, 2, 1)], "endpoint out of range"),
    ([(0, 1, 1), (1, 2, 4)], "colour out of range"),
    ([(0, 1, 1), (1, 2, 0)], "colour out of range"),
])
def test_read_edgelist_rejects_bad_edges(tmp_path, edges, message):
    path = _write_raw_edgelist(tmp_path / "bad.edges", 3, 3, edges)
    with pytest.raises(ValueError, match=message):
        read_edgelist(path)


@pytest.mark.parametrize("edges, multi", [
    ([(0, 1, 1), (1, 2, 2), (2, 0, 3)], False),
    ([(0, 1, 1), (1, 1, 2)], True),
    ([(0, 1, 1), (1, 2, 2), (0, 1, 3)], True),
    ([(0, 1, 1), (1, 2, 2), (1, 0, 3)], True),
])
def test_read_edgelist_detects_multigraphs(tmp_path, edges, multi):
    path = _write_raw_edgelist(tmp_path / "g.edges", 3, 3, edges)
    g = read_edgelist(path)
    assert g.multigraph is multi
    assert g.edge_list() == edges


@pytest.mark.parametrize("body", [
    "0 1 1\n1 2 2\n",                       # as written
    "0 1 1\n1 2 2",                          # no final newline
    "0 1 1\r\n1 2 2\r\n",                   # CRLF
    "\n0\t1\t1\n\n  \n 1  2 2  \n\n",        # blank lines, tabs, spaces
    "+0 1 1 extra\n1 2 +2 7 8\n",            # signs and extra columns
])
def test_read_edgelist_whitespace_grammar(tmp_path, body):
    path = tmp_path / "g.edges"
    path.write_bytes(b"3 2\n" + body.encode("ascii"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = read_edgelist(path)
    assert (g.n, g.c, g.multigraph) == (3, 2, False)
    assert g.edge_list() == [(0, 1, 1), (1, 2, 2)]
    for a in (g.u, g.v, g.colour):
        assert a.dtype == np.int64 and a.flags.c_contiguous


@pytest.mark.parametrize("body", ["", "\n", "\n  \n\t\n", "\r\n\r\n", "  "])
def test_read_edgelist_header_only(tmp_path, body):
    path = tmp_path / "empty.edges"
    path.write_bytes(b"4 2\n" + body.encode("ascii"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = read_edgelist(path)
    assert (g.n, g.c, g.m, g.multigraph) == (4, 2, 0, False)
    for a in (g.u, g.v, g.colour):
        assert a.dtype == np.int64


@pytest.mark.parametrize("text", [
    "3 2\n0 1 1\n1 2\n",                     # short line
    "3 2\n0 1 1\n1 2.0 2\n",                 # not an integer
    "3 2\n0 1 x\n",
    "3 2\n0 99999999999999999999 1\n",       # outside int64
    "3 2\n0 1 1\n1 2 3\n",                   # colour out of range
    "",                                       # no header
    "\n0 1 1\n",                             # empty header
    "3\n0 1 1\n",                            # short header
    "3 two\n0 1 1\n",                        # malformed header
])
def test_read_edgelist_rejects_malformed_input(tmp_path, text):
    path = tmp_path / "bad.edges"
    path.write_text(text)
    with pytest.raises(ValueError):
        read_edgelist(path)


@pytest.mark.parametrize("field", ["2.0", "1.5", "1e0"])
def test_read_edgelist_rejects_float_fields_whatever_the_filters(tmp_path, field):
    # numpy's loadtxt falls back to float-and-truncate for integer dtypes
    # under a DeprecationWarning; the reader must refuse the field even when
    # the caller's filters would hide that warning
    path = tmp_path / "bad.edges"
    path.write_text(f"3 2\n0 1 1\n1 2 {field}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match="could not convert"):
            read_edgelist(path)
        g = _write_raw_edgelist(tmp_path / "ok.edges", 3, 2, [(0, 1, 1)])
        assert read_edgelist(g).edge_list() == [(0, 1, 1)]


def test_builders_without_validation_output_valid_graphs():
    # the samplers and subgraph builders skip validation; the public
    # constructor must accept everything they build
    def revalidate(g):
        ColouredGraph(n=g.n, c=g.c, u=g.u, v=g.v, colour=g.colour,
                      multigraph=g.multigraph)

    for seed in range(20):
        gen = RngStream(600 + seed).generator()
        n = int(gen.integers(0, 60))
        for p in (0.0, 0.05, 0.3, 1.0):
            g = sample_gnp(n, p, gen)
            assert not g.multigraph
            revalidate(g)
            g = colour_uniform(g, int(gen.integers(1, 10)), gen)
            revalidate(g)
            revalidate(two_core(g))
        degs = gen.integers(0, 5, size=12)
        degs[0] += degs.sum() % 2
        g = sample_configuration(degs, gen)
        assert g.multigraph
        revalidate(g)
        revalidate(two_core(colour_uniform(g, 3, gen)))


# ---------------------------------------------------------------------------
# adjacency

def lexsort_adjacency(g):
    """Reference CSR: lexsort of the half-edges by (end, neighbour)."""
    ends = np.concatenate([g.u, g.v])
    other = np.concatenate([g.v, g.u])
    eid = np.concatenate([np.arange(g.m, dtype=np.int64)] * 2)
    order = np.lexsort((other, ends))
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=g.n), out=indptr[1:])
    return indptr, other[order], eid[order]


@st.composite
def graphs_and_multigraphs(draw):
    """Multigraphs with loops and parallel edges in any order, or simple
    graphs (loops dropped, each pair once, in either direction)."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=40))
    multigraph = draw(st.booleans())
    if not multigraph:
        simple = {}
        for a, b in edges:
            if a != b:
                simple.setdefault((min(a, b), max(a, b)), (a, b))
        edges = list(simple.values())
    u = np.array([a for a, _ in edges], dtype=np.int64)
    v = np.array([b for _, b in edges], dtype=np.int64)
    return ColouredGraph(n=n, c=0, u=u, v=v, colour=np.zeros(len(u), np.int64),
                         multigraph=multigraph)


@settings(max_examples=300, deadline=None)
@given(graphs_and_multigraphs())
def test_adjacency_matches_lexsort_reference(g):
    # one packed-key sort serves simple graphs and multigraphs alike
    got = adjacency(g)
    want = lexsort_adjacency(g)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n, m", [
    (2 ** 20, 2 ** 19),       # the packed key takes all 63 bits
    (2 ** 21 + 1, 2 ** 18),   # it would take 64: the argsort path
])
def test_adjacency_matches_lexsort_reference_on_large_ids(n, m):
    gen = np.random.default_rng(2 ** 18)
    u = gen.integers(0, n, size=m)
    v = gen.integers(0, n, size=m)
    # one parallel pair, stored in opposite directions, on the largest id
    u[:2] = n - 1, 7
    v[:2] = 7, n - 1
    g = ColouredGraph(n=n, c=0, u=u, v=v, colour=np.zeros(m, np.int64),
                      multigraph=True)
    got = adjacency(g)
    want = lexsort_adjacency(g)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# connected components

def test_components_empty_graph():
    for n in (0, 3):
        part = connected_components(ColouredGraph.from_edges(n, [], c=0))
        assert part.labels.tolist() == list(range(n))
        assert part.sizes_desc.tolist() == [1] * n
        assert part.labels.dtype == part.sizes_desc.dtype == np.int64


def test_components_path_plus_isolated():
    g = ColouredGraph.from_edges(4, [(0, 1, 1), (1, 2, 1)], c=1)
    part = connected_components(g)
    assert part.labels.tolist() == [0, 0, 0, 3]
    assert part.sizes_desc.tolist() == [3, 1]
    assert np.flatnonzero(part.labels == part.largest_id()).tolist() == [0, 1, 2]


def test_components_match_independent_bfs():
    g = sample_gnp(1000, 2 / 1000, RngStream(101))
    part = connected_components(g)
    oracle = bfs_components(1000, g.edge_list())
    mine = {}
    for v, lab in enumerate(part.labels.tolist()):
        mine.setdefault(lab, []).append(v)
    assert sorted(sorted(c) for c in mine.values()) == sorted(oracle)
    gamma2 = survival_probability(2.0)
    assert 0.6 * gamma2 * 1000 <= part.sizes_desc[0] <= 1000


def test_components_relabelling_invariant():
    gen = RngStream(55).generator()
    g = sample_gnp(300, 3 / 300, gen)
    perm = gen.permutation(300)
    g2 = ColouredGraph(n=300, c=0, u=perm[g.u], v=perm[g.v],
                       colour=g.colour)
    a = connected_components(g).sizes_desc
    b = connected_components(g2).sizes_desc
    assert a.tolist() == b.tolist()


@st.composite
def sparse_multigraphs(draw):
    """Multigraphs with loops, parallel edges and isolated vertices, sparse
    enough to fall into many components."""
    n = draw(st.integers(0, 40))
    edges = []
    if n:
        vertex = st.integers(0, n - 1)
        edges = draw(st.lists(st.tuples(vertex, vertex), max_size=n))
    return ColouredGraph.from_edges(n, [(a, b, 0) for a, b in edges],
                                    multigraph=True)


@settings(max_examples=500, deadline=None)
@given(sparse_multigraphs())
def test_components_match_networkx(g):
    h = nx.MultiGraph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(zip(g.u.tolist(), g.v.tolist()))
    comps = list(nx.connected_components(h))
    want = np.empty(g.n, dtype=np.int64)
    for comp in comps:
        want[list(comp)] = min(comp)
    part = connected_components(g)
    assert part.labels.tolist() == want.tolist()
    assert part.sizes_desc.tolist() == sorted((len(c) for c in comps),
                                              reverse=True)
    if g.n:
        biggest = max(len(c) for c in comps)
        assert part.largest_id() == min(min(c) for c in comps
                                        if len(c) == biggest)


@pytest.mark.parametrize("n, edges, want", [
    (4, [], 0),                                         # all singletons
    (6, [(3, 4), (4, 5), (0, 1), (1, 2)], 0),           # tie, listed last
    # tie between {4, 5, 6} and {1, 2, 3}, with a parallel pair and a loop
    (7, [(5, 6), (6, 4), (4, 5), (2, 3), (3, 2), (1, 3), (1, 1)], 1),
    (5, [(0, 1), (2, 3), (3, 4)], 2),                   # larger one wins
    (0, [], 0),                                         # no vertices
])
def test_largest_id_ties_go_to_smallest_id(n, edges, want):
    g = ColouredGraph.from_edges(n, [(a, b, 0) for a, b in edges],
                                 multigraph=True)
    assert connected_components(g).largest_id() == want


# ---------------------------------------------------------------------------
# 2-core

def test_two_core_of_tree_is_empty():
    g = ColouredGraph.from_edges(5, [(0, 1, 1), (1, 2, 2), (1, 3, 3), (3, 4, 1)], c=3)
    assert two_core(g).m == 0


@pytest.mark.parametrize("n", [0, 4])
def test_two_core_without_edges(n):
    g = ColouredGraph.from_edges(n, [], c=2)
    vmask, emask, _, _ = _peel(g)
    assert vmask.dtype == emask.dtype == bool
    assert vmask.tolist() == [False] * n and emask.size == 0
    core = two_core(g)
    assert (core.n, core.c, core.m) == (n, 2, 0)
    for a in (core.u, core.v, core.colour):
        assert a.dtype == np.int64


def test_peel_points_each_peeled_vertex_at_its_parent():
    # triangle 0-1-2 with the pendant path 2-3-4; the path 5-6-7 peels 6
    # last, with no live neighbour; the edge 8-9 peels both ends at once
    edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (5, 6), (6, 7), (8, 9)]
    g = ColouredGraph.from_edges(10, [(a, b, i + 1) for i, (a, b)
                                      in enumerate(edges)], c=len(edges))
    vmask, emask, up, up_edge = _peel(g)
    assert vmask.tolist() == [True] * 3 + [False] * 7
    assert emask.tolist() == [True] * 3 + [False] * 5
    assert up.tolist() == [-1, -1, -1, 2, 3, 6, -1, 6, -1, -1]
    assert up_edge.tolist() == [-1, -1, -1, 3, 4, 5, -1, 6, -1, -1]
    assert up.dtype == up_edge.dtype == np.int64


def test_two_core_of_cycle_is_itself():
    edges = [(i, (i + 1) % 5, i + 1) for i in range(5)]
    g = ColouredGraph.from_edges(5, edges, c=5)
    core = two_core(g)
    assert sorted(core.edge_list()) == sorted(edges)


def test_two_core_cycle_with_pendant_path():
    edges = [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4),
             (3, 4, 5), (4, 5, 6), (5, 6, 7)]
    g = ColouredGraph.from_edges(7, edges, c=7)
    core = two_core(g)
    core_vertices = set(core.u.tolist()) | set(core.v.tolist())
    assert core_vertices == brute_force_two_core(g) == {0, 1, 2, 3}
    assert core.m == 4


def test_two_core_matches_brute_force_on_random_graphs():
    for seed in range(30):
        gen = RngStream(400 + seed).generator()
        g = sample_gnp(8, 0.35, gen)
        core = two_core(g)
        got = set(core.u.tolist()) | set(core.v.tolist())
        assert got == brute_force_two_core(g)
        if core.m:
            deg = core.degrees()
            assert deg[deg > 0].min() >= 2


def networkx_two_core(g):
    """2-core (vertex set, edge-id set) from networkx.k_core.

    k_core takes only simple graphs, so every edge e = (a, b) is subdivided
    by a fresh vertex, and a loop (a, a) becomes a triangle through two
    fresh vertices; both keep each vertex's degree and each edge's
    membership of the 2-core.
    """
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    for e, (a, b) in enumerate(zip(g.u.tolist(), g.v.tolist())):
        mid = ("e", e)
        h.add_edges_from([(a, mid), (mid, b)] if a != b else
                         [(a, mid), (mid, ("loop", e)), (("loop", e), a)])
    core = nx.k_core(h, 2)
    verts = {x for x in core if isinstance(x, int)}
    edges = {x[1] for x in core if isinstance(x, tuple) and x[0] == "e"}
    return verts, edges


@settings(max_examples=300, deadline=None)
@given(graphs_and_multigraphs())
def test_two_core_matches_networkx(g):
    verts, edges = networkx_two_core(g)
    vmask, emask, _, _ = _peel(g)
    assert set(np.flatnonzero(vmask).tolist()) == verts
    assert set(np.flatnonzero(emask).tolist()) == edges
    core = two_core(g)
    assert core.edge_list() == [g.edge_list()[e] for e in sorted(edges)]


# ---------------------------------------------------------------------------
# core/forest decomposition

def test_decomposition_triangle_with_pendant():
    g = ColouredGraph.from_edges(4, [(0, 1, 1), (1, 2, 2), (2, 0, 3), (2, 3, 4)], c=4)
    part = connected_components(g)
    giant = np.flatnonzero(part.labels == part.largest_id())
    dec = core_forest_decomposition(g, giant, np.array([], dtype=np.int64))
    assert dec.core_vertices.tolist() == [0, 1, 2]
    assert dec.forest.m == 4 and dec.forest.t == 3
    w = 3  # the single non-root, globally vertex 3
    assert dec.forest_labels[w] == 3
    assert dec.forest_labels[dec.forest.parent[w]] == 2  # rooted at vertex 2


def test_decomposition_pure_cycle_gives_isolated_roots():
    edges = [(i, (i + 1) % 6, i + 1) for i in range(6)]
    g = ColouredGraph.from_edges(6, edges, c=6)
    part = connected_components(g)
    giant = np.flatnonzero(part.labels == part.largest_id())
    dec = core_forest_decomposition(g, giant, np.array([], dtype=np.int64))
    assert dec.forest.t == dec.forest.m == 6
    assert (dec.forest.parent == -1).all()


def test_decomposition_empty_core_raises():
    g = ColouredGraph.from_edges(3, [(0, 1, 1), (1, 2, 2)], c=2)
    part = connected_components(g)
    giant = np.flatnonzero(part.labels == part.largest_id())
    with pytest.raises(EmptyCoreError):
        core_forest_decomposition(g, giant, np.array([], dtype=np.int64))


def test_decomposition_keeps_other_cores_out():
    # giant: K4 on 0..3 with the path 3-4-5; a bowtie on 6..10 (two
    # triangles, six edges on five vertices: neither giant nor unicyclic);
    # unicyclic: triangle 11-12-13 with pendant 14
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    edges = k4 + [(3, 4), (4, 5),
                  (6, 7), (7, 8), (8, 6), (8, 9), (9, 10), (10, 8),
                  (11, 12), (12, 13), (13, 11), (13, 14)]
    g = ColouredGraph.from_edges(15, [(a, b, i + 1) for i, (a, b)
                                      in enumerate(edges)], c=len(edges))
    part = connected_components(g)
    giant = np.flatnonzero(part.labels == part.largest_id())
    uni = _unicyclic_vertices(g, part)
    assert giant.tolist() == list(range(6))
    assert uni.tolist() == [11, 12, 13, 14]
    dec = core_forest_decomposition(g, giant, uni)
    assert dec.core_vertices.tolist() == [0, 1, 2, 3, 11, 12, 13]
    assert dec.core_edges.tolist() == [0, 1, 2, 3, 4, 5, 14, 15, 16]
    assert dec.forest_labels.tolist() == [0, 1, 2, 3, 11, 12, 13, 4, 5, 14]
    assert dec.forest.parent.tolist() == [-1] * 7 + [3, 7, 6]
    assert dec.forest_edge_ids.tolist() == [-1] * 7 + [6, 7, 17]
    # the bowtie's own 2-core is all of it
    assert two_core(g).m == 15


@pytest.mark.parametrize("edges, giant, unicyclic, error, message", [
    # cored giant (triangle with a pendant) beside a tree passed as unicyclic
    ([(0, 1), (1, 2), (2, 0), (2, 3), (4, 5), (5, 6)], [0, 1, 2, 3],
     [4, 5, 6], ValueError,
     "giant/unicyclic region is not fully attached to the core"),
    # a coreless giant raises EmptyCoreError first, with or without another
    # core in the region
    ([(0, 1), (1, 2), (2, 3), (4, 5)], [0, 1, 2, 3], [4, 5], EmptyCoreError,
     "2-core of the giant+unicyclic region is empty"),
    ([(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 4), (7, 8)], [0, 1, 2, 3],
     [4, 5, 6, 7, 8], EmptyCoreError, "2-core of the giant is empty"),
])
def test_decomposition_refuses_a_tree_off_the_core(edges, giant, unicyclic,
                                                   error, message):
    g = ColouredGraph.from_edges(9, [(a, b, i + 1) for i, (a, b)
                                     in enumerate(edges)], c=len(edges))
    with pytest.raises(error) as info:
        core_forest_decomposition(g, giant, unicyclic)
    assert type(info.value) is error and str(info.value) == message


def _unicyclic_vertices(g, part):
    giant_id = part.largest_id()
    ids, vcounts = np.unique(part.labels, return_counts=True)
    ecounts = np.zeros(len(ids), dtype=np.int64)
    np.add.at(ecounts, np.searchsorted(ids, part.labels[g.u]), 1)
    uni_ids = ids[(ecounts == vcounts) & (ids != giant_id)]
    return np.flatnonzero(np.isin(part.labels, uni_ids))


def test_decomposition_invariants_on_samples():
    # weakly supercritical samples; every structural invariant holds
    for seed in range(100):
        n = 10 ** 5
        g = sample_gnp(n, 1.2 / n, RngStream(900 + seed))
        g = colour_uniform(g, n, RngStream(1900 + seed))
        part = connected_components(g)
        giant = np.flatnonzero(part.labels == part.largest_id())
        uni = _unicyclic_vertices(g, part)
        try:
            dec = core_forest_decomposition(g, giant, uni)
        except EmptyCoreError:
            continue
        f = dec.forest
        f.check()
        # each tree's root is a core vertex (roots are local 0..t-1 = core)
        assert f.t == len(dec.core_vertices)
        # core edges and forest edges are disjoint and cover the region
        in_s = np.zeros(n, dtype=bool)
        in_s[giant] = True
        in_s[uni] = True
        region_edges = set(np.flatnonzero(in_s[g.u] & in_s[g.v]).tolist())
        core_set = set(dec.core_edges.tolist())
        forest_set = set(dec.forest_edge_ids[dec.forest_edge_ids >= 0].tolist())
        assert core_set.isdisjoint(forest_set)
        assert core_set | forest_set == region_edges
        # core has min degree 2 within its edges
        deg = np.bincount(g.u[dec.core_edges], minlength=n) \
            + np.bincount(g.v[dec.core_edges], minlength=n)
        assert deg[dec.core_vertices].min() >= 2


def deque_bfs_decomposition(g, giant, unicyclic):
    """Reference orientation for core_forest_decomposition: a deque BFS
    over the forest edges from the core vertices, after a peel of the whole
    graph of which it takes only the masks (not _peel's up/up_edge).

    Returns (parent, forest_edge_ids, forest_labels, core_vertices,
    core_edges).
    """
    in_s = np.zeros(g.n, dtype=bool)
    in_s[giant] = True
    in_s[unicyclic] = True
    vmask, emask, _, _ = _peel(g)
    core_v_mask = vmask & in_s
    core_verts = np.flatnonzero(core_v_mask)
    if core_verts.size == 0 or not core_v_mask[giant].any():
        raise EmptyCoreError("empty core")
    s_edge = in_s[g.u] & in_s[g.v]
    core_edges = np.flatnonzero(emask & s_edge)
    forest_edges = np.flatnonzero(s_edge & ~(emask & s_edge))
    s_verts = np.flatnonzero(in_s)
    t, m = core_verts.size, s_verts.size
    non_core = s_verts[~core_v_mask[s_verts]]
    local = np.full(g.n, -1, dtype=np.int64)
    local[core_verts] = np.arange(t)
    local[non_core] = t + np.arange(non_core.size)
    labels = np.concatenate([core_verts, non_core])
    sub = ColouredGraph(n=g.n, c=0, u=g.u[forest_edges], v=g.v[forest_edges],
                        colour=np.zeros(forest_edges.size, np.int64),
                        multigraph=True)
    indptr, nbr, eid = adjacency(sub)
    parent = np.full(m, -1, dtype=np.int64)
    edge_ids = np.full(m, -1, dtype=np.int64)
    seen = core_v_mask.copy()
    queue = deque(core_verts.tolist())
    while queue:
        x = queue.popleft()
        for p in range(indptr[x], indptr[x + 1]):
            y = nbr[p]
            if not seen[y]:
                seen[y] = True
                parent[local[y]] = local[x]
                edge_ids[local[y]] = forest_edges[eid[p]]
                queue.append(y)
    assert seen[s_verts].all()
    return parent, edge_ids, labels, core_verts, core_edges


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(20, 400),
       st.sampled_from([1.1, 1.1, 1.5, 2.5]), st.booleans())
def test_decomposition_matches_deque_bfs(seed, n, d, configuration):
    gen = RngStream(seed).generator()
    if configuration:
        degs = gen.integers(0, 4, size=n)
        degs[0] += degs.sum() % 2
        g = sample_configuration(degs, gen)
    else:
        g = sample_gnp(n, d / n, gen)
    g = colour_uniform(g, n, gen)
    part = connected_components(g)
    giant = np.flatnonzero(part.labels == part.largest_id())
    uni = _unicyclic_vertices(g, part)
    try:
        want = deque_bfs_decomposition(g, giant, uni)
    except EmptyCoreError:
        with pytest.raises(EmptyCoreError):
            core_forest_decomposition(g, giant, uni)
        return
    dec = core_forest_decomposition(g, giant, uni)
    got = (dec.forest.parent, dec.forest_edge_ids, dec.forest_labels,
           dec.core_vertices, dec.core_edges)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# bridge numbers

def test_bridge_number_path():
    f = RootedForest(m=3, t=1, parent=np.array([-1, 0, 1]))
    assert bridge_number(f, (1, 2)) == 1
    assert bridge_number(f, (0, 1)) == 2
    with pytest.raises(EdgeNotInForestError):
        bridge_number(f, (0, 2))


def test_bridge_number_star():
    f = RootedForest(m=5, t=1, parent=np.array([-1, 0, 0, 0, 0]))
    for w in range(1, 5):
        assert bridge_number(f, (0, w)) == 1


def test_bridge_number_against_component_recount():
    # delete the edge and recount the far component from scratch
    for seed in range(40):
        gen = RngStream(3000 + seed).generator()
        m = int(gen.integers(2, 51))
        t = int(gen.integers(1, m + 1))
        if t == m:
            continue
        f = sample_uniform_forest(m, t, gen)
        w = int(gen.integers(t, m))
        v = int(f.parent[w])
        got = bridge_number(f, (v, w))
        edges = [(int(f.parent[x]), x) for x in range(t, m) if x != w]
        comps = bfs_components(m, [(a, b, 0) for a, b in edges])
        far = next(c for c in comps if w in c)
        assert got == len(far)


def test_forest_depths_out_of_range_parent():
    f = RootedForest(m=5, t=1, parent=np.array([-1, 0, -1, 7, 3]))
    assert forest_depths(f).tolist() == [0, 1, -1, -1, -1]
    with pytest.raises(ValueError):
        subtree_sizes(f)
    with pytest.raises(ValueError):
        f.check()


def test_subtree_sizes_total():
    for parent, want in (([-1, -1, 0, 0, 2, 1], [4, 2, 2, 1, 1, 1]),
                         ([-1, -1, -1], [1, 1, 1]),     # roots only
                         ([], [])):                     # no vertices
        m, t = len(parent), parent.count(-1)
        f = RootedForest(m=m, t=t, parent=np.array(parent, dtype=np.int64))
        sizes = subtree_sizes(f)
        assert sizes.dtype == np.int64
        assert sizes.tolist() == want


def chain_walk_depths(f):
    """Reference forest_depths: the per-vertex chain walk it replaced."""
    par = f.parent.tolist()
    m = f.m
    depth = [-2] * m
    for s in range(f.t):
        depth[s] = 0
    for x in range(f.t, m):
        if depth[x] >= 0:
            continue
        chain = []
        y = x
        seen = set()
        while depth[y] < 0:
            if y in seen:
                for z in chain:
                    depth[z] = -1
                break
            seen.add(y)
            chain.append(y)
            y = par[y]
        else:
            d = depth[y]
            for z in reversed(chain):
                d += 1
                depth[z] = d
            continue
        # cycle found: mark whole chain
        for z in chain:
            depth[z] = -1
    return np.array([d if d >= 0 else -1 for d in depth], dtype=np.int64)


@st.composite
def parent_arrays(draw):
    """Roots 0..t-1 and arbitrary in-range parents: forests, cycles, and
    tails running into cycles."""
    m = draw(st.integers(1, 40))
    t = draw(st.integers(0, m))
    rest = draw(st.lists(st.integers(0, m - 1), min_size=m - t,
                         max_size=m - t))
    if t and draw(st.booleans()):
        rest = [p % x for p, x in zip(rest, range(t, m))]   # acyclic
    return RootedForest(m=m, t=t, parent=np.array([-1] * t + rest, dtype=np.int64))


def chain_walk_climb(f: RootedForest, weight):
    """(root, total) by walking each parent chain: -1 and 0 where it never
    reaches a root."""
    root = np.full(f.m, -1, dtype=np.int64)
    total = np.zeros(f.m, dtype=np.int64)
    for x in range(f.m):
        y, s, seen = x, 0, set()
        while f.t <= y < f.m and y not in seen:
            seen.add(y)
            s += int(weight[y])
            y = int(f.parent[y])
        if 0 <= y < f.t:
            root[x], total[x] = y, s
    return root, total


@settings(max_examples=1000, deadline=None)
@given(parent_arrays(), st.data())
def test_forest_depths_match_chain_walk(f, data):
    want = chain_walk_depths(f)
    got = forest_depths(f)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()
    weight = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=f.m,
                                         max_size=f.m)), dtype=np.int64)
    want_root, want_total = chain_walk_climb(f, weight)
    root, total = _climb(f, weight)
    assert root.tolist() == want_root.tolist()
    reached = want_root >= 0
    assert total[reached].tolist() == want_total[reached].tolist()
    if (want < 0).any():
        with pytest.raises(ValueError):
            subtree_sizes(f)
        return
    # subtree of w: every vertex whose parent chain passes through w
    below = np.zeros(f.m, dtype=np.int64)
    for x in range(f.m):
        y = x
        while y >= 0:
            below[y] += 1
            y = f.parent[y] if y >= f.t else -1
    assert subtree_sizes(f).tolist() == below.tolist()


# ---------------------------------------------------------------------------
# rainbow check

def test_is_rainbow():
    g = ColouredGraph.from_edges(4, [(0, 1, 7), (1, 2, 7), (2, 3, 3)], c=7)
    assert is_rainbow(g, [0])
    assert not is_rainbow(g, [0, 1])
    assert is_rainbow(g, [0, 2])
    assert is_rainbow(g, [])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 6), max_size=8), st.data())
def test_is_rainbow_matches_set_reference(colours, data):
    g = ColouredGraph.from_edges(2, [(0, 1, col) for col in colours], c=6,
                                 multigraph=True)
    ids = data.draw(st.lists(st.integers(0, max(len(colours) - 1, 0)),
                             max_size=len(colours), unique=True))
    picked = [colours[i] for i in ids]
    assert is_rainbow(g, ids) == (len(set(picked)) == len(picked))


# ---------------------------------------------------------------------------
# text formats

def test_edgelist_roundtrip_bytes(tmp_path):
    g = colour_uniform(sample_gnp(50, 0.1, RngStream(5)), 9, RngStream(6))
    p1 = tmp_path / "a.edges"
    p2 = tmp_path / "b.edges"
    write_edgelist(g, p1)
    g2 = read_edgelist(p1)
    write_edgelist(g2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert g2.n == g.n and g2.c == g.c and g2.edge_list() == g.edge_list()


def reference_write_edgelist(g, path):
    """write_edgelist as it was before the chunked %-format: one f-string
    per edge."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{g.n} {g.c}\n")
        for a, b, col in zip(g.u.tolist(), g.v.tolist(), g.colour.tolist()):
            fh.write(f"{a} {b} {col}\n")


@pytest.mark.parametrize("chunk", [1, 3, 1 << 16])
def test_write_edgelist_matches_reference_bytes(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(graphs_module, "_WRITE_CHUNK", chunk)
    cases = [
        ColouredGraph.from_edges(0, [], c=0),
        ColouredGraph.from_edges(0, [], c=7),
        ColouredGraph.from_edges(3, [], c=2),
        ColouredGraph.from_edges(2, [(0, 1, 1), (1, 0, 2), (0, 0, 3)],
                                 c=3, multigraph=True),
        ColouredGraph.from_edges(2 ** 40, [(2 ** 40 - 1, 0, 10 ** 15)],
                                 c=10 ** 15),
        colour_uniform(sample_gnp(200, 0.05, RngStream(8)), 30, RngStream(9)),
    ]
    if chunk == 1 << 16:
        # more than two chunks, the last one partial
        cases.append(colour_uniform(sample_gnp(520, 0.99, RngStream(10)),
                                    10 ** 6, RngStream(11)))
        assert cases[-1].m > 2 * chunk
    for i, g in enumerate(cases):
        got, want = tmp_path / f"got{i}.edges", tmp_path / f"want{i}.edges"
        write_edgelist(g, got)
        reference_write_edgelist(g, want)
        assert got.read_bytes() == want.read_bytes()


@pytest.mark.skipif(not os.path.exists("/dev/fd"), reason="no /dev/fd")
def test_read_edgelist_reads_a_pipe_once(tmp_path):
    # a reader that opened the path a second time would find the header and
    # the first buffered lines already consumed
    g = colour_uniform(sample_gnp(4000, 0.0025, RngStream(12)), 50,
                       RngStream(13))
    path = tmp_path / "g.edges"
    write_edgelist(g, path)
    data = path.read_bytes()
    assert len(data) > 1 << 17      # far more than one pipe buffer
    r, w = os.pipe()

    def feed():
        with os.fdopen(w, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        piped = read_edgelist(f"/dev/fd/{r}")
    finally:
        os.close(r)
        writer.join(timeout=10)
    assert not writer.is_alive()
    want = read_edgelist(path)
    assert (piped.n, piped.c, piped.multigraph) == (want.n, want.c,
                                                     want.multigraph)
    for name in ("u", "v", "colour"):
        a, b = getattr(piped, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_edgelist_multigraph_detection(tmp_path):
    g = ColouredGraph.from_edges(2, [(0, 1, 1), (1, 0, 2), (0, 0, 3)],
                                 c=3, multigraph=True)
    path = tmp_path / "multi.edges"
    write_edgelist(g, path)
    g2 = read_edgelist(path)
    assert g2.multigraph
    assert g2.edge_list() == g.edge_list()


def test_forest_line_roundtrip():
    f = RootedForest(m=5, t=2, parent=np.array([-1, -1, 0, 2, 1]))
    line = forest_to_line(f)
    assert line == "5 2 0 2 1"
    f2 = forest_from_line(line)
    assert f2.m == 5 and f2.t == 2 and f2.parent.tolist() == f.parent.tolist()


@pytest.mark.parametrize("line, message", [
    ("3 1 0 7", "out of range"),
    ("3 1 2 1", "cycle"),
    ("", "header"),
    ("5 2 0 0", "need m - t = 3"),
])
def test_forest_from_line_rejects(line, message):
    with pytest.raises(ValueError, match=message):
        forest_from_line(line)


# ---------------------------------------------------------------------------
# vertex and colour counts must be integers

@pytest.mark.parametrize("n, c, message", [
    (2.5, 0, "n must be an integer"),
    (3.0, 0, "n must be an integer"),
    (3, 1.5, "c must be an integer"),
    (3, 3.0, "c must be an integer"),
])
def test_public_constructor_refuses_non_integer_counts(n, c, message):
    e = np.zeros(0, dtype=np.int64)
    with pytest.raises(ValueError, match=message):
        ColouredGraph(n, c, e, e, e)


def test_public_constructor_accepts_numpy_integer_counts():
    g = ColouredGraph(np.int64(5), np.int64(2), [0, 1], [1, 4], [1, 2])
    assert g.n == 5 and g.c == 2
    assert connected_components(g).sizes_desc.tolist() == [3, 1, 1]

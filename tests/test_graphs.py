import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowsim.graphs import (ColouredGraph, EdgeNotInForestError,
                               EmptyCoreError, RootedForest, adjacency,
                               bridge_number, connected_components,
                               core_forest_decomposition, forest_from_line,
                               forest_to_line, is_rainbow, read_edgelist,
                               subtree_sizes, two_core, write_edgelist)
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
])
def test_public_constructor_rejects_bad_edges(u, v, colour, message):
    with pytest.raises(ValueError, match=message):
        ColouredGraph(n=3, c=3, u=np.array(u), v=np.array(v),
                      colour=np.array(colour))
    with pytest.raises(ValueError, match=message):
        ColouredGraph.from_edges(3, list(zip(u, v, colour)), c=3)


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
def multigraphs(draw):
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=40))
    u = np.array([a for a, _ in edges], dtype=np.int64)
    v = np.array([b for _, b in edges], dtype=np.int64)
    return ColouredGraph(n=n, c=0, u=u, v=v, colour=np.zeros(len(u), np.int64),
                         multigraph=True)


@settings(max_examples=300, deadline=None)
@given(multigraphs())
def test_adjacency_matches_lexsort_reference(g):
    got = adjacency(g)
    want = lexsort_adjacency(g)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# connected components

def test_components_empty_graph():
    g = ColouredGraph.from_edges(3, [], c=0)
    part = connected_components(g)
    assert sorted(part.labels.tolist()) == [0, 1, 2]
    assert part.sizes_desc.tolist() == [1, 1, 1]


def test_components_path_plus_isolated():
    g = ColouredGraph.from_edges(4, [(0, 1, 1), (1, 2, 1)], c=1)
    part = connected_components(g)
    assert part.labels.tolist() == [0, 0, 0, 3]
    assert part.sizes_desc.tolist() == [3, 1]
    assert part.largest_vertices().tolist() == [0, 1, 2]


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


# ---------------------------------------------------------------------------
# 2-core

def test_two_core_of_tree_is_empty():
    g = ColouredGraph.from_edges(5, [(0, 1, 1), (1, 2, 2), (1, 3, 3), (3, 4, 1)], c=3)
    assert two_core(g).m == 0


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


# ---------------------------------------------------------------------------
# core/forest decomposition

def test_decomposition_triangle_with_pendant():
    g = ColouredGraph.from_edges(4, [(0, 1, 1), (1, 2, 2), (2, 0, 3), (2, 3, 4)], c=4)
    part = connected_components(g)
    giant = part.largest_vertices()
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
    dec = core_forest_decomposition(g, part.largest_vertices(),
                                    np.array([], dtype=np.int64))
    assert dec.forest.t == dec.forest.m == 6
    assert (dec.forest.parent == -1).all()


def test_decomposition_empty_core_raises():
    g = ColouredGraph.from_edges(3, [(0, 1, 1), (1, 2, 2)], c=2)
    part = connected_components(g)
    with pytest.raises(EmptyCoreError):
        core_forest_decomposition(g, part.largest_vertices(),
                                  np.array([], dtype=np.int64))


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
        giant = part.largest_vertices()
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


def test_subtree_sizes_total():
    f = RootedForest(m=6, t=2, parent=np.array([-1, -1, 0, 0, 2, 1]))
    sizes = subtree_sizes(f)
    assert sizes.tolist() == [4, 2, 2, 1, 1, 1]


# ---------------------------------------------------------------------------
# rainbow check

def test_is_rainbow():
    g = ColouredGraph.from_edges(4, [(0, 1, 7), (1, 2, 7), (2, 3, 3)], c=7)
    assert is_rainbow(g, [0])
    assert not is_rainbow(g, [0, 1])
    assert is_rainbow(g, [0, 2])
    assert is_rainbow(g, [])


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

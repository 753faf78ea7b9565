import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowsim.graphs import ColouredGraph, is_rainbow
from rainbowsim.models import RngStream, colour_uniform, sample_gnp
from rainbowsim.oracles import (TooLargeError, borel_pmf, enumerate_forests,
                                exact_max_rainbow_tree,
                                exact_min_deleted_component_expectation,
                                forest_count)


# ---------------------------------------------------------------------------
# forest enumeration

def test_forest_counts_match_closed_form():
    assert enumerate_forests(3, 1).count == 3
    assert enumerate_forests(5, 2).count == 50
    assert enumerate_forests(4, 4).count == 1
    for m in range(1, 7):
        for t in range(1, m + 1):
            assert enumerate_forests(m, t).count == forest_count(m, t)


def test_forest_encodings_distinct():
    res = enumerate_forests(5, 2)
    assert len(set(res.encodings)) == res.count


def test_forest_enumeration_guard():
    with pytest.raises(TooLargeError):
        enumerate_forests(9, 1)


# ---------------------------------------------------------------------------
# exact maximum rainbow tree

def test_max_rainbow_tree_triangle_with_repeat():
    g = ColouredGraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (2, 0, 2)], c=2)
    best = exact_max_rainbow_tree(g)
    assert len(best) == 2
    assert is_rainbow(g, best)


def test_max_rainbow_tree_rainbow_k4():
    g = ColouredGraph.from_edges(4, [(0, 1, 1), (0, 2, 2), (0, 3, 3),
                                     (1, 2, 4), (1, 3, 5), (2, 3, 6)], c=6)
    best = exact_max_rainbow_tree(g)
    assert len(best) == 3  # spanning tree, order 4


def test_max_rainbow_tree_disjoint_shared_colour():
    g = ColouredGraph.from_edges(4, [(0, 1, 5), (2, 3, 5)], c=5)
    best = exact_max_rainbow_tree(g)
    assert len(best) == 1


def test_max_rainbow_tree_guard():
    g = sample_gnp(10, 1.0, RngStream(1))
    g = colour_uniform(g, 45, RngStream(2))
    with pytest.raises(TooLargeError):
        exact_max_rainbow_tree(g)


def _tree_order(g, edge_ids):
    if len(edge_ids) == 0:
        return 1
    return len(np.unique(np.concatenate([g.u[edge_ids], g.v[edge_ids]])))


def test_max_rainbow_tree_maximality_and_structure():
    # rainbow + acyclic + connected, and no single-edge augmentation exists
    for seed in range(25):
        gen = RngStream(600 + seed).generator()
        g = colour_uniform(sample_gnp(7, 0.45, gen), 6, gen)
        best = exact_max_rainbow_tree(g)
        assert is_rainbow(g, best)
        chosen = set(best.tolist())
        if not chosen:
            continue
        verts = set(np.concatenate([g.u[best], g.v[best]]).tolist())
        assert len(best) == len(verts) - 1
        used = set(g.colour[best].tolist())
        for e in range(g.m):
            if e in chosen:
                continue
            a, b, col = int(g.u[e]), int(g.v[e]), int(g.colour[e])
            # an augmenting edge would attach a new vertex with a new colour
            if col not in used and ((a in verts) != (b in verts)):
                raise AssertionError("single-edge augmentation exists")


# ---------------------------------------------------------------------------
# exact split expectation

def test_min_split_expectation_small():
    assert exact_min_deleted_component_expectation(2) == 1.0
    assert exact_min_deleted_component_expectation(3) == 1.0
    # 12 path trees contribute splits (1,2,1); 4 stars contribute (1,1,1)
    assert exact_min_deleted_component_expectation(4) == pytest.approx(60 / 48)


def test_min_split_guard():
    with pytest.raises(TooLargeError):
        exact_min_deleted_component_expectation(8)


# ---------------------------------------------------------------------------
# Borel point masses

def test_borel_values():
    assert borel_pmf(1) == pytest.approx(math.exp(-1), abs=1e-12)
    assert borel_pmf(2) == pytest.approx(math.exp(-2), abs=1e-12)


def test_borel_partial_sum_near_one():
    ks = np.arange(1, 10 ** 6 + 1, dtype=np.float64)
    from scipy.special import gammaln
    log_terms = -ks + (ks - 1) * np.log(ks) - gammaln(ks + 1)
    total = float(np.exp(log_terms).sum())
    assert abs(total - 1.0) <= 1e-2


def test_borel_decreasing_and_bounded():
    prev = borel_pmf(2)
    for k in range(3, 50):
        cur = borel_pmf(k)
        assert 0.0 < cur < prev < 1.0
        prev = cur


# ---------------------------------------------------------------------------
# the exact maximum rainbow tree against its earlier body

def reference_exact_max_rainbow_tree(g: ColouredGraph) -> np.ndarray:
    """The branch and bound as it was before it read the tree test off its
    touched vertices; kept verbatim as the reference for the current body."""
    m = g.m
    if m > 22:
        raise TooLargeError("exact_max_rainbow_tree is guarded at |E| <= 22")
    u = g.u.tolist()
    v = g.v.tolist()
    col = g.colour.tolist()

    best = {"size": 0, "edges": ()}

    def consider(chosen, comp_count):
        # chosen edges are acyclic and rainbow; a tree needs one component
        if chosen and comp_count == 1:
            size = len(chosen)
            key = tuple(chosen)
            if size > best["size"] or (size == best["size"] and key < best["edges"]):
                best["size"] = size
                best["edges"] = key

    # union-find over vertices with rollback
    par = list(range(g.n))

    def find(x):
        while par[x] != x:
            x = par[x]
        return x

    def rec(idx, chosen, used_cols, touched, comp_count):
        consider(chosen, comp_count)
        if idx == m:
            return
        if len(chosen) + (m - idx) < best["size"]:
            return
        # include edge idx when it keeps the set acyclic and rainbow
        a, b, cc = u[idx], v[idx], col[idx]
        if cc not in used_cols:
            ra, rb = find(a), find(b)
            if ra != rb:
                newly = [x for x in (a, b) if x not in touched]
                # components among touched vertices: +1 per new vertex, -1 per merge
                delta = len(newly) - 1
                par[ra] = rb
                used_cols.add(cc)
                for x in newly:
                    touched.add(x)
                chosen.append(idx)
                rec(idx + 1, chosen, used_cols, touched, comp_count + delta)
                chosen.pop()
                for x in newly:
                    touched.discard(x)
                used_cols.discard(cc)
                par[ra] = ra
        rec(idx + 1, chosen, used_cols, touched, comp_count)

    rec(0, [], set(), set(), 0)
    return np.array(best["edges"], dtype=np.int64)


@st.composite
def coloured_multigraphs(draw):
    """Coloured multigraphs of at most 14 edges; loops, parallel edges and
    repeated colours are all drawn."""
    n = draw(st.integers(1, 7))
    c = draw(st.integers(1, 6))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1),
                                    st.integers(1, c)), max_size=14))
    return ColouredGraph.from_edges(n, edges, c=c, multigraph=True)


@settings(max_examples=400, deadline=None)
@given(coloured_multigraphs())
def test_max_rainbow_tree_matches_reference(g):
    got = exact_max_rainbow_tree(g)
    want = reference_exact_max_rainbow_tree(g)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()

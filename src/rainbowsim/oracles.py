"""Small-instance exact computations used to validate the samplers and
finders before trusting them at scale: exhaustive forest enumeration,
brute-force maximum rainbow trees, exact split expectations and the Borel
point masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .graphs import ColouredGraph, RootedForest, forest_to_line, subtree_sizes


class TooLargeError(ValueError):
    """Instance exceeds the exhaustive-search guard."""


@dataclass(frozen=True)
class EnumerationResult:
    count: int
    encodings: list
    forests: list  # parent tuples, aligned with encodings


def forest_count(m: int, t: int) -> int:
    """Closed-form number of forests on [m] rooted at 0..t-1: t * m^(m-t-1)."""
    if not (1 <= t <= m):
        raise ValueError("need 1 <= t <= m")
    if m == t:
        return 1
    return t * m ** (m - t - 1)


def _orient(m, t, edge_set):
    """Parent array for an edge set known to be a valid rooted forest, else None."""
    adj = [[] for _ in range(m)]
    for a, b in edge_set:
        adj[a].append(b)
        adj[b].append(a)
    parent = [-1] * m
    seen = [False] * m
    for r in range(t):
        seen[r] = True
    stack = list(range(t))
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if not seen[y]:
                seen[y] = True
                parent[y] = x
                stack.append(y)
            elif parent[x] != y:
                return None  # edge between two reached vertices: cycle or 2 roots
    if not all(seen):
        return None
    return parent


def enumerate_forests(m: int, t: int) -> EnumerationResult:
    """All forests on [m] with root set 0..t-1, by filtered edge-subset search.

    Guarded at m <= 8; the count must equal forest_count(m, t).
    """
    if not (1 <= t <= m):
        raise ValueError("need 1 <= t <= m")
    if m > 8:
        raise TooLargeError("enumerate_forests is guarded at m <= 8")
    pairs = list(combinations(range(m), 2))
    k = m - t
    encodings = []
    forests = []
    for edges in combinations(pairs, k):
        parent = _orient(m, t, edges)
        if parent is None:
            continue
        f = RootedForest(m=m, t=t, parent=np.array(parent, dtype=np.int64))
        encodings.append(forest_to_line(f))
        forests.append(tuple(parent))
    if len(encodings) != forest_count(m, t):
        raise AssertionError("enumeration count disagrees with the closed form")
    return EnumerationResult(count=len(encodings), encodings=encodings,
                             forests=forests)


def exact_max_rainbow_tree(g: ColouredGraph) -> np.ndarray:
    """Maximum-cardinality edge subset that is a rainbow tree, by branch and bound.

    Ties are broken lexicographically on the sorted edge-id tuple. Guarded
    at 22 edges.
    """
    m = g.m
    if m > 22:
        raise TooLargeError("exact_max_rainbow_tree is guarded at |E| <= 22")
    u = g.u.tolist()
    v = g.v.tolist()
    col = g.colour.tolist()

    best = {"size": 0, "edges": ()}

    # union-find over vertices with rollback
    par = list(range(g.n))

    def find(x):
        while par[x] != x:
            x = par[x]
        return x

    def rec(idx, chosen, used_cols, touched):
        # chosen edges are acyclic and rainbow, a forest on the touched
        # vertices: a tree exactly when it has one more vertex than edges
        if len(touched) == len(chosen) + 1:
            key = tuple(chosen)
            if len(key) > best["size"] or (len(key) == best["size"]
                                           and key < best["edges"]):
                best["size"] = len(key)
                best["edges"] = key
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
                par[ra] = rb
                used_cols.add(cc)
                for x in newly:
                    touched.add(x)
                chosen.append(idx)
                rec(idx + 1, chosen, used_cols, touched)
                chosen.pop()
                for x in newly:
                    touched.discard(x)
                used_cols.discard(cc)
                par[ra] = ra
        rec(idx + 1, chosen, used_cols, touched)

    rec(0, [], set(), set())
    return np.array(best["edges"], dtype=np.int64)


def exact_min_deleted_component_expectation(m: int) -> float:
    """E[min component order] over uniform (tree on [m], edge) pairs, exactly."""
    if m < 2:
        raise ValueError("need m >= 2")
    if m > 7:
        raise TooLargeError("guarded at m <= 7")
    res = enumerate_forests(m, 1)
    total = 0
    for parent in res.forests:
        f = RootedForest(m=m, t=1, parent=np.array(parent, dtype=np.int64))
        below = subtree_sizes(f)[1:]
        total += int(np.minimum(below, m - below).sum())
    # every tree has m - 1 edges
    return float(Fraction(total, res.count * (m - 1)))


def borel_pmf(k: int) -> float:
    """P(X = k) for the Borel distribution with parameter 1: e^-k k^(k-1) / k!."""
    if k < 1:
        raise ValueError("need k >= 1")
    return math.exp(-k + (k - 1) * math.log(k) - math.lgamma(k + 1))

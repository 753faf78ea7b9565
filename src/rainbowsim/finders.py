"""Constructive rainbow-structure finders.

Three families: the subcritical duplicate-deletion tree finder, the
supercritical core/forest deletion pipeline, and the rainbow DFS/BFS
explorers with a sprinkling step that closes long rainbow paths into
cycles.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import minimum_spanning_tree

from .graphs import (ColouredGraph, EmptyCoreError, adjacency,
                     connected_components, core_forest_decomposition,
                     forest_depths, is_rainbow, subtree_sizes)
from .models import as_generator, colour_uniform, sample_gnp


class NotFoundError(RuntimeError):
    """No qualifying structure exists (sprinkle edge, cycle)."""


class InvalidDeltaError(ValueError):
    """delta outside the range the exploration process supports."""


class InvalidEpsilonError(ValueError):
    """epsilon outside (0, 1)."""


@dataclass(frozen=True)
class PipelineReport:
    """Per-stage accounting of the supercritical deletion pipeline.

    The deleted counts follow the per-rule bookkeeping (branch orders summed
    per rule over the untouched forest), so they may multiply-count vertices
    removed by several rules.
    """

    core_order: int
    core_size: int
    non_unique_core_edges: int
    hat_core_order: int
    colour_set_size: int
    deleted_shared_colour: int     # step 1: colours shared with the core part
    deleted_high_frequency: int    # step 2: colours appearing >= 3 times
    deleted_double_colour: int     # step 3: smaller branch of colour pairs
    deleted_unrooted_trees: int    # step 4: trees rooted outside the kept core
    final_tree_order: int

    def as_dict(self) -> dict:
        return {
            "core_order": self.core_order,
            "core_size": self.core_size,
            "non_unique_core_edges": self.non_unique_core_edges,
            "hat_core_order": self.hat_core_order,
            "colour_set_size": self.colour_set_size,
            "deleted_shared_colour": self.deleted_shared_colour,
            "deleted_high_frequency": self.deleted_high_frequency,
            "deleted_double_colour": self.deleted_double_colour,
            "deleted_unrooted_trees": self.deleted_unrooted_trees,
            "final_tree_order": self.final_tree_order,
        }


@dataclass
class ExplorationTrace:
    """Outcome of an RDFS/RBFS run.

    Exactly one of ``path`` (vertex sequence, with ``path_edges`` aligned to
    its steps) or ``tree_edges`` is set, depending on the explorer.
    """

    queries: int
    accepted: int
    stop_reason: str
    path: list | None = None
    path_edges: list | None = None
    tree_edges: list | None = None

    @property
    def order(self) -> int:
        if self.path is not None:
            return len(self.path)
        return len(self.tree_edges) + 1 if self.tree_edges is not None else 0

    @property
    def length(self) -> int:
        if self.path is not None:
            return max(len(self.path) - 1, 0)
        return len(self.tree_edges) if self.tree_edges is not None else 0


def _require_coloured(g: ColouredGraph) -> None:
    if g.c < 1:
        raise ValueError("finder requires a coloured graph (c >= 1)")


def _assert_rainbow_tree(g: ColouredGraph, edge_ids) -> None:
    """Hard structural check: edges form a rainbow, connected, acyclic set."""
    ids = np.asarray(edge_ids, dtype=np.int64)
    assert is_rainbow(g, ids), "finder output is not rainbow"
    if ids.size == 0:
        return
    verts, ends = np.unique(np.concatenate([g.u[ids], g.v[ids]]),
                            return_inverse=True)
    assert ids.size == verts.size - 1, "finder output is not a tree"
    k = ids.size
    tree = ColouredGraph._trusted(verts.size, 0, ends[:k], ends[k:],
                                  np.zeros(k, dtype=np.int64), True)
    assert connected_components(tree).sizes_desc.size == 1, \
        "finder output is not connected"


def _spanning_edges(g: ColouredGraph, edge_ids) -> np.ndarray:
    """Spanning forest of the given edges, in ascending id order.

    It is the forest a union-find scanning the ids in ascending order keeps:
    Kruskal with the distinct weights id + 1 (scipy's minimum spanning tree)
    picks exactly those edges. Loops never join two trees, and of parallel
    edges only the lowest id can, so both are dropped first.
    """
    ids = np.sort(np.asarray(edge_ids, dtype=np.int64))
    ids = ids[g.u[ids] != g.v[ids]]
    if ids.size == 0:
        return ids
    lo = np.minimum(g.u[ids], g.v[ids])
    hi = np.maximum(g.u[ids], g.v[ids])
    _, first = np.unique(lo * g.n + hi, return_index=True)
    ids, lo, hi = ids[first], lo[first], hi[first]
    verts, ends = np.unique(np.concatenate([lo, hi]), return_inverse=True)
    k = ids.size
    weights = coo_matrix(((ids + 1).astype(np.float64), (ends[:k], ends[k:])),
                         shape=(verts.size, verts.size))
    tree = minimum_spanning_tree(weights)
    return np.sort(tree.data.astype(np.int64) - 1)


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
# subcritical finder

def subcritical_rainbow_tree(g: ColouredGraph) -> np.ndarray:
    """Rainbow tree inside the largest component by duplicate-colour deletion.

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


# ---------------------------------------------------------------------------
# supercritical pipeline

def supercritical_rainbow_tree(g: ColouredGraph):
    """Core/forest deletion pipeline; returns (tree edge ids, PipelineReport).

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


# ---------------------------------------------------------------------------
# rainbow depth-first search

class _Fenwick:
    """Fenwick tree over 0..n-1 counting set members, with rank and select.

    Every id starts as a member.
    """

    __slots__ = ("n", "tree")

    def __init__(self, n):
        self.n = n
        # with every id a member, node i covers (i - lowbit(i), i]
        i = np.arange(n + 1, dtype=np.int64)
        self.tree = (i & -i).tolist()

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


def rdfs_longest_path(g: ColouredGraph, mode: str = "faithful",
                      delta: float = 0.1, query_budget: int | None = None,
                      target_order: int | None = None) -> ExplorationTrace:
    """Rainbow depth-first search for a long rainbow path.

    The stack spans a rainbow path at all times; pairs (top, unvisited) are
    queried in ascending vertex-id order and accepted when the edge exists
    and its colour is absent from the current path. ``faithful`` stops at
    the query budget ceil(delta^2 r n / 8) (r = min(c, n)) or once the path
    has floor((1-delta) r) edges; ``greedy`` runs to exhaustion and reports
    the longest path seen.
    """
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
    fen = _Fenwick(n)
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
    root = 0                        # roots only grow: each is the least unvisited id
    stop = None

    while stop is None:
        if not stack:
            if ucount == 0:
                stop = "exhausted"
                break
            root = state.find(0, root)
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
                             stop_reason=stop, path=path, path_edges=path_edges)
    assert trace.accepted <= trace.queries
    assert is_rainbow(g, path_edges), "RDFS path is not rainbow"
    return trace


# ---------------------------------------------------------------------------
# rainbow breadth-first search

def rbfs_forest(g: ColouredGraph, delta: float = 0.1, alpha: float | None = None,
                mode: str = "greedy", eps: float | None = None,
                rng=None) -> ExplorationTrace:
    """Rainbow breadth-first search building a forest with globally fresh colours.

    ``faithful`` keeps the undiscovered pool capped at (1-delta) n (the
    highest-indexed vertices are forbidden first), tops the per-edge
    rejection probability up to exactly delta/alpha, and stops once a tree
    reaches order delta n - eps^2 n or, with the queue empty, the forest
    reaches order eps^2 n. ``greedy`` drops all of that and explores
    everything. The trace carries the largest tree found.
    """
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
    # only the faithful pool cap needs rank and select over the undiscovered
    fen = _Fenwick(n) if faithful else None
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
    root = 0                        # roots only grow: each is the least undiscovered id
    started = False
    stop = None

    def close_tree():
        nonlocal best_edges, best_size
        if cur_size > best_size:
            best_size = cur_size
            best_edges = cur_edges    # each tree starts a fresh list

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
            root = und.find(1, root)
            und[root] = 0
            if faithful:
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
            if faithful:
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
                             stop_reason=stop, tree_edges=best_edges)
    assert trace.accepted <= trace.queries
    assert is_rainbow(g, best_edges), "RBFS tree is not rainbow"
    if best_edges:
        _assert_rainbow_tree(g, best_edges)
    return trace


# ---------------------------------------------------------------------------
# sprinkling

def _path_colours(g: ColouredGraph, path):
    """Colour of each consecutive path edge, in one pass over the edges.

    Step (a, b) takes the lowest-id edge stored as (a, b), else the
    lowest-id edge stored as (b, a): the one a lookup in the sorted
    adjacency of a finds first. Raises ValueError when a step is not an
    edge or the path repeats a vertex.
    """
    p = np.asarray(path, dtype=np.int64)
    if p.size < 2:
        return []
    at = np.arange(p.size)
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[p] = at
    if (pos[p] != at).any():
        raise ValueError("path repeats a vertex")
    pu, pv = pos[g.u], pos[g.v]
    picks = []
    for first, second in ((pu, pv), (pv, pu)):
        ids = np.flatnonzero((first >= 0) & (second == first + 1))
        pick = np.full(p.size - 1, g.m, dtype=np.int64)
        np.minimum.at(pick, first[ids], ids)
        picks.append(pick)
    eid = np.where(picks[0] < g.m, picks[0], picks[1])
    if (eid == g.m).any():
        raise ValueError("path step is not an edge of the graph")
    return g.colour[eid].tolist()


def sprinkle_close_cycle(g1: ColouredGraph, path, g2_edges, delta: float):
    """First fresh second-round edge joining the two endpoint windows of the path.

    Windows hold the first and last max(1, floor(delta r / 4)) path vertices
    (r = min(n, c)), clipped to half the path. Edges already present in g1
    are skipped, as are colours already used on the path. Returns the edge
    triple (u, v, colour); raises NotFoundError when nothing qualifies.
    """
    _require_coloured(g1)
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


def close_cycle_edges(g1: ColouredGraph, path, edge):
    """Cycle (as coloured edge triples) from the path segment plus the edge."""
    a, b, colour = edge
    path = list(path)
    i, j = path.index(a), path.index(b)
    if i > j:
        i, j = j, i
    seg = path[i:j + 1]
    seg_cols = _path_colours(g1, seg)
    cyc = [(seg[k], seg[k + 1], seg_cols[k]) for k in range(len(seg) - 1)]
    cyc.append((a, b, colour))
    return cyc


def check_cycle(cycle_edges) -> None:
    """Assert the edge triples form a closed rainbow cycle."""
    cols = [c for _, _, c in cycle_edges]
    assert len(set(cols)) == len(cols), "cycle is not rainbow"
    deg = {}
    for a, b, _ in cycle_edges:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    assert all(d == 2 for d in deg.values()), "cycle is not closed"
    assert len(deg) == len(cycle_edges), "cycle has wrong order"


def find_rainbow_cycle_weakly_super(n: int, c: int, epsilon: float, rng=None):
    """Rainbow cycle in the weakly supercritical regime, by RDFS plus sprinkling.

    A first round at p1 = (1+eps)/n is explored by faithful RDFS with
    rejection margin eps^2 n / (5 c) until the path reaches ceil(eps^2 n/5)
    edges; a second independent round at p2 with
    (1-p2)(1-p1) = 1-(1+2 eps)/n closes it. The sprinkle windows span half
    the path (the proof leaves the window constant free; this one is
    pilot-calibrated). Returns the cycle as coloured edge triples.
    """
    if not (0.0 < epsilon < 1.0):
        raise InvalidEpsilonError("need 0 < epsilon < 1")
    if (1.0 + 2.0 * epsilon) / n > 1.0:
        raise InvalidEpsilonError("p exceeds 1 at this (n, epsilon)")
    gen = as_generator(rng)
    p1 = (1.0 + epsilon) / n
    g1 = colour_uniform(sample_gnp(n, p1, gen), c, gen)
    delta = epsilon * epsilon * n / (5.0 * c)
    target = math.ceil(epsilon * epsilon * n / 5.0) + 1
    budget = math.ceil(epsilon * n * n / 2.0)
    trace = rdfs_longest_path(g1, mode="faithful", delta=delta,
                              query_budget=budget, target_order=target)
    path = trace.path
    if len(path) < 3:
        raise NotFoundError("first-round rainbow path too short")
    p = (1.0 + 2.0 * epsilon) / n
    p2 = 1.0 - (1.0 - p) / (1.0 - p1)
    g2 = colour_uniform(sample_gnp(n, p2, gen), c, gen)
    g2_edges = list(zip(g2.u.tolist(), g2.v.tolist(), g2.colour.tolist()))
    r = min(n, c)
    delta_close = 2.0 * len(path) / r
    edge = sprinkle_close_cycle(g1, path, g2_edges, delta_close)
    cycle = close_cycle_edges(g1, path, edge)
    check_cycle(cycle)
    return cycle

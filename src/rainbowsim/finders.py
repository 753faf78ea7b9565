"""Constructive rainbow-structure finders.

Three families: the subcritical duplicate-deletion tree finder, the
supercritical core/forest deletion pipeline, and the rainbow DFS/BFS
explorers with a sprinkling step that closes long rainbow paths into
cycles.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import minimum_spanning_tree

from .graphs import (ColouredGraph, EmptyCoreError, _climb, adjacency,
                     connected_components, core_forest_decomposition,
                     is_rainbow, subtree_sizes)
from .models import (_check_colours, _check_probability, as_generator,
                     colour_uniform, sample_gnp)


class NotFoundError(RuntimeError):
    """No qualifying structure exists (sprinkle edge, cycle)."""


class InvalidDeltaError(ValueError):
    """delta outside the range the exploration process supports."""


class InvalidEpsilonError(ValueError):
    """epsilon outside the range its finder supports."""


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
        return asdict(self)


@dataclass
class ExplorationTrace:
    """Outcome of an RDFS/RBFS run: the edge ids of a rainbow tree.

    RDFS's tree is a path: ``path`` holds its vertex sequence, with
    ``tree_edges`` aligned to its steps; RBFS leaves ``path`` unset.
    ``rooted`` is False when the explorer took no root, which happens only
    on a graph with no vertex; its tree then has order 0.
    """

    queries: int
    accepted: int
    stop_reason: str
    tree_edges: list
    path: list | None = None
    rooted: bool = True

    @property
    def order(self) -> int:
        return len(self.tree_edges) + 1 if self.rooted else 0

    @property
    def length(self) -> int:
        return len(self.tree_edges)


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
    assert connected_components(tree).sizes.max() == verts.size, \
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


def _rainbow_piece(g: ColouredGraph, verts, edge_ids):
    """The rainbow step both tree finders share.

    Drops the edges whose colour repeats among ``edge_ids``, then takes the
    largest component of what is left on the vertex set ``verts`` (sorted;
    every edge has both ends in it); ties go to the piece holding the
    smallest vertex. Runs on local ids 0..len(verts)-1. Returns the piece
    as a mask over ``verts``, its edge ids, its spanning edges and the
    number of edges dropped for a repeated colour.
    """
    cols = g.colour[edge_ids]
    keep = edge_ids[np.bincount(cols)[cols] == 1]
    k = keep.size
    ends = np.searchsorted(verts, np.concatenate([g.u[keep], g.v[keep]]))
    sub = ColouredGraph._trusted(len(verts), 0, ends[:k], ends[k:],
                                 np.zeros(k, dtype=np.int64), True)
    part = connected_components(sub)
    in_piece = part.labels == part.largest_id()
    piece_edges = keep[in_piece[ends[:k]]]
    return (in_piece, piece_edges, _spanning_edges(g, piece_edges),
            len(edge_ids) - k)


# ---------------------------------------------------------------------------
# subcritical finder

def subcritical_rainbow_tree(g: ColouredGraph) -> np.ndarray:
    """Rainbow tree inside the largest component by duplicate-colour deletion.

    All edges whose colour repeats within the largest component are dropped;
    the spanning tree of the largest surviving piece is returned (edge ids).
    """
    _require_coloured(g)
    part = connected_components(g)
    in_t = part.labels == part.largest_id()
    # the largest component is whole: an edge with one end in it lies in it
    _, _, out, _ = _rainbow_piece(g, np.flatnonzero(in_t),
                                  np.flatnonzero(in_t[g.u]))
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
    return _supercritical_tree(g, connected_components(g))


def _supercritical_tree(g: ColouredGraph, part):
    """supercritical_rainbow_tree given ``part = connected_components(g)``,
    for a caller that holds the partition already."""
    _require_coloured(g)
    if g.n == 0:
        raise EmptyCoreError("graph has no vertices")
    giant_id = part.largest_id()
    giant = np.flatnonzero(part.labels == giant_id)

    # unicyclic components: edge count equals vertex count
    ecount = np.bincount(part.labels[g.u], minlength=g.n + 1)
    uni = (part.sizes > 0) & (ecount == part.sizes)
    uni[giant_id] = False
    unicyclic = np.flatnonzero(uni[part.labels])

    decomp = core_forest_decomposition(g, giant, unicyclic)
    # forest roots are the core vertices in the same order, so the piece's
    # mask marks the kept roots
    root_in_hat, hat_edge_ids, hat_tree, repeated = _rainbow_piece(
        g, decomp.core_vertices, decomp.core_edges)
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

    # a vertex goes with any cut on its root path, and a whole tree goes
    # when its root is off the kept core; a root's subtree is its tree
    cut = np.zeros(m, dtype=bool)
    cut[e1] = True
    cut[e2] = True
    cut[e3] = True
    root, cuts_above = _climb(f, cut)
    x4 = int(b[:t][~root_in_hat].sum())

    keep_w = w_all[(cuts_above[t:] == 0) & root_in_hat[root[t:]]]
    kept_forest_edges = f_edge_ids[keep_w - t]

    out = np.concatenate([hat_tree, np.sort(kept_forest_edges)])

    hat_order = int(root_in_hat.sum())
    kept_vertex_count = hat_order + int(keep_w.size)
    report = PipelineReport(
        core_order=int(decomp.core_vertices.size),
        core_size=int(decomp.core_edges.size),
        non_unique_core_edges=repeated,
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
# the explorers' view of the CSR

def _csr_view(g: ColouredGraph):
    """(indptr, nbr, hcol, eid): ``adjacency(g)`` plus hcol, the colour of
    each half-edge. The first three are memoryviews read in place, so an
    int object is made only when an item is read, not one per vertex and
    half-edge up front as a ``.tolist()`` copy makes; eid maps half-edge
    positions back to edge ids."""
    indptr, nbr, eid = adjacency(g)
    return memoryview(indptr), memoryview(nbr), memoryview(g.colour[eid]), eid


# ---------------------------------------------------------------------------
# rainbow depth-first search

class _Fenwick:
    """Fenwick tree over 0..n-1 counting set members, with add and rank.

    Every id starts as a member. RDFS counts its queries with it.
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
        """Count of members with id <= i, for -1 <= i < n."""
        i += 1
        s = 0
        while i > 0:
            s += self.tree[i]
            i -= i & -i
        return s


def rdfs_longest_path(g: ColouredGraph, mode: str = "faithful",
                      delta: float = 0.1, query_budget: int | None = None,
                      target_order: int | None = None) -> ExplorationTrace:
    """Rainbow depth-first search for a long rainbow path.

    The stack spans a rainbow path at all times; pairs (top, unvisited) are
    queried in ascending vertex-id order and accepted when the edge exists
    and its colour is absent from the current path. ``faithful`` stops at
    the query budget ceil(delta^2 r n / 8) (r = min(c, n)) or once the path
    has floor((1-delta) r) edges; ``greedy`` runs to exhaustion and reports
    the longest path seen. A negative ``query_budget`` raises ValueError.
    """
    _require_coloured(g)
    if mode not in ("faithful", "greedy"):
        raise ValueError("mode must be 'faithful' or 'greedy'")
    if query_budget is not None and query_budget < 0:
        raise ValueError("query budget must be non-negative")
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

    iptr, nbr, hcol, eid = _csr_view(g)

    state = bytearray(n)            # 1 once visited
    fen = _Fenwick(n)
    ucount = n
    stack: list[int] = []
    par_in = [-1] * n
    pos_in = [-1] * n               # half-edge that discovered each vertex
    aptr = iptr[:-1].tolist()       # next half-edge to try, per vertex
    cursor = [-1] * n
    lset: set[int] = set()
    queries = 0
    accepted = 0
    best_len = 0
    best_top = -1
    root = 0                        # roots only grow: each is the least unvisited id

    while True:
        if stack:
            v = stack[-1]
            p = aptr[v]
            end = iptr[v + 1]
            while p < end:
                u = nbr[p]
                if state[u] == 0 and hcol[p] not in lset:
                    break
                p += 1
            # pairs (v, w) queried now: the unvisited w above cursor[v], up to
            # u, or all of them when v accepts nothing more
            q = (fen.rank(u) if p < end else ucount) - fen.rank(cursor[v])
            if faithful and queries + q > budget:
                queries = budget
                stop = "budget"
                break
            queries += q
            if p == end:
                stack.pop()
                if par_in[v] >= 0:
                    lset.discard(hcol[pos_in[v]])
                continue
            accepted += 1
            cursor[v] = u
            aptr[v] = p + 1
            par_in[u] = v
            pos_in[u] = p
            lset.add(hcol[p])
        elif ucount:
            u = root = state.find(0, root)
        else:
            stop = "exhausted"
            break
        # u joins the path, as a new root or as the accepted neighbour of v
        state[u] = 1
        fen.add(u, -1)
        ucount -= 1
        stack.append(u)
        if len(stack) > best_len:
            best_len, best_top = len(stack), u
        if faithful and len(stack) >= target:
            stop = "target"
            break

    # at a target stop the stack is the longest path, so this walk gives it
    path = []
    x = best_top
    while x >= 0:
        path.append(x)
        x = par_in[x]
    path.reverse()
    path_edges = eid[[pos_in[x] for x in path[1:]]].tolist()
    trace = ExplorationTrace(queries=queries, accepted=accepted,
                             stop_reason=stop, tree_edges=path_edges,
                             path=path, rooted=bool(path))
    assert trace.accepted <= trace.queries
    _assert_rainbow_tree(g, path_edges)
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
    everything, and takes isolated roots in bulk. The trace carries the
    largest tree found. Faithful mode refuses a negative or non-finite
    ``eps`` (InvalidEpsilonError). The table of forest colours costs c + 1
    bytes.
    """
    _require_coloured(g)
    if mode not in ("faithful", "greedy"):
        raise ValueError("mode must be 'faithful' or 'greedy'")
    n = g.n
    if alpha is None:
        alpha = g.c / n if n else 1.0
    faithful = mode == "faithful"
    if faithful:
        # min(1, nan) is 1, so the delta test alone lets a NaN alpha through
        if not math.isfinite(alpha):
            raise InvalidDeltaError(f"need a finite alpha, got {alpha}")
        if not (0.0 < delta < min(1.0, alpha)):
            raise InvalidDeltaError("need 0 < delta < min(1, alpha)")
        if eps is None:
            kappa = alpha / (alpha + 1.0)
            disc = kappa * kappa - 4.0 * delta
            if disc < 0:
                raise InvalidDeltaError(
                    "delta too large to induce a growth margin: need delta <= "
                    f"kappa^2/4 = {kappa * kappa / 4.0} at alpha = {alpha}")
            eps = (kappa - math.sqrt(disc)) / 2.0
        elif not math.isfinite(eps):
            raise InvalidEpsilonError(f"need a finite eps, got {eps}")
        elif eps < 0:
            # only eps^2 is read, so a negative eps would run as |eps|
            raise InvalidEpsilonError(f"need eps >= 0, got {eps}")
        pool_cap = int((1.0 - delta) * n)
        if pool_cap < 1:
            raise InvalidDeltaError("pool cap below one vertex")
        s1 = delta * n - eps * eps * n
        s2 = eps * eps * n
        dr = delta / alpha
        gen = as_generator(rng)
    else:
        pool_cap = n
        s1 = s2 = dr = None
        gen = None

    # trees hold half-edge positions until the end
    iptr, nbr, hcol, eid = _csr_view(g)

    if faithful:
        und = bytearray([1]) * n
    else:
        # an isolated vertex (empty CSR row) is a tree of its own whose only
        # effect is its query count; it never enters und, and the isolated
        # ids below each later root are taken in one step
        indptr = np.asarray(iptr)
        live = indptr[1:] != indptr[:-1]
        und = bytearray(live)
        isolated = bytes(~live)
    ucount = n                      # undiscovered ids, untaken isolated ones too
    # the faithful pool holds the pool_cap least undiscovered ids, the
    # largest of them cap; a discovery at or below cap moves it up to the
    # next undiscovered id (-1, never read again, once fewer are left)
    cap = pool_cap - 1
    forest_cols = bytearray(g.c + 1)   # colours run 1..c
    accepted = 0                    # each accept takes a fresh colour
    queue: deque[int] = deque()
    queries = 0
    # a tree's order is len(cur_pos) + 1, the forest's is n - ucount
    cur_pos: list[int] = []
    best_pos: list[int] = []
    root = 0                        # roots only grow: each is the least undiscovered id
    stop = None

    while stop is None:
        if queue:
            v = queue.popleft()
        else:
            if ucount < n:          # a root has been taken: close its tree
                if len(cur_pos) > len(best_pos):
                    best_pos = cur_pos    # each tree starts a fresh list
                if faithful and n - ucount >= s2:
                    stop = "quota"
                    break
            if ucount == 0:
                stop = "exhausted"
                break
            v = und.find(1, root)
            if not faithful:
                # the k isolated roots below v come first, each querying the
                # ucount left once it is taken; past the last live root
                # (find gives -1) only isolated ids are left
                k = isolated.count(1, root, v if v >= 0 else n)
                queries += k * ucount - k * (k + 1) // 2
                ucount -= k
                if v < 0:
                    stop = "exhausted"
                    break
            root = v
            und[v] = 0
            if faithful and v <= cap:
                cap = und.find(1, cap + 1)
            ucount -= 1
            cur_pos = []
        if faithful and ucount > pool_cap:
            thr = cap               # one threshold for the whole scan of v
            queries += pool_cap
        else:
            thr = n
            queries += ucount
        for p in range(iptr[v], iptr[v + 1]):
            u = nbr[p]
            if u > thr or not und[u]:
                continue
            colour = hcol[p]
            if forest_cols[colour]:
                continue
            if faithful:
                rej = accepted / g.c
                if rej < dr and gen.random() < (dr - rej) / (1.0 - rej):
                    continue
            und[u] = 0
            if faithful and u <= cap:
                cap = und.find(1, cap + 1)
            ucount -= 1
            queue.append(u)
            cur_pos.append(p)
            forest_cols[colour] = 1
            accepted += 1
            if faithful and len(cur_pos) + 1 >= s1:
                stop = "target"
                break

    if len(cur_pos) > len(best_pos):
        best_pos = cur_pos
    tree_edges = eid[best_pos].tolist()
    trace = ExplorationTrace(queries=queries, accepted=accepted,
                             stop_reason=stop, tree_edges=tree_edges,
                             rooted=ucount < n)
    assert trace.accepted <= trace.queries
    _assert_rainbow_tree(g, tree_edges)
    return trace


# ---------------------------------------------------------------------------
# sprinkling

def _path_colours(g: ColouredGraph, path):
    """Colour of each consecutive path edge, in one pass over the edges.

    g must be simple, so a step is at most one edge, and every step is an
    edge exactly when the edges joining consecutive path vertices are as
    many as the steps. Raises ValueError when a path vertex is outside
    [0, n), a step is not an edge or the path repeats a vertex.
    """
    p = np.asarray(path, dtype=np.int64)
    if ((p < 0) | (p >= g.n)).any():
        raise ValueError("path vertex outside [0, n)")
    if p.size < 2:
        return []
    at = np.arange(p.size)
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[p] = at
    if (pos[p] != at).any():
        raise ValueError("path repeats a vertex")
    pu, pv = pos[g.u], pos[g.v]
    ids = np.flatnonzero((pu >= 0) & (pv >= 0) & (np.abs(pu - pv) == 1))
    if ids.size != p.size - 1:
        raise ValueError("path step is not an edge of the graph")
    eid = np.empty_like(ids)
    eid[np.minimum(pu[ids], pv[ids])] = ids
    return g.colour[eid].tolist()


def _require_simple(g1: ColouredGraph) -> None:
    # a path step names two vertices, not an edge: on a multigraph its
    # colour would depend on which parallel edge the search walked
    _require_coloured(g1)
    if g1.multigraph:
        raise ValueError("sprinkling needs a simple first-round graph")


def sprinkle_close_cycle(g1: ColouredGraph, path, g2_edges, delta: float):
    """First fresh second-round edge joining the two endpoint windows of the path.

    Windows hold the first and last max(1, floor(delta r / 4)) path vertices
    (r = min(n, c)), clipped to half the path. Edges already present in g1
    are skipped, as are colours already used on the path. ``g2_edges`` holds
    (u, v, colour) triples, as a sequence or a (k, 3) array. Returns the
    first qualifying triple as Python ints; raises NotFoundError when
    nothing qualifies.
    g1 must be simple (ValueError otherwise): the path's colours are read
    from its steps.
    """
    _require_simple(g1)
    path = np.asarray(path, dtype=np.int64)
    if path.size < 2:
        raise NotFoundError("path too short to close")
    r = min(g1.n, g1.c)
    w = max(1, int(delta * r / 4.0))
    w = min(w, path.size // 2)
    first, last = path[:w], path[path.size - w:]
    used = np.array(_path_colours(g1, path), dtype=np.int64)

    a, b, colour = np.asarray(g2_edges, dtype=np.int64).reshape(-1, 3).T
    # +1 in the first window, -1 in the last, 0 in neither: the windows
    # are disjoint halves of a path
    side_a = np.isin(a, first).astype(np.int8) - np.isin(a, last)
    side_b = np.isin(b, first).astype(np.int8) - np.isin(b, last)
    ok = np.flatnonzero((side_a * side_b == -1) & ~np.isin(colour, used))
    # a g1 edge rules a candidate out only by joining its two ends, so only
    # g1 edges between candidate ends can
    ends = np.zeros(g1.n, dtype=bool)
    ends[a[ok]] = True
    ends[b[ok]] = True
    between = ends[g1.u] & ends[g1.v]
    u, v = g1.u[between], g1.v[between]
    in_g1 = np.minimum(u, v) * g1.n + np.maximum(u, v)
    # both ends of a candidate are path vertices, so its key is in range
    key = np.minimum(a[ok], b[ok]) * g1.n + np.maximum(a[ok], b[ok])
    ok = ok[~np.isin(key, in_g1)]
    if ok.size == 0:
        raise NotFoundError("no fresh edge joins the endpoint windows")
    return tuple(int(x) for x in (a[ok[0]], b[ok[0]], colour[ok[0]]))


def close_cycle_edges(g1: ColouredGraph, path, edge):
    """Cycle (as coloured edge triples) from the path segment plus the edge.

    g1 must be simple, as for sprinkle_close_cycle.
    """
    _require_simple(g1)
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
    """Assert the edge triples form one closed rainbow cycle."""
    assert cycle_edges, "cycle is empty"
    cols = [c for _, _, c in cycle_edges]
    assert len(set(cols)) == len(cols), "cycle is not rainbow"
    nbrs = {}
    for a, b, _ in cycle_edges:
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    assert all(len(x) == 2 for x in nbrs.values()), "cycle is not closed"
    # every vertex has degree 2 (so there are as many vertices as edges), and
    # the walk from the first vertex comes back to it; it takes every edge
    # only if the edges form one cycle
    prev, x = cycle_edges[0][:2]
    start, steps = prev, 1
    while x != start:
        a, b = nbrs[x]
        prev, x = x, b if a == prev else a
        steps += 1
    assert steps == len(cycle_edges), "cycle is not connected"


def _sprinkle_round(g1: ColouredGraph, path, p1: float, p: float,
                    delta: float, gen):
    """Close ``path`` (a rainbow path of g1 ~ G(n, p1)) by a second round.

    Samples and colours g2 ~ G(n, p2) with (1-p1)(1-p2) = 1-p, so that g1
    and g2 together are G(n, p); then sprinkles with window slack
    ``delta``, closes and checks the cycle. Returns the cycle as coloured
    edge triples; raises NotFoundError when no g2 edge closes it.
    """
    p2 = 1.0 - (1.0 - p) / (1.0 - p1)
    g2 = colour_uniform(sample_gnp(g1.n, p2, gen), g1.c, gen)
    g2_edges = np.column_stack([g2.u, g2.v, g2.colour])
    edge = sprinkle_close_cycle(g1, path, g2_edges, delta)
    cycle = close_cycle_edges(g1, path, edge)
    check_cycle(cycle)
    return cycle


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
    if n < 1:
        raise InvalidEpsilonError("need n >= 1 to set p = (1+eps)/n")
    _check_probability((1.0 + 2.0 * epsilon) / n)
    _check_colours(c)
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
    delta_close = 2.0 * len(path) / min(n, c)
    return _sprinkle_round(g1, path, p1, (1.0 + 2.0 * epsilon) / n,
                           delta_close, gen)


"""Coloured-graph structures and the deterministic structural algorithms
built on them: connected components, 2-core peeling, core/forest
decomposition, bridge numbers and rainbow checks.

Vertices are dense 0-based ids. Colours are 1-based integers in [1, c];
colour 0 marks an uncoloured edge and is only legal when c == 0.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.csgraph import connected_components as _scipy_cc


class EmptyCoreError(RuntimeError):
    """The 2-core needed by an operation is empty."""


class EdgeNotInForestError(ValueError):
    """The queried edge is not an oriented parent edge of the forest."""


def _as_index_array(a) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a, dtype=np.int64))


def _check_arrays(n, c, u, v, colour) -> None:
    """Raise ValueError unless the arrays describe edges of a graph on n
    vertices with colours valid for c."""
    if not (len(u) == len(v) == len(colour)):
        raise ValueError("edge arrays must have equal length")
    if n < 0 or c < 0:
        raise ValueError("n and c must be non-negative")
    if len(u):
        if u.min() < 0 or v.min() < 0 or max(u.max(), v.max()) >= n:
            raise ValueError("edge endpoint out of range")
        if c == 0:
            if colour.any():
                raise ValueError("uncoloured graph (c == 0) requires all colours 0")
        elif colour.min() < 1 or colour.max() > c:
            raise ValueError("edge colour out of range [1, c]")


def _multi_edges(n, u, v):
    """'loops' or 'parallel edges' when the edges are not simple, else None."""
    if (u == v).any():
        return "loops"
    key = np.minimum(u, v) * n + np.maximum(u, v)
    key.sort()
    if (key[1:] == key[:-1]).any():
        return "parallel edges"
    return None


@dataclass(frozen=True)
class ColouredGraph:
    """Undirected graph with one colour per edge, stored as parallel arrays.

    Loops and parallel edges are rejected unless ``multigraph`` is set;
    only the configuration model produces multigraphs here.

    The constructor validates every field: it is the trust boundary for
    arrays from outside the package. The samplers and the subgraph
    builders use ``_trusted`` instead, because their output is valid by
    construction.
    """

    n: int
    c: int
    u: np.ndarray
    v: np.ndarray
    colour: np.ndarray
    multigraph: bool = False

    def __post_init__(self):
        object.__setattr__(self, "u", _as_index_array(self.u))
        object.__setattr__(self, "v", _as_index_array(self.v))
        object.__setattr__(self, "colour", _as_index_array(self.colour))
        _check_arrays(self.n, self.c, self.u, self.v, self.colour)
        if not self.multigraph:
            kind = _multi_edges(self.n, self.u, self.v)
            if kind is not None:
                raise ValueError(f"{kind} require multigraph=True")

    @classmethod
    def _trusted(cls, n, c, u, v, colour, multigraph=False) -> "ColouredGraph":
        """Build without validation.

        Only for graphs valid by construction: sampler output, or a subset
        of the edges of a validated graph.
        """
        g = object.__new__(cls)
        for name, value in (("n", n), ("c", c), ("u", _as_index_array(u)),
                            ("v", _as_index_array(v)),
                            ("colour", _as_index_array(colour)),
                            ("multigraph", multigraph)):
            object.__setattr__(g, name, value)
        return g

    @property
    def m(self) -> int:
        return len(self.u)

    @classmethod
    def from_edges(cls, n, edges, c=0, multigraph=False) -> "ColouredGraph":
        """Build from an iterable of (u, v, colour) triples."""
        edges = list(edges)
        if edges:
            u, v, col = (np.array(x, dtype=np.int64) for x in zip(*edges))
        else:
            u = v = col = np.zeros(0, dtype=np.int64)
        return cls(n=n, c=c, u=u, v=v, colour=col, multigraph=multigraph)

    def edge_list(self):
        return list(zip(self.u.tolist(), self.v.tolist(), self.colour.tolist()))

    def degrees(self) -> np.ndarray:
        """Vertex degrees; loops count twice."""
        return (np.bincount(self.u, minlength=self.n)
                + np.bincount(self.v, minlength=self.n))


def adjacency(g: ColouredGraph):
    """CSR-style adjacency with neighbours sorted ascending per vertex.

    Returns (indptr, nbr, eid): the neighbours of x are nbr[indptr[x]:indptr[x+1]]
    and eid gives the index of the corresponding edge in g.
    """
    m = g.m
    ends = np.concatenate([g.u, g.v])
    other = np.concatenate([g.v, g.u])
    eid = np.concatenate([np.arange(m, dtype=np.int64)] * 2) if m else np.zeros(0, dtype=np.int64)
    # a stable sort on one key orders by (end, neighbour, then input
    # position), the order a lexsort on (other, ends) gives
    order = np.argsort(ends * g.n + other, kind="stable")
    nbr = other[order]
    eid = eid[order]
    counts = np.bincount(ends, minlength=g.n)
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, nbr, eid


@dataclass(frozen=True)
class VertexPartition:
    """Partition of the vertex set into connected components.

    Component ids are canonical: each component is labelled by its smallest
    contained vertex. ``sizes_desc`` lists component orders in descending
    order.
    """

    n: int
    labels: np.ndarray
    sizes_desc: np.ndarray

    def largest_id(self) -> int:
        """Id of the largest component; ties go to the smallest id."""
        # labels are vertex ids, and argmax takes the first maximum
        return int(np.bincount(self.labels).argmax())

    def largest_vertices(self) -> np.ndarray:
        return np.flatnonzero(self.labels == self.largest_id())


def connected_components(g: ColouredGraph) -> VertexPartition:
    """Connected components with deterministic smallest-vertex labels."""
    if g.m == 0:
        labels = np.arange(g.n, dtype=np.int64)
        return VertexPartition(n=g.n, labels=labels,
                               sizes_desc=np.ones(g.n, dtype=np.int64))
    data = np.ones(g.m, dtype=np.int8)
    mat = coo_matrix((data, (g.u, g.v)), shape=(g.n, g.n))
    ncomp, raw = _scipy_cc(mat, directed=False)
    rep = np.full(ncomp, g.n, dtype=np.int64)
    np.minimum.at(rep, raw, np.arange(g.n, dtype=np.int64))
    labels = rep[raw]
    sizes = np.bincount(raw, minlength=ncomp)
    sizes = np.sort(sizes)[::-1].astype(np.int64)
    return VertexPartition(n=g.n, labels=labels, sizes_desc=sizes)


def _peel_masks(g: ColouredGraph):
    """Iteratively strip degree<=1 vertices; returns (vertex_mask, edge_mask).

    Each round looks only at the live neighbours of the vertices it just
    removed, so the whole peel is O(m log m) rather than O(n) per round.
    """
    n = g.n
    if g.m == 0:
        return np.zeros(n, dtype=bool), np.zeros(0, dtype=bool)
    deg = g.degrees()
    alive = np.ones(n, dtype=bool)
    indptr, nbr, _ = adjacency(g)
    removed = np.flatnonzero(deg <= 1)
    while removed.size:
        alive[removed] = False
        # gather all neighbours of the removed set and decrement
        starts = indptr[removed]
        lens = indptr[removed + 1] - starts
        offsets = np.cumsum(lens) - lens
        flat = np.repeat(starts - offsets, lens) + np.arange(lens.sum())
        touched, hits = np.unique(nbr[flat], return_counts=True)
        deg[touched] -= hits
        # only a vertex decremented just now can have dropped to degree <= 1
        removed = touched[alive[touched] & (deg[touched] <= 1)]
    edge_mask = alive[g.u] & alive[g.v]
    return alive, edge_mask


def two_core(g: ColouredGraph) -> ColouredGraph:
    """Maximal subgraph of minimum degree >= 2 (empty when none exists).

    The vertex set is kept; only the surviving edges are returned.
    """
    _, emask = _peel_masks(g)
    return ColouredGraph._trusted(g.n, g.c, g.u[emask], g.v[emask],
                                  g.colour[emask], g.multigraph)


@dataclass(frozen=True)
class RootedForest:
    """Forest on m labelled vertices whose roots are exactly vertices 0..t-1.

    ``parent[w]`` is the parent of w, oriented towards the root; roots carry
    parent -1.
    """

    m: int
    t: int
    parent: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "parent", _as_index_array(self.parent))

    def check(self) -> None:
        """Validate all structural invariants; raises ValueError if broken."""
        if not (1 <= self.t <= self.m):
            raise ValueError("need 1 <= t <= m")
        if len(self.parent) != self.m:
            raise ValueError("parent array has wrong length")
        if not (self.parent[: self.t] == -1).all():
            raise ValueError("vertices 0..t-1 must be roots")
        if self.t < self.m:
            rest = self.parent[self.t:]
            if rest.min() < 0 or rest.max() >= self.m:
                raise ValueError("non-root parent out of range")
        # acyclicity: every vertex must reach a root
        depth = forest_depths(self)
        if (depth < 0).any():
            raise ValueError("forest contains a cycle")


def forest_depths(f: RootedForest) -> np.ndarray:
    """Distance to the root per vertex.

    -1 flags a vertex whose parent chain never reaches a root: a vertex on
    a cycle, on a tail that runs into one, or on a chain that ends in a
    parent outside [0, m). Roots are vertices 0..t-1.
    """
    m, t = f.m, f.t
    idx = np.arange(m, dtype=np.int64)
    # pointer jumping: anc[x] is x's 2^k-th ancestor (or its root), dist[x]
    # the number of edges from x to anc[x]; a non-root with an out-of-range
    # parent points at itself, so it never reaches a root
    par = f.parent
    anc = np.where((idx < t) | (par < 0) | (par >= m), idx, par)
    dist = (idx >= t).astype(np.int64)
    for _ in range(int(m).bit_length()):
        if (anc < t).all():
            break
        dist += dist[anc]
        anc = anc[anc]
    return np.where(anc < t, dist, -1)


def subtree_sizes(f: RootedForest) -> np.ndarray:
    """Order of the subtree hanging below every vertex (vertex included)."""
    depth = forest_depths(f)
    if (depth < 0).any():
        raise ValueError("not a forest")
    m = f.m
    sizes = np.ones(m, dtype=np.int64)
    if m == 0:
        return sizes
    order = np.argsort(depth, kind="stable")
    # accumulate level by level, deepest first; same-depth vertices never
    # parent each other so np.add.at per level is safe
    maxd = int(depth.max())
    bounds = np.searchsorted(depth[order], np.arange(maxd + 2))
    for d in range(maxd, 0, -1):
        vs = order[bounds[d]:bounds[d + 1]]
        np.add.at(sizes, f.parent[vs], sizes[vs])
    return sizes


def children_index(f: RootedForest):
    """(indptr, order): children of x are order[indptr[x+1]:indptr[x+2]].

    Group 0 of ``order`` holds the roots.
    """
    key = f.parent + 1
    order = np.argsort(key, kind="stable")
    counts = np.bincount(key, minlength=f.m + 1)
    indptr = np.zeros(f.m + 2, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, order


def subtree_size_below(f: RootedForest, w: int, child_idx=None) -> int:
    """Order of the subtree rooted at w, by explicit descent."""
    if child_idx is None:
        child_idx = children_index(f)
    indptr, order = child_idx
    count = 0
    stack = [w]
    while stack:
        x = stack.pop()
        count += 1
        kids = order[indptr[x + 1]:indptr[x + 2]]
        stack.extend(kids.tolist())
    return count


def bridge_number(f: RootedForest, e) -> int:
    """Number of vertices below the forest edge e = (v, w), v nearer the root."""
    v, w = int(e[0]), int(e[1])
    if not (0 <= w < f.m) or w < f.t or f.parent[w] != v:
        raise EdgeNotInForestError(f"({v}, {w}) is not an oriented edge of the forest")
    return subtree_size_below(f, w)


def is_rainbow(g: ColouredGraph, edge_ids) -> bool:
    """True iff the given edges carry pairwise distinct colours."""
    ids = _as_index_array(edge_ids)
    if ids.size == 0:
        return True
    cols = g.colour[ids]
    return len(np.unique(cols)) == len(cols)


@dataclass(frozen=True)
class CoreDecomposition:
    """2-core of the giant+unicyclic region plus the forest hanging off it.

    The forest is relabelled: core vertices become local ids 0..t-1 (sorted
    by global id), remaining vertices follow in global-id order.
    ``forest_labels`` maps local ids back to global vertex ids and
    ``forest_edge_ids[w]`` is the original edge index of the parent edge of
    local non-root w (-1 for roots).
    """

    core_vertices: np.ndarray
    core_edges: np.ndarray
    forest: RootedForest
    forest_labels: np.ndarray
    forest_edge_ids: np.ndarray
    unicyclic_vertices: np.ndarray


def core_forest_decomposition(g: ColouredGraph, giant, unicyclic) -> CoreDecomposition:
    """Split the induced subgraph on giant+unicyclic into 2-core and rooted forest.

    ``giant`` and ``unicyclic`` must each be a union of whole components of
    g. Then no edge of g leaves S = giant + unicyclic, so the 2-core of the
    subgraph induced on S is g's 2-core restricted to S: the peel and the
    search below run on that subgraph alone, in ids 0..|S|-1 that keep the
    global order.

    Raises EmptyCoreError when the restricted 2-core has no vertices, or
    when none of them is in the giant (a giant tree cannot hang off the
    cores of the unicyclic components).
    Forest orientation: parent pointers point towards the core, so trees
    are rooted at core vertices.
    """
    giant = _as_index_array(giant)
    unicyclic = _as_index_array(unicyclic)
    in_s = np.zeros(g.n, dtype=bool)
    in_s[giant] = True
    in_s[unicyclic] = True
    s_verts = np.flatnonzero(in_s)
    s_edges = np.flatnonzero(in_s[g.u] & in_s[g.v])
    m = s_verts.size
    local = np.full(g.n, -1, dtype=np.int64)
    local[s_verts] = np.arange(m, dtype=np.int64)
    su, sv = local[g.u[s_edges]], local[g.v[s_edges]]
    region = ColouredGraph._trusted(m, g.c, su, sv, g.colour[s_edges],
                                    g.multigraph)

    vmask, emask = _peel_masks(region)
    core = np.flatnonzero(vmask)
    t = core.size
    if t == 0:
        raise EmptyCoreError("2-core of the giant+unicyclic region is empty")
    if not vmask[local[giant]].any():
        raise EmptyCoreError("2-core of the giant is empty")
    fu, fv = su[~emask], sv[~emask]

    # BFS over forest edges from a virtual source m adjacent to every core
    # vertex. Each forest tree meets the core in exactly one vertex (a forest
    # path between two core vertices would itself survive the peel), so the
    # parent pointers do not depend on the order of the search.
    rows = np.concatenate([fu, fv, np.full(t, m, dtype=np.int64)])
    cols = np.concatenate([fv, fu, core])
    graph = coo_matrix((np.ones(rows.size), (rows, cols)),
                       shape=(m + 1, m + 1)).tocsr()
    order, pred = breadth_first_order(graph, m, directed=True,
                                      return_predecessors=True)
    if order.size - 1 != m:
        raise ValueError("giant/unicyclic region is not fully attached to the core")

    # forest ids: the core first, then the other vertices, each in global order
    non_core = np.flatnonzero(~vmask)
    to_forest = np.empty(m, dtype=np.int64)
    to_forest[core] = np.arange(t, dtype=np.int64)
    to_forest[non_core] = np.arange(t, m, dtype=np.int64)
    pred = pred.astype(np.int64)
    parent = np.full(m, -1, dtype=np.int64)
    parent[to_forest[non_core]] = to_forest[pred[non_core]]
    # every forest edge is the parent edge of exactly one of its ends (a
    # core end's predecessor is the source)
    child = np.where(pred[fu] == fv, fu, fv)
    edge_ids = np.full(m, -1, dtype=np.int64)
    edge_ids[to_forest[child]] = s_edges[~emask]

    forest = RootedForest(m=m, t=t, parent=parent)
    return CoreDecomposition(core_vertices=s_verts[core],
                             core_edges=s_edges[emask],
                             forest=forest,
                             forest_labels=s_verts[np.concatenate([core, non_core])],
                             forest_edge_ids=edge_ids,
                             unicyclic_vertices=unicyclic)


# ---------------------------------------------------------------------------
# text formats

_WRITE_CHUNK = 1 << 16


def write_edgelist(g: ColouredGraph, path) -> None:
    """Write the `n c` header plus one `u v colour` line per edge."""
    rows = np.column_stack([g.u, g.v, g.colour])
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{g.n} {g.c}\n")
        # one %-format per chunk of edges: no per-edge Python call, and the
        # tuple of formatted ints stays bounded on large graphs
        for start in range(0, g.m, _WRITE_CHUNK):
            part = rows[start:start + _WRITE_CHUNK]
            fh.write("%d %d %d\n" * len(part) % tuple(part.ravel().tolist()))


def read_edgelist(path) -> ColouredGraph:
    """Inverse of write_edgelist. Multigraphs are detected from the content.

    Grammar: a header line `n c`, then one `u v colour` line per edge.
    Fields are whitespace-separated decimal integers, blank lines are
    skipped and fields after the first two (header) or three (edge) are
    ignored. Any other input raises ValueError.
    """
    with open(path, "r", encoding="ascii") as fh:
        head = fh.readline().split()
        if len(head) < 2:
            raise ValueError("edge list header must be `n c`")
        n, c = int(head[0]), int(head[1])
        first = fh.readline()
        while first.isspace():
            first = fh.readline()
        if first:
            # numpy releases with loadtxt's deprecated float fallback parse a
            # field such as `1.5` as a float and truncate it under a
            # DeprecationWarning; made an error, whatever the caller's
            # filters, it becomes loadtxt's "could not convert" ValueError
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                body = np.loadtxt(itertools.chain([first], fh), dtype=np.int64,
                                  ndmin=2, comments=None, usecols=(0, 1, 2))
        else:
            # no edge lines (loadtxt would warn on the empty input)
            body = np.zeros((0, 3), dtype=np.int64)
    u, v, col = (np.ascontiguousarray(x) for x in body.T)
    _check_arrays(n, c, u, v, col)
    multi = _multi_edges(n, u, v) is not None
    return ColouredGraph._trusted(n, c, u, v, col, multi)


def forest_to_line(f: RootedForest) -> str:
    """Serialise as `m t p_t ... p_{m-1}` (0-based parents of the non-roots)."""
    parts = [str(f.m), str(f.t)] + [str(int(p)) for p in f.parent[f.t:]]
    return " ".join(parts)


def forest_from_line(line: str) -> RootedForest:
    vals = [int(x) for x in line.split()]
    m, t = vals[0], vals[1]
    parent = np.full(m, -1, dtype=np.int64)
    parent[t:] = vals[2:]
    return RootedForest(m=m, t=t, parent=parent)

"""Coloured-graph structures and the deterministic structural algorithms
built on them: connected components, 2-core peeling, core/forest
decomposition, rooted-forest traversal and rainbow checks.

Vertices are dense 0-based ids. Colours are 1-based integers in [1, c];
colour 0 marks an uncoloured edge and is only legal when c == 0.
"""

from __future__ import annotations

import numbers
import re
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as _scipy_cc


class EmptyCoreError(RuntimeError):
    """The 2-core needed by an operation is empty."""


class InvalidRootCountError(ValueError):
    """Root count outside 1..m."""


def _as_index_array(a) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a, dtype=np.int64))


def _check_count(x, name) -> None:
    """Raise ValueError unless the count x is an integer; numpy integers
    pass, floats such as 3.0 and bools do not."""
    if type(x) is int:
        return  # the common case, without the ABC check
    # bool is an Integral; np.bool_ is not
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {x!r}")


def _check_roots(m, t) -> None:
    """Raise ValueError unless m and t are integers with 1 <= t <= m."""
    _check_count(m, "m")
    _check_count(t, "t")
    if not 1 <= t <= m:
        raise InvalidRootCountError(f"need 1 <= t <= m, got t={t}, m={m}")


def _check_arrays(n, c, u, v, colour) -> None:
    """Raise ValueError unless the arrays describe edges of a graph on n
    vertices with colours valid for c."""
    if not (len(u) == len(v) == len(colour)):
        raise ValueError("edge arrays must have equal length")
    _check_count(n, "n")
    _check_count(c, "c")
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
        for name in ("u", "v", "colour"):
            a = np.asarray(getattr(self, name))
            # a cast would truncate 1.7 to 1; an empty list arrives as float64
            if a.size and a.dtype.kind not in "iu":
                raise ValueError(f"{name} must hold integers, got dtype {a.dtype}")
            object.__setattr__(self, name, _as_index_array(a))
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
        u, v, col = zip(*edges) if edges else ((), (), ())
        return cls(n=n, c=c, u=u, v=v, colour=col, multigraph=multigraph)

    def degrees(self) -> np.ndarray:
        """Vertex degrees; loops count twice."""
        return (np.bincount(self.u, minlength=self.n)
                + np.bincount(self.v, minlength=self.n))


def adjacency(g: ColouredGraph):
    """CSR-style adjacency with neighbours sorted ascending per vertex.

    Returns (indptr, nbr, eid): the neighbours of x are nbr[indptr[x]:indptr[x+1]]
    and eid gives the index of the corresponding edge in g. Parallel edges
    keep their input order.

    Half-edge k < m is edge k stored as (u, v), k >= m is edge k - m stored
    as (v, u); the CSR lists the half-edges in (end, neighbour, k) order.
    """
    m, n = g.m, g.n
    ebits = m.bit_length()
    vbits, hbits = n.bit_length(), ebits + 1
    if 2 * vbits + hbits <= 63:
        # one non-negative key per half-edge packs, high bits to low, its
        # end, its neighbour, k >= m and its edge id, so the key's value
        # order is (end, neighbour, k); numpy's SIMD value sort beats an
        # argsort, and the edge id is read back with a mask
        key = np.concatenate([g.u, g.v])
        key <<= vbits + hbits
        key |= np.concatenate([g.v, g.u]) << hbits
        ids = np.arange(m, dtype=np.int64)
        key[:m] |= ids
        ids |= 1 << ebits
        key[m:] |= ids
        key.sort()
        nbr = key >> hbits
        nbr &= (1 << vbits) - 1
        key &= (1 << ebits) - 1
        eid = key
    else:
        # the key does not fit in 63 bits: a stable argsort breaks the ties
        # by k instead
        other = np.concatenate([g.v, g.u])
        eid = np.argsort(np.concatenate([g.u, g.v]) * n + other, kind="stable")
        nbr = other[eid]
        eid[eid >= m] -= m
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(g.degrees(), out=indptr[1:])
    return indptr, nbr, eid


@dataclass(frozen=True)
class VertexPartition:
    """Partition of the vertex set into connected components.

    Component ids are canonical: each component is labelled by its smallest
    contained vertex. ``sizes[x]`` is the order of the component labelled x,
    and 0 where x labels none; its n + 1 entries are never empty.
    """

    labels: np.ndarray
    sizes: np.ndarray

    def largest_id(self) -> int:
        """Id of the largest component; ties go to the smallest id (argmax
        takes the first maximum), and with no vertices the id is 0."""
        return int(self.sizes.argmax())


def connected_components(g: ColouredGraph) -> VertexPartition:
    """Connected components with deterministic smallest-vertex labels."""
    data = np.ones(g.m, dtype=np.int8)
    mat = coo_matrix((data, (g.u, g.v)), shape=(g.n, g.n))
    ncomp, raw = _scipy_cc(mat, directed=False)
    rep = np.full(ncomp, g.n, dtype=np.int64)
    np.minimum.at(rep, raw, np.arange(g.n, dtype=np.int64))
    labels = rep[raw]
    return VertexPartition(labels, np.bincount(labels, minlength=g.n + 1))


def _peel(g: ColouredGraph):
    """Iteratively strip degree<=1 vertices; returns (vertex_mask, edge_mask,
    up, up_edge).

    Each round looks only at the live neighbours of the vertices it just
    removed, so the whole peel is O(m log m) rather than O(n) per round.
    A vertex goes after its children and never in its parent's round, so
    its one neighbour alive after its round is its parent towards the
    2-core: ``up`` holds it and ``up_edge`` the edge to it, both -1 for
    core vertices and for the last vertices peeled from a coreless tree.
    """
    n = g.n
    indptr, nbr, eid = adjacency(g)
    deg = np.diff(indptr)
    alive = np.ones(n, dtype=bool)
    up = np.full(n, -1, dtype=np.int64)
    up_edge = np.full(n, -1, dtype=np.int64)
    removed = np.flatnonzero(deg <= 1)
    while removed.size:
        alive[removed] = False
        # gather all neighbours of the removed set and decrement
        starts = indptr[removed]
        lens = indptr[removed + 1] - starts
        offsets = np.cumsum(lens) - lens
        flat = np.repeat(starts - offsets, lens) + np.arange(lens.sum())
        live = alive[nbr[flat]]
        child = np.repeat(removed, lens)[live]
        up[child], up_edge[child] = nbr[flat[live]], eid[flat[live]]
        touched, hits = np.unique(nbr[flat], return_counts=True)
        deg[touched] -= hits
        # only a vertex decremented just now can have dropped to degree <= 1
        removed = touched[alive[touched] & (deg[touched] <= 1)]
    edge_mask = alive[g.u] & alive[g.v]
    return alive, edge_mask, up, up_edge


def two_core(g: ColouredGraph) -> ColouredGraph:
    """Maximal subgraph of minimum degree >= 2 (empty when none exists).

    The vertex set is kept; only the surviving edges are returned.
    """
    _, emask, _, _ = _peel(g)
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
        _check_roots(self.m, self.t)
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


def _climb(f: RootedForest, weight):
    """(root, total) per vertex: the root its parent chain reaches and the
    sum of ``weight`` along that chain, root excluded.

    root is -1 for a vertex whose chain never reaches a root: a vertex on a
    cycle, on a tail that runs into one, or on a chain that ends in a parent
    outside [0, m); its total is then meaningless. Roots are vertices
    0..t-1.
    """
    m, t = f.m, f.t
    idx = np.arange(m, dtype=np.int64)
    # pointer jumping: anc[x] is x's 2^k-th ancestor (or its root), total[x]
    # the weight from x up to anc[x]; a non-root with an out-of-range parent
    # points at itself, so it never reaches a root
    par = f.parent
    anc = np.where((idx < t) | (par < 0) | (par >= m), idx, par)
    total = np.where(idx >= t, np.asarray(weight, dtype=np.int64), 0)
    for _ in range(int(m).bit_length()):
        if (anc < t).all():
            break
        total += total[anc]
        anc = anc[anc]
    return np.where(anc < t, anc, -1), total


def forest_depths(f: RootedForest) -> np.ndarray:
    """Distance to the root per vertex; -1 where the parent chain never
    reaches a root (see _climb)."""
    root, depth = _climb(f, 1)
    return np.where(root >= 0, depth, -1)


def subtree_sizes(f: RootedForest) -> np.ndarray:
    """Order of the subtree hanging below every vertex (vertex included)."""
    depth = forest_depths(f)
    if (depth < 0).any():
        raise ValueError("not a forest")
    m = f.m
    sizes = np.ones(m, dtype=np.int64)
    order = np.argsort(depth, kind="stable")
    # accumulate level by level, deepest first; same-depth vertices never
    # parent each other so np.add.at per level is safe
    maxd = int(depth.max(initial=0))
    bounds = np.searchsorted(depth[order], np.arange(maxd + 2))
    for d in range(maxd, 0, -1):
        vs = order[bounds[d]:bounds[d + 1]]
        np.add.at(sizes, f.parent[vs], sizes[vs])
    return sizes


def children_index(f: RootedForest):
    """(indptr, order): children of x are order[indptr[x+1]:indptr[x+2]].

    Group 0 of ``order`` holds the roots. The stable sort runs on the key
    cast to the narrowest unsigned type that holds m: numpy radix-sorts
    keys of up to 16 bits, and a stable order does not depend on the key's
    type.
    """
    key = f.parent + 1
    order = np.argsort(key.astype(np.min_scalar_type(f.m)), kind="stable")
    counts = np.bincount(key, minlength=f.m + 1)
    indptr = np.zeros(f.m + 2, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, order


def subtree_size_below(f: RootedForest, w: int, child_idx) -> int:
    """Order of the subtree rooted at w, by explicit descent over
    ``child_idx = children_index(f)``."""
    indptr, order = child_idx
    count = 0
    stack = [w]
    while stack:
        x = stack.pop()
        count += 1
        kids = order[indptr[x + 1]:indptr[x + 2]]
        stack.extend(kids.tolist())
    return count


def is_rainbow(g: ColouredGraph, edge_ids) -> bool:
    """True iff the given edges carry pairwise distinct colours."""
    cols = np.sort(g.colour[_as_index_array(edge_ids)])
    return not (cols[1:] == cols[:-1]).any()


@dataclass(frozen=True)
class CoreDecomposition:
    """2-core of the giant+unicyclic region plus the forest hanging off it.

    The forest is relabelled: core vertices become local ids 0..t-1 (sorted
    by global id), remaining vertices of the region follow in global-id
    order. ``forest_edge_ids[w]`` is the original edge index of the parent
    edge of local non-root w (-1 for roots).
    """

    core_vertices: np.ndarray
    core_edges: np.ndarray
    forest: RootedForest
    forest_edge_ids: np.ndarray


def core_forest_decomposition(g: ColouredGraph, giant, unicyclic) -> CoreDecomposition:
    """Split the induced subgraph on giant+unicyclic into 2-core and rooted forest.

    ``giant`` and ``unicyclic`` must each be a union of whole components of
    g. Then no edge of g leaves S = giant + unicyclic, so the 2-core of the
    subgraph induced on S is g's 2-core restricted to S: the peel below
    runs on that subgraph alone, in ids 0..|S|-1 that keep the global
    order.

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
    region = ColouredGraph._trusted(m, g.c, local[g.u[s_edges]],
                                    local[g.v[s_edges]], g.colour[s_edges],
                                    g.multigraph)

    vmask, emask, up, up_edge = _peel(region)
    core = np.flatnonzero(vmask)
    t = core.size
    if t == 0:
        raise EmptyCoreError("2-core of the giant+unicyclic region is empty")
    if not vmask[local[giant]].any():
        raise EmptyCoreError("2-core of the giant is empty")
    non_core = np.flatnonzero(~vmask)
    if (up[non_core] < 0).any():
        raise ValueError("giant/unicyclic region is not fully attached to the core")

    # forest ids: the core first, then the other vertices, each in global order
    to_forest = np.empty(m, dtype=np.int64)
    to_forest[core] = np.arange(t, dtype=np.int64)
    to_forest[non_core] = np.arange(t, m, dtype=np.int64)
    parent = np.full(m, -1, dtype=np.int64)
    parent[t:] = to_forest[up[non_core]]
    edge_ids = np.full(m, -1, dtype=np.int64)
    edge_ids[t:] = s_edges[up_edge[non_core]]

    forest = RootedForest(m=m, t=t, parent=parent)
    return CoreDecomposition(core_vertices=s_verts[core],
                             core_edges=s_edges[emask],
                             forest=forest, forest_edge_ids=edge_ids)


# ---------------------------------------------------------------------------
# text formats

_WRITE_CHUNK = 1 << 16
_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _decimal(field: str) -> int:
    """An integer field of the text formats: an optional sign and ASCII
    digits; int() alone also takes underscores and non-ASCII digits."""
    if _DECIMAL.fullmatch(field) is None:
        raise ValueError(f"invalid literal for int() with base 10: {field!r}")
    return int(field)


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
        n, c = _decimal(head[0]), _decimal(head[1])
        # numpy releases with loadtxt's deprecated float fallback parse a
        # field such as `1.5` as a float and truncate it under a
        # DeprecationWarning; made an error, whatever the caller's filters,
        # it becomes loadtxt's "could not convert" ValueError. A body with
        # no edge lines gives a (0, 3) array, and its warning says nothing.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            warnings.filterwarnings("ignore",
                                    message="loadtxt: input contained no data")
            body = np.loadtxt(fh, dtype=np.int64, ndmin=2, comments=None,
                              usecols=(0, 1, 2))
    u, v, col = (np.ascontiguousarray(x) for x in body.T)
    _check_arrays(n, c, u, v, col)
    multi = _multi_edges(n, u, v) is not None
    return ColouredGraph._trusted(n, c, u, v, col, multi)


def forest_to_line(f: RootedForest) -> str:
    """Serialise as `m t p_t ... p_{m-1}` (0-based parents of the non-roots)."""
    parts = [str(f.m), str(f.t)] + [str(int(p)) for p in f.parent[f.t:]]
    return " ".join(parts)


def forest_from_line(line: str) -> RootedForest:
    """Parse forest_to_line's format; ValueError on a field that is not a
    decimal integer, a missing `m t` header, a parent count other than
    m - t, or a forest RootedForest.check rejects."""
    vals = [_decimal(x) for x in line.split()]
    if len(vals) < 2:
        raise ValueError("forest line needs an `m t` header")
    m, t = vals[0], vals[1]
    _check_roots(m, t)
    if len(vals) - 2 != m - t:
        raise ValueError(f"forest line has {len(vals) - 2} parents, "
                         f"need m - t = {m - t}")
    parent = np.full(m, -1, dtype=np.int64)
    parent[t:] = vals[2:]
    f = RootedForest(m=m, t=t, parent=parent)
    f.check()
    return f

"""Independent output checks for the benchmark workloads.

They use numpy and scipy only, never rainbowsim, so a fault in the package
cannot also hide itself from its check. Each check returns the set of
properties the output breaks; an empty set means the output is correct.
The workloads' self-tests feed each check deliberately corrupted outputs and
require the matching property in the returned set.
"""

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components


class EdgeIndex:
    """Colour lookup for the undirected edges of a simple graph."""

    def __init__(self, n, u, v, colour):
        self.n = n
        key = np.minimum(u, v) * n + np.maximum(u, v)
        order = np.argsort(key)
        self.keys = key[order]
        self.colours = np.asarray(colour)[order]

    def colour_of(self, a, b):
        """Colour of each edge {a[i], b[i]}; -1 where there is none."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        key = np.minimum(a, b) * self.n + np.maximum(a, b)
        pos = np.searchsorted(self.keys, key)
        hit = pos < len(self.keys)
        hit[hit] = self.keys[pos[hit]] == key[hit]
        out = np.full(len(key), -1, dtype=np.int64)
        out[hit] = self.colours[pos[hit]]
        return out

    def non_neighbour(self, a):
        """Smallest vertex other than a that is not joined to a."""
        others = np.arange(self.n, dtype=np.int64)
        free = (self.colour_of(np.full(self.n, a), others) < 0) & (others != a)
        return int(np.flatnonzero(free)[0])


def _pieces(a, b):
    """(vertices touched by the edges a[i]-b[i], number of connected pieces)."""
    k = len(a)
    verts, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    mat = coo_matrix((np.ones(k), (inv[:k], inv[k:])),
                     shape=(len(verts), len(verts)))
    return verts, connected_components(mat, directed=False)[0]


def _repeats(values):
    return len(np.unique(values)) != len(values)


def tree_problems(index, a, b, colour):
    """A rainbow tree: graph edges with their colours, distinct colours,
    no cycle, one piece."""
    a, b, colour = (np.asarray(x, dtype=np.int64) for x in (a, b, colour))
    problems = set()
    if (index.colour_of(a, b) != colour).any():
        problems.add("non-edge")
    if _repeats(colour):
        problems.add("repeated colour")
    if len(a):
        verts, pieces = _pieces(a, b)
        if len(a) != len(verts) - pieces:
            problems.add("cycle")
        if pieces != 1:
            problems.add("disconnected")
    return problems


def cycle_problems(g1, g2, a, b, colour):
    """A closed rainbow cycle: edges of g1 with their colours except one
    closing edge that is in g2 and not in g1, distinct colours, every degree
    2, one piece."""
    a, b, colour = (np.asarray(x, dtype=np.int64) for x in (a, b, colour))
    problems = set()
    in_g1 = g1.colour_of(a, b)
    off = np.flatnonzero(in_g1 != colour)
    if len(off) != 1 or in_g1[off[0]] != -1 \
            or g2.colour_of(a[off], b[off])[0] != colour[off[0]]:
        problems.add("non-edge")
    if _repeats(colour):
        problems.add("repeated colour")
    deg = np.bincount(np.concatenate([a, b]))
    if (deg[deg > 0] != 2).any():
        problems.add("degree not 2")
    if len(a) < 3 or _pieces(a, b)[1] != 1:
        problems.add("disconnected")
    return problems


def path_problems(index, path):
    """A simple rainbow path of the indexed graph."""
    path = np.asarray(path, dtype=np.int64)
    problems = set()
    if _repeats(path):
        problems.add("repeated vertex")
    colour = index.colour_of(path[:-1], path[1:])
    if (colour < 0).any():
        problems.add("non-edge")
    if _repeats(colour[colour >= 0]):
        problems.add("repeated colour")
    return problems


def largest_component_labels(n, u, v):
    """(component label per vertex, order of each label's component)."""
    mat = coo_matrix((np.ones(len(u)), (u, v)), shape=(n, n))
    labels = connected_components(mat, directed=False)[1]
    return labels, np.bincount(labels)


def outside_largest(labels, sizes, vertices):
    """True unless the vertices share one component of the largest order."""
    lab = np.unique(labels[vertices])
    return len(lab) != 1 or sizes[lab[0]] != sizes.max()


def forest_problems(parent, t):
    """Roots exactly 0..t-1 and every other parent chain reaching a root."""
    parent = np.asarray(parent, dtype=np.int64)
    m = len(parent)
    if (parent[:t] != -1).any() or (parent[t:] < 0).any() \
            or (parent[t:] >= m).any():
        return {"parent out of range"}
    up = parent.copy()
    up[:t] = np.arange(t)
    for _ in range(max(m, 2).bit_length()):
        up = up[up]
    return {"parent cycle"} if (up >= t).any() else set()


def bridge_problems(parent, w, claimed):
    """The bridge number below w, counted by climbing from every vertex
    towards its root (the package descends from w instead)."""
    x = np.arange(len(parent), dtype=np.int64)
    below = 0
    while x.size:
        below += int(np.count_nonzero(x == w))
        x = parent[x]
        x = x[x >= 0]
    return set() if below == claimed else {"bridge number differs"}

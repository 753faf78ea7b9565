"""The benchmark's workloads: cycle, phase, rbfs and forest.

A workload builds its inputs from the seed, runs repetitions through the
public functions of rainbowsim (every timed call goes through a tracer),
checks each repetition's outputs with ``checks`` outside the timed region
and, in the traced run, replays the public building blocks its calls
compose. README.md gives the sizes against the acceptance gates they mirror.
"""

import functools
import math
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import rainbowsim  # noqa: E402
from rainbowsim import (ColouredGraph, RngStream, adjacency,  # noqa: E402
                        check_cycle, close_cycle_edges, colour_uniform,
                        connected_components, core_forest_decomposition,
                        exp_bridge_number, exp_min_split, rbfs_forest,
                        rdfs_longest_path, read_edgelist, sample_gnp,
                        sample_uniform_forest, sprinkle_close_cycle,
                        subcritical_rainbow_tree, subtree_sizes,
                        supercritical_rainbow_tree, two_core, write_edgelist)
from rainbowsim.graphs import (children_index, forest_depths,  # noqa: E402
                               subtree_size_below)

import checks  # noqa: E402

if not os.path.abspath(rainbowsim.__file__).startswith(SRC + os.sep):
    raise ImportError(f"rainbowsim was imported from {rainbowsim.__file__}, "
                      f"not from {SRC}")


def _coloured_gnp(tr, made, n, p, c, gen):
    """Sample and colour G(n, p) as the experiments do; records the
    (span, graph) of both calls in ``made`` for the constructor replay."""
    g = tr.call("models.sample_gnp", sample_gnp, n, p, gen)
    made.append((tr.last, g))
    tr.count("models.edges", g.m)
    g = tr.call("models.colour_uniform", colour_uniform, g, c, gen)
    made.append((tr.last, g))
    return g


def _replay_construct(tr, made):
    """The public constructor on each returned graph's arrays: the cost of
    validating it."""
    for sid, g in made:
        tr.replay(sid, "graphs.construct", ColouredGraph, n=g.n, c=g.c,
                  u=g.u, v=g.v, colour=g.colour, multigraph=g.multigraph)


def _triples(g, edge_ids):
    ids = np.asarray(edge_ids, dtype=np.int64)
    return g.u[ids], g.v[ids], g.colour[ids]


def _tree_corruptions(index, a, b, colour):
    """(label, corrupted a, b, colour, problem the check must report)."""
    deg = np.bincount(np.concatenate([a, b]))
    inner = np.flatnonzero((deg[a] >= 2) & (deg[b] >= 2))[0]
    keep = np.arange(len(a)) != inner
    same = colour.copy()
    same[1] = colour[0]
    far = b.copy()
    far[0] = index.non_neighbour(a[0])
    verts = np.unique(np.concatenate([a, b]))
    return [
        ("repeated colour", a, b, same, "repeated colour"),
        ("non-edge", a, far, colour, "non-edge"),
        ("extra chord", np.append(a, verts[0]), np.append(b, verts[-1]),
         np.append(colour, colour.max() + 1), "cycle"),
        ("tree cut in two", a[keep], b[keep], colour[keep], "disconnected"),
    ]


class Workload:
    def __init__(self, seed, prefix):
        self.seed = seed
        self.prefix = prefix

    def prepare(self, tr):
        """Input generation: the set-up that is timed in fresh processes."""

    def load(self):
        """Untimed preparation of the checks."""

    def replay(self, out, tr):
        """Traced run only: replay the building blocks of ``out``'s calls."""


class Cycle(Workload):
    """One repetition of exp_cycle, the pipeline of gate 11: sample and
    colour g1, faithful RDFS, sample and colour g2, sprinkle, close the cycle
    and check it. Gate size is n = c = 1e5; n = c = 5000 keeps a repetition
    under 1 s."""

    n = c = 5_000
    d = 129.0
    delta = 0.5

    def rep(self, i, tr):
        n, c, d, delta = self.n, self.c, self.d, self.delta
        gen = RngStream(self.seed, i).generator()
        made = []
        p1 = (d - 1.0) / n
        g1 = _coloured_gnp(tr, made, n, p1, c, gen)
        trace = tr.call("finders.rdfs_longest_path", rdfs_longest_path, g1,
                        mode="faithful", delta=delta / 2.0,
                        query_budget=n * min(n, c))
        rdfs = tr.last
        tr.count("finders.rdfs_queries", trace.queries)
        tr.count("finders.rdfs_accepted", trace.accepted)
        tr.count("finders.rdfs_accept_ratio", trace.accepted / trace.queries)
        p2 = 1.0 - (1.0 - d / n) / (1.0 - p1)
        g2 = _coloured_gnp(tr, made, n, p2, c, gen)
        g2_edges = list(zip(g2.u.tolist(), g2.v.tolist(), g2.colour.tolist()))
        edge = tr.call("finders.sprinkle_close_cycle", sprinkle_close_cycle,
                       g1, trace.path, g2_edges, delta)
        sprinkle = tr.last
        cycle = tr.call("finders.close_cycle_edges", close_cycle_edges, g1,
                        trace.path, edge)
        close = tr.last
        tr.call("finders.check_cycle", check_cycle, cycle)
        tr.count("finders.cycle_frac", len(cycle) / min(n, c))
        return {"g1": g1, "g2": g2, "path": trace.path, "cycle": cycle,
                "made": made, "spans": (rdfs, sprinkle, close)}

    def replay(self, out, tr):
        _replay_construct(tr, out["made"])
        rdfs, sprinkle, close = out["spans"]
        # rdfs builds the adjacency once, sprinkling twice (once through
        # _path_colours), closing once (through _path_colours)
        for sid in (rdfs, sprinkle, sprinkle, close):
            tr.replay(sid, "graphs.adjacency", adjacency, out["g1"])

    def _indexes(self, out):
        g1, g2 = out["g1"], out["g2"]
        return (checks.EdgeIndex(self.n, g1.u, g1.v, g1.colour),
                checks.EdgeIndex(self.n, g2.u, g2.v, g2.colour))

    def check(self, out):
        i1, i2 = self._indexes(out)
        a, b, colour = np.array(out["cycle"], dtype=np.int64).T
        return (checks.path_problems(i1, out["path"])
                | checks.cycle_problems(i1, i2, a, b, colour))

    def selftest(self, out):
        i1, i2 = self._indexes(out)
        a, b, colour = np.array(out["cycle"], dtype=np.int64).T
        top = colour.max()
        same = colour.copy()
        same[1] = colour[0]
        far = b.copy()
        far[0] = i1.non_neighbour(a[0])
        # close_cycle_edges lists the path segment in order, then the closing
        # edge; rejoin the two halves of the segment into two cycles
        seg = np.append(a[:-1], b[-2])
        j = len(seg) // 2
        two = (np.concatenate([seg[:j], [seg[j]], seg[j + 1:-1], [seg[-1]]]),
               np.concatenate([seg[1:j + 1], [seg[0]], seg[j + 2:],
                               [seg[j + 1]]]),
               np.concatenate([colour[:j], [top + 1], colour[j + 1:-1],
                               [top + 2]]))
        p = list(out["path"])
        bad_path = [p[0], i1.non_neighbour(p[0])] + p[1:]
        cases = [
            ("repeated colour", (a, b, same), "repeated colour"),
            ("non-edge", (a, far, colour), "non-edge"),
            ("extra chord", (np.append(a, seg[0]), np.append(b, seg[2]),
                             np.append(colour, top + 1)), "degree not 2"),
            ("two disjoint cycles", two, "disconnected"),
        ]
        results = [(label, checks.cycle_problems(i1, i2, *edges), want)
                   for label, edges, want in cases]
        results.append(("path non-edge", checks.path_problems(i1, bad_path),
                        "non-edge"))
        return results


class Phase(Workload):
    """The weakly sub- and supercritical theorem: set-up writes coloured
    G(n, (1 +- eps)/n) with the package's samplers and write_edgelist; each
    repetition reads both back with read_edgelist and runs the supercritical
    finder on the + graph and the subcritical finder on the - graph. Gates
    08/09 run n = 1e6, eps = 0.05; this keeps their eps^3 n = 125 at half
    the order, near 2 s a repetition."""

    n = c = 500_000
    eps = 0.063
    signs = (("plus", 1.0, 0), ("minus", -1.0, 1))    # (name, sign, stream)

    def _path(self, name, ext):
        return f"{self.prefix}-{name}.{ext}"

    def prepare(self, tr):
        made = []
        for name, sign, stream in self.signs:
            gen = RngStream(self.seed, stream).generator()
            g = _coloured_gnp(tr, made, self.n, (1.0 + sign * self.eps) / self.n,
                              self.c, gen)
            tr.call("graphs.write_edgelist", write_edgelist, g,
                    self._path(name, "edges"))
            np.savez(self._path(name, "npz"), u=g.u, v=g.v, colour=g.colour)
        if tr.enabled:
            _replay_construct(tr, made)

    def load(self):
        self.ref, self.index, self.components = {}, {}, {}
        for name, _, _ in self.signs:
            with np.load(self._path(name, "npz")) as z:
                u, v, colour = z["u"], z["v"], z["colour"]
            self.ref[name] = (u, v, colour)
            self.index[name] = checks.EdgeIndex(self.n, u, v, colour)
            self.components[name] = checks.largest_component_labels(self.n, u, v)

    def rep(self, i, tr):
        read = []
        for name, _, _ in self.signs:
            g = tr.call("graphs.read_edgelist", read_edgelist,
                        self._path(name, "edges"))
            read.append((tr.last, g))
        gp, gm = read[0][1], read[1][1]
        tree, report = tr.call("finders.supercritical_rainbow_tree",
                               supercritical_rainbow_tree, gp)
        sup = tr.last
        sub = tr.call("finders.subcritical_rainbow_tree",
                      subcritical_rainbow_tree, gm)
        return {"read": read, "tree": tree, "report": report, "sub": sub,
                "spans": (sup, tr.last)}

    def replay(self, out, tr):
        _replay_construct(tr, out["read"])
        gp, gm = out["read"][0][1], out["read"][1][1]
        sup, sub = out["spans"]
        part = tr.replay(sup, "graphs.connected_components",
                         connected_components, gp)
        giant_id = part.largest_id()
        giant = np.flatnonzero(part.labels == giant_id)
        # unicyclic components, by the finder's rule: as many edges as vertices
        vcount = np.bincount(part.labels, minlength=gp.n)
        ecount = np.bincount(part.labels[gp.u], minlength=gp.n)
        uni = (vcount > 0) & (ecount == vcount)
        uni[giant_id] = False
        decomp = tr.replay(sup, "graphs.core_forest_decomposition",
                           core_forest_decomposition, gp, giant,
                           np.flatnonzero(uni[part.labels]))
        tr.replay(tr.last, "graphs.two_core", two_core, gp)
        tr.replay(tr.last, "graphs.adjacency", adjacency, gp)
        tr.replay(sup, "graphs.subtree_sizes", subtree_sizes, decomp.forest)
        tr.replay(sup, "graphs.forest_depths", forest_depths, decomp.forest)
        tr.replay(sub, "graphs.connected_components", connected_components, gm)

        report = out["report"]
        tr.count("graphs.giant_order", giant.size)
        tr.count("graphs.core_order", decomp.core_vertices.size)
        tr.count("graphs.forest_order", decomp.forest.m)
        for key in ("deleted_shared_colour", "deleted_high_frequency",
                    "deleted_double_colour", "deleted_unrooted_trees"):
            tr.count("finders." + key, getattr(report, key))
        tr.count("finders.super_tree_frac",
                 report.final_tree_order / (2.0 * self.eps * self.n))
        a, b, _ = _triples(gm, out["sub"])
        sub_order = max(len(np.unique(np.concatenate([a, b]))), 1)
        tr.count("finders.sub_tree_frac", sub_order / (
            2.0 / self.eps ** 2 * math.log(self.eps ** 3 * self.n)))

    def _tree_problems(self, name, g, edge_ids, order):
        a, b, colour = _triples(g, edge_ids)
        problems = checks.tree_problems(self.index[name], a, b, colour)
        verts = np.unique(np.concatenate([a, b]))
        if checks.outside_largest(*self.components[name], verts):
            problems.add("outside the largest component")
        if order is not None and len(verts) != order:
            problems.add("order differs from the report")
        return problems

    def _readback_problems(self, name, n, c, arrays):
        if (n, c) != (self.n, self.c) or not all(
                np.array_equal(x, y) for x, y in zip(arrays, self.ref[name])):
            return {"read-back differs from the arrays written"}
        return set()

    def check(self, out):
        problems = set()
        for (name, _, _), (_, g) in zip(self.signs, out["read"]):
            problems |= self._readback_problems(name, g.n, g.c,
                                                (g.u, g.v, g.colour))
        gp, gm = out["read"][0][1], out["read"][1][1]
        problems |= self._tree_problems("plus", gp, out["tree"],
                                        out["report"].final_tree_order)
        problems |= self._tree_problems("minus", gm, out["sub"], None)
        return problems

    def selftest(self, out):
        gp = out["read"][0][1]
        index = self.index["plus"]
        results = [(label, checks.tree_problems(index, a, b, colour), want)
                   for label, a, b, colour, want
                   in _tree_corruptions(index, *_triples(gp, out["tree"]))]
        flipped = gp.colour.copy()
        flipped[0] = flipped[0] % self.c + 1
        results.append(("read-back colour changed",
                        self._readback_problems("plus", gp.n, gp.c,
                                                (gp.u, gp.v, flipped)),
                        "read-back differs from the arrays written"))
        return results


class Rbfs(Workload):
    """Greedy rainbow BFS on a fresh coloured G(n, (1 + eps)/n) per
    repetition, the regime of test_rbfs_greedy_linear_tree_envelope (there
    n = 1e6; here n = c = 2e5, near 1 s a repetition)."""

    n = c = 200_000
    eps = 0.1

    def rep(self, i, tr):
        gen = RngStream(self.seed, i).generator()
        made = []
        g = _coloured_gnp(tr, made, self.n, (1.0 + self.eps) / self.n,
                          self.c, gen)
        trace = tr.call("finders.rbfs_forest", rbfs_forest, g, mode="greedy")
        tr.count("finders.rbfs_queries", trace.queries)
        tr.count("finders.rbfs_accepted", trace.accepted)
        tr.count("finders.rbfs_accept_ratio", trace.accepted / trace.queries)
        tr.count("finders.rbfs_tree_frac", trace.order / (self.eps * self.n))
        return {"g": g, "tree": trace.tree_edges, "made": made,
                "spans": (tr.last,)}

    def replay(self, out, tr):
        _replay_construct(tr, out["made"])
        tr.replay(out["spans"][0], "graphs.adjacency", adjacency, out["g"])

    def _index(self, g):
        return checks.EdgeIndex(self.n, g.u, g.v, g.colour)

    def check(self, out):
        g = out["g"]
        return checks.tree_problems(self._index(g), *_triples(g, out["tree"]))

    def selftest(self, out):
        index = self._index(out["g"])
        return [(label, checks.tree_problems(index, a, b, colour), want)
                for label, a, b, colour, want
                in _tree_corruptions(index, *_triples(out["g"], out["tree"]))]


class Forest(Workload):
    """The min-split (m = 100/400/1600) and bridge (m = 1000, t = 50)
    suites through exp_min_split and exp_bridge_number, a fixed number of
    Wilson forests each. Every repetition repeats the same calls, so the
    first is checked in full and the later ones against it."""

    reps = 300
    m_grid = (100, 400, 1600)
    bridge = (1000, 50)

    def __init__(self, seed, prefix):
        super().__init__(seed, prefix)
        self.expected = None

    def rep(self, i, tr):
        split, _ = tr.call("experiments.exp_min_split", exp_min_split,
                           self.m_grid, self.reps, self.seed)
        sid = tr.last
        bridge, _ = tr.call("experiments.exp_bridge_number", exp_bridge_number,
                            *self.bridge, self.reps, self.seed)
        return {"rows": split + bridge, "spans": (sid, tr.last)}

    def _suites(self, spans=(None, None)):
        """(span, m, t, lowest drawn vertex, statistic of the bridge number)."""
        for m in self.m_grid:
            yield spans[0], m, 1, 1, lambda below, m=m: min(below, m - below)
        m, t = self.bridge
        yield spans[1], m, t, t, lambda below: below

    def _draws(self, m, t, lo, call=lambda name, fn, *args: fn(*args)):
        """The experiments' per-repetition draws: a forest, then an edge."""
        for i in range(self.reps):
            gen = RngStream(self.seed, i).generator()
            f = call("models.sample_uniform_forest", sample_uniform_forest,
                     m, t, gen)
            yield f, int(gen.integers(lo, m))

    def replay(self, out, tr):
        for sid, m, t, lo, _ in self._suites(out["spans"]):
            for f, w in self._draws(m, t, lo, functools.partial(tr.replay, sid)):
                index = tr.replay(sid, "graphs.children_index",
                                  children_index, f)
                tr.replay(sid, "graphs.subtree_size_below",
                          subtree_size_below, f, w, index)
                tr.count("models.edges", m - t)

    def _recount(self):
        """Validate every sampled forest, compare the package's bridge
        numbers with an independent count, and return the rows' expected
        (mean, std)."""
        problems, expected = set(), []
        for _, m, t, lo, stat in self._suites():
            values = []
            for f, w in self._draws(m, t, lo):
                broken = checks.forest_problems(f.parent, t)
                if broken:
                    problems |= broken
                    continue
                below = subtree_size_below(f, w, children_index(f))
                problems |= checks.bridge_problems(f.parent, w, below)
                values.append(stat(below))
            mean = sum(values) / len(values)
            std = math.sqrt(sum((x - mean) ** 2 for x in values)
                            / (len(values) - 1))
            expected.append((mean, std))
        self.sample = (f, w, t)
        return problems, expected

    def check(self, out):
        problems = set()
        if self.expected is None:
            problems, self.expected = self._recount()
        for row, (mean, std) in zip(out["rows"], self.expected):
            if not (math.isclose(row.mean, mean, rel_tol=1e-12)
                    and math.isclose(row.std, std, rel_tol=1e-9)):
                problems.add("row differs from the independent recount")
        return problems

    def selftest(self, out):
        f, w, t = self.sample
        looped = f.parent.copy()
        looped[t], looped[t + 1] = t + 1, t
        claimed = subtree_size_below(f, w, children_index(f)) + 1
        return [
            ("parent cycle", checks.forest_problems(looped, t), "parent cycle"),
            ("bridge number off by one",
             checks.bridge_problems(f.parent, w, claimed),
             "bridge number differs"),
        ]


WORKLOADS = {"cycle": Cycle, "phase": Phase, "rbfs": Rbfs, "forest": Forest}

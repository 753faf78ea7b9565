"""Random samplers: binomial random graphs, uniform edge colourings,
configuration-model multigraphs, uniform rooted forests, and the Poisson
branching-process survival probability.

All samplers are pure functions of their RngStream, so experiments can fan
out over repetition indices and stay bit-reproducible at any parallelism.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .graphs import ColouredGraph, RootedForest, _check_count, _check_roots


class InvalidProbabilityError(ValueError):
    """p outside [0, 1]."""


class OddDegreeSumError(ValueError):
    """Degree sequence with odd sum cannot be paired."""


def _check_probability(p) -> None:
    """Raise InvalidProbabilityError unless 0 <= p <= 1 (NaN is refused)."""
    if not 0.0 <= p <= 1.0:
        raise InvalidProbabilityError(f"edge probability {p} is outside [0, 1]")


def _check_colours(c) -> None:
    """Raise ValueError unless c is an integer colour count of at least 1."""
    _check_count(c, "c")
    if c < 1:
        raise ValueError("need c >= 1")


@dataclass(frozen=True)
class RngStream:
    """Deterministic (seed, stream) handle.

    A counter-based Philox generator keyed on (seed, stream) makes every
    draw sequence a pure function of the pair, independent of thread count
    or evaluation order.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.Philox(ss))


def as_generator(rng) -> np.random.Generator:
    """Coerce RngStream | Generator | int | None to a numpy Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngStream):
        return rng.generator()
    if rng is None:
        return RngStream(0).generator()
    return RngStream(int(rng)).generator()


@dataclass(frozen=True)
class DegreeSequence:
    """Vector of non-negative vertex degrees with even sum."""

    degrees: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "degrees",
                           np.ascontiguousarray(np.asarray(self.degrees, dtype=np.int64)))
        if len(self.degrees) and self.degrees.min() < 0:
            raise ValueError("degrees must be non-negative")
        if int(self.degrees.sum()) % 2 != 0:
            raise OddDegreeSumError("degree sum must be even")


# ---------------------------------------------------------------------------
# G(n, p)

def _decode_pair_index(k: np.ndarray):
    """Map linear index k = v(v-1)/2 + w (w < v) back to (v, w)."""
    vv = np.floor((1.0 + np.sqrt(1.0 + 8.0 * k.astype(np.float64))) / 2.0).astype(np.int64)
    vv -= vv * (vv - 1) // 2 > k
    vv += (vv + 1) * vv // 2 <= k
    ww = k - vv * (vv - 1) // 2
    return vv, ww


def sample_gnp(n: int, p: float, rng=None) -> ColouredGraph:
    """Erdos-Renyi G(n, p), uncoloured (c = 0).

    Uses geometric gap skipping over the pair-index space, so the expected
    cost is O(n + p n^2) rather than Theta(n^2).
    """
    _check_probability(p)
    _check_count(n, "n")
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    gen = as_generator(rng)
    empty = np.zeros(0, dtype=np.int64)
    if n < 2 or p == 0.0:
        return ColouredGraph._trusted(n, 0, empty, empty, empty)
    total = n * (n - 1) // 2
    if p == 1.0:
        k = np.arange(total, dtype=np.int64)
        u, v = _decode_pair_index(k)
        return ColouredGraph._trusted(n, 0, u, v, np.zeros(total, dtype=np.int64))
    chunks = []
    pos = -1
    batch = max(1024, int(total * p * 1.1) + 64)
    while pos < total:
        gaps = gen.geometric(p, size=batch)
        idx = pos + np.cumsum(gaps)
        pos = int(idx[-1])
        chunks.append(idx[idx < total])
    k = np.concatenate(chunks)
    u, v = _decode_pair_index(k)
    return ColouredGraph._trusted(n, 0, u, v, np.zeros(len(k), dtype=np.int64))


def colour_uniform(g: ColouredGraph, c: int, rng=None) -> ColouredGraph:
    """Recolour every edge i.i.d. uniformly from [1, c], preserving edge order."""
    _check_colours(c)
    gen = as_generator(rng)
    cols = gen.integers(1, c + 1, size=g.m, dtype=np.int64)
    return ColouredGraph._trusted(g.n, c, g.u, g.v, cols, g.multigraph)


# ---------------------------------------------------------------------------
# configuration model

def sample_configuration(d, rng=None) -> ColouredGraph:
    """Uniform multigraph with the given degree sequence.

    Half-edges are paired sequentially: the lowest unmatched half-edge picks
    a partner uniformly among the remaining ones, which yields a uniform
    perfect matching. Loops consume two half-edges of their vertex, so the
    degree sequence is preserved with loops counted twice.
    """
    degs = (d if isinstance(d, DegreeSequence) else DegreeSequence(d)).degrees
    gen = as_generator(rng)
    stubs = np.repeat(np.arange(len(degs), dtype=np.int64), degs).tolist()
    k = len(stubs)
    for i in range(0, k, 2):
        j = int(gen.integers(i + 1, k))
        stubs[i + 1], stubs[j] = stubs[j], stubs[i + 1]
    # stubs now holds the matching as consecutive pairs
    u, v = np.array(stubs, dtype=np.int64).reshape(-1, 2).T
    return ColouredGraph._trusted(len(degs), 0, u, v,
                                  np.zeros(k // 2, dtype=np.int64), True)


# ---------------------------------------------------------------------------
# uniform rooted forests

_WILSON_SLICE = 256  # draws converted to Python ints at a time
_LONG_WALK = 256     # expected first-walk length (m - 1)/t that goes to numpy


def _first_walk(m: int, t: int, gen, chunk: int, draws, pos: int,
                parent: list, in_forest: bytearray):
    """Run the first loop-erased walk of a forest, from vertex t, in numpy.

    Reads the draws the scalar walk would read, from ``draws[pos]`` on,
    and draws the next chunk at the moment the scalar walk would. Only the
    loop-erased path gets its ``parent`` and ``in_forest`` entries; an
    erased vertex is rewritten by the later walk that attaches it.
    Returns the chunk being read and the position of its next unread draw.
    """
    # until the forest grows, a step from u >= t lands on a root exactly
    # when its raw draw is below t
    pieces = []
    while True:
        if pos == chunk:
            draws = gen.integers(0, m - 1, size=chunk)
            pos = 0
        hit = draws[pos:] < t
        k = int(hit.argmax())
        if hit[k]:
            pieces.append(draws[pos:pos + k + 1])
            pos += k + 1
            break
        pieces.append(draws[pos:])
        pos = chunk
    r = np.concatenate(pieces)
    # step k goes to x_k = r_k + (r_k >= x_{k-1}), x_{-1} = t. Since x_{k-1}
    # is r_{k-1} or r_{k-1} + 1, comparing with r_{k-1} differs only where
    # r_k == r_{k-1}; those steps are fixed in order
    x = r + (r >= np.concatenate(([t], r[:-1])))
    for k in np.flatnonzero(r[1:] == r[:-1]).tolist():
        x[k + 1] = r[k + 1] + (r[k + 1] >= x[k])
    # the step taken from a vertex for the last time is its loop-erased
    # successor
    last = np.zeros(m, dtype=np.int64)
    np.maximum.at(last, np.concatenate(([t], x[:-1])), np.arange(x.size))
    u = t
    while u >= t:
        v = x.item(last.item(u))
        parent[u] = v
        in_forest[u] = 1
        u = v
    return draws, pos


def _iter_wilson_parents(m: int, t: int, gen, count: int):
    """Yield ``count`` parent lists of uniform (m, t)-forests from loop-erased
    walks.

    The walk from each unattached vertex steps to a uniform other vertex
    and is absorbed on hitting the growing forest; overwriting the
    successor pointer performs the loop erasure. One draw buffer is shared
    across all yielded samples, so bulk consumers pay no per-sample numpy
    overhead. The buffer is drawn whole, ``chunk`` values at a time, when
    the walk first needs a value past its end, and it is converted to
    Python ints one ``_WILSON_SLICE`` at a time as the walk reaches them:
    a single forest reads only part of its chunk. When the first walk is
    expected to take at least ``_LONG_WALK`` steps, ``_first_walk`` runs it
    in numpy on the same draws.
    """
    chunk = min(1 << 15, max(64, 4 * m))  # fixes the draw sequence
    hi = m - 1
    # int(): m and t may be narrow numpy integers, and 256 t would overflow
    long_first = int(hi) >= _LONG_WALK * int(t)
    draws = None
    nxt = chunk                     # where the next slice of draws starts
    buf: list = []                  # the slice being read, as Python ints
    ptr = end = 0
    for _ in range(count):
        parent = [-1] * m
        in_forest = bytearray([1]) * t + bytearray(m - t)
        if long_first:
            draws, nxt = _first_walk(m, t, gen, chunk, draws,
                                     nxt - (end - ptr), parent, in_forest)
            ptr = end = 0
        for i in range(t, m):
            u = i
            while not in_forest[u]:
                if ptr == end:
                    if nxt == chunk:
                        draws = gen.integers(0, hi, size=chunk)
                        nxt = 0
                    buf = draws[nxt:nxt + _WILSON_SLICE].tolist()
                    ptr, end = 0, len(buf)
                    nxt += end
                x = buf[ptr]
                ptr += 1
                if x >= u:
                    x += 1
                parent[u] = x
                u = x
            u = i
            while not in_forest[u]:
                in_forest[u] = 1
                u = parent[u]
        yield parent


def sample_uniform_forest(m: int, t: int, rng=None) -> RootedForest:
    """Uniform forest on m vertices with roots exactly 0..t-1.

    Contracting the root set turns the complete graph into a multigraph
    whose uniform spanning trees correspond one-to-one to these forests, so
    running loop-erased walks absorbed at the root set samples uniformly
    from all t * m^(m-t-1) of them.
    """
    _check_roots(m, t)
    gen = as_generator(rng)
    parent = next(_iter_wilson_parents(m, t, gen, count=1))
    return RootedForest(m=m, t=t, parent=np.array(parent, dtype=np.int64))


def _log_forest_count(m: int, t: int) -> float:
    """log of the number of forests on [m] with root set of size t."""
    return math.log(t) + (m - t - 1) * math.log(m)


class RootTreeSizeSampler:
    """Exact sampler of |T_root| for a uniform forest with parameters (m, t).

    The probability of size k factorises through the forest-count formula:
    choose the k-1 companions, a tree on them, and an arbitrary forest on
    the rest. The cumulative table is cached and extended lazily, so after
    warm-up a draw is a binary search.
    """

    def __init__(self, m: int, t: int):
        _check_roots(m, t)
        self.m = m
        self.t = t
        if t == 1:
            self._cdf = None  # degenerate: the single tree spans everything
        else:
            self._cdf = [0.0]
            self._log_denom = _log_forest_count(m, t)
            self._lg_mt1 = math.lgamma(m - t + 1)

    def _log_pmf(self, k: int) -> float:
        m, t = self.m, self.t
        return (self._lg_mt1 - math.lgamma(k) - math.lgamma(m - t - k + 2)
                + (k - 2) * math.log(k)
                + _log_forest_count(m - k, t - 1) - self._log_denom)

    def _extend_to(self, target_mass: float) -> None:
        kmax = self.m - self.t + 1
        while self._cdf[-1] < target_mass and len(self._cdf) <= kmax:
            k = len(self._cdf)
            self._cdf.append(self._cdf[-1] + math.exp(self._log_pmf(k)))

    def sample(self, gen) -> int:
        if self._cdf is None:
            return self.m
        u = float(gen.random())
        self._extend_to(u)
        k = bisect.bisect_left(self._cdf, u)
        return min(max(k, 1), self.m - self.t + 1)


# ---------------------------------------------------------------------------
# branching process

def survival_probability(d: float) -> float:
    """Survival probability of a Poisson(d) branching process.

    Returns the unique positive root of 1 - g = exp(-g d) for d > 1 (to
    absolute error <= 1e-10) and 0 for d <= 1. Bisection brackets the root
    away from the repelling trivial root g = 0 before Newton polishing.
    """
    if d < 0:
        raise ValueError("need d >= 0")
    if d <= 1.0:
        return 0.0

    def f(x):
        return 1.0 - x - math.exp(-d * x)

    lo = 1e-12
    hi = 1.0 - math.exp(-d) / 2.0
    flo = f(lo)
    for _ in range(200):
        if hi - lo < 1e-13:
            break
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    g = 0.5 * (lo + hi)
    for _ in range(50):
        fg = f(g)
        dg = -1.0 + d * math.exp(-d * g)
        if dg == 0:
            break
        step = fg / dg
        g2 = g - step
        if not (0.0 < g2 < 1.0):
            break
        g = g2
        if abs(step) < 1e-15:
            break
    return g


def expected_colour_fraction(alpha: float, d: float) -> float:
    """Probability that a fixed colour lands on the giant component.

    Evaluates 1 - (1-g)^((1 - g/2)/alpha) with g the survival probability,
    the heuristic for the expected fraction of colours represented there.
    """
    if alpha <= 0:
        raise ValueError("need alpha > 0")
    if d <= 1:
        raise ValueError("need d > 1")
    g = survival_probability(d)
    return 1.0 - (1.0 - g) ** ((1.0 - g / 2.0) / alpha)

"""Monte Carlo harness: seeded, repeatable experiments that benchmark the
samplers and finders against their reference formulas and emit
machine-readable summary rows.

Every repetition draws from its own (seed, repetition) stream, made by
_run_reps, results are aggregated in repetition order, and parallel
execution cannot change any output byte.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import asdict, dataclass, replace
from functools import partial

from .envelopes import ENVELOPES, ENVELOPES_VERSION
from .finders import (NotFoundError, _sprinkle_round, rdfs_longest_path,
                      subcritical_rainbow_tree, supercritical_rainbow_tree)
from .graphs import (EmptyCoreError, children_index, connected_components,
                     subtree_size_below)
from .models import (RngStream, RootTreeSizeSampler, colour_uniform,
                     sample_gnp, sample_uniform_forest, survival_probability)


class InvalidConfigError(ValueError):
    """Experiment parameters violate the experiment's contract."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved parameters of one experiment invocation."""

    name: str
    reps: int
    seed: int
    params: tuple = ()

    def as_dict(self) -> dict:
        d = {"experiment": self.name, "reps": self.reps, "seed": self.seed}
        d.update(dict(self.params))
        d["envelopes_version"] = ENVELOPES_VERSION
        return d


@dataclass(frozen=True)
class SummaryRow:
    params: tuple          # ordered (key, value) pairs
    mean: float
    std: float
    reps: int
    reference: float
    formula: str

    def params_str(self) -> str:
        return ";".join(f"{k}={v}" for k, v in self.params)


@dataclass(frozen=True)
class EnvelopeCheck:
    name: str
    passed: bool
    observed: float
    bound: str


def _row(params, values, reference, formula) -> SummaryRow:
    """The mean and sample std of one value per repetition, as a row."""
    reps = len(values)
    if reps < 1:
        raise InvalidConfigError("need reps >= 1")
    mean = sum(values) / reps
    var = (sum((x - mean) ** 2 for x in values) / (reps - 1)
           if reps > 1 else 0.0)
    return SummaryRow(params=params, mean=mean, std=math.sqrt(var), reps=reps,
                      reference=reference, formula=formula)


def _share_check(name, good, reps, required, what) -> EnvelopeCheck:
    """Passes when ``good`` is at least ENVELOPES[required]/10 of ``reps``."""
    need = ENVELOPES[required]
    return EnvelopeCheck(name=name, passed=good >= need * reps / 10,
                         observed=good, bound=f">= {need}/10 {what}")


def _rep_job(fn, params, seed, rep):
    return fn(*params, RngStream(seed, rep).generator())


def _run_reps(fn, params, reps, seed, threads=1):
    """[fn(*params, gen) for each repetition], in repetition order, where
    repetition i's gen draws from stream (seed, i).

    Runs in at most ``threads`` worker processes, and in no more than there
    are repetitions or cores.
    """
    # the single-stream samplers (min_double_bridge_samples, exp_tree_size_law)
    # keep one generator for every draw: their draw sequences are defined so
    job = partial(_rep_job, fn, params, seed)
    workers = min(threads, reps, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as ex:
            chunk = max(1, reps // (workers * 4))
            return list(ex.map(job, range(reps), chunksize=chunk))
    return [job(i) for i in range(reps)]


# ---------------------------------------------------------------------------
# random-forest statistics

def _rep_bridge(m, t, gen):
    f = sample_uniform_forest(m, t, gen)
    w = int(gen.integers(t, m))
    return subtree_size_below(f, w, children_index(f))


def exp_min_split(m_grid, reps, seed, threads=1):
    """Smaller side of a uniform tree split at a uniform edge; reference sqrt(m)."""
    grid = list(m_grid)
    by_m = {}
    for m in grid:
        if m < 2:
            raise InvalidConfigError("min-split needs m >= 2")
        if m in by_m:
            continue
        # a one-root forest is a uniform tree, and the bridge number is the
        # side below the uniform edge
        vals = [min(b, m - b)
                for b in _run_reps(_rep_bridge, (m, 1), reps, seed, threads)]
        by_m[m] = _row((("m", m),), vals, math.sqrt(m), "sqrt(m)")
    rows, checks = [by_m[m] for m in grid], []
    lo, hi = ENVELOPES["min_split_ratio"]
    for a, b in zip(grid, grid[1:]):
        if b == 4 * a:
            ratio = by_m[b].mean / by_m[a].mean
            checks.append(EnvelopeCheck(
                name=f"min_split_ratio_m{a}_to_m{b}",
                passed=lo <= ratio <= hi, observed=ratio,
                bound=f"[{lo}, {hi}]"))
    if 4 in grid:
        from .oracles import exact_min_deleted_component_expectation
        exact = exact_min_deleted_component_expectation(4)
        row = by_m[4]
        tol = ENVELOPES["min_split_oracle_sigmas"] * row.std / math.sqrt(reps)
        checks.append(EnvelopeCheck(
            name="min_split_m4_oracle", passed=abs(row.mean - exact) <= tol,
            observed=row.mean, bound=f"{exact} +- {tol:.6f}"))
    return rows, checks


def exp_bridge_number(m, t, reps, seed, threads=1):
    """Mean bridge number of a uniform forest edge, one-sided against m/(t+1)."""
    if m - t < 1:
        raise InvalidConfigError("needs at least one edge (m > t)")
    vals = _run_reps(_rep_bridge, (m, t), reps, seed, threads)
    ref = m / (t + 1)
    row = _row((("m", m), ("t", t)), vals, ref, "m/(t+1)")
    slack = ENVELOPES["bridge_slack"]
    checks = [EnvelopeCheck(name=f"bridge_mean_m{m}_t{t}",
                            passed=row.mean <= slack * ref, observed=row.mean,
                            bound=f"<= {slack}*{ref:.6f}")]
    return [row], checks


class _PairSizeSampler:
    """Sizes of the two designated root trees of a uniform (m, t+2)-forest,
    then the attachment construction that turns them into the joint law of
    the two bridge numbers of a uniform distinct edge pair in (m, t).
    """

    def __init__(self, m, t):
        self.m = m
        self.t = t
        self.first = RootTreeSizeSampler(m, t + 2)
        self.rest: dict[int, RootTreeSizeSampler] = {}

    def draw(self, gen) -> int:
        m = self.m
        while True:
            a = self.first.sample(gen)
            sampler = self.rest.get(m - a)
            if sampler is None:
                sampler = RootTreeSizeSampler(m - a, self.t + 1)
                self.rest[m - a] = sampler
            b = sampler.sample(gen)
            # the region of each uniform: 0 in the first tree, 1 in the
            # second, 2 elsewhere
            ends = tuple(0 if z < a / m else 1 if z < (a + b) / m else 2
                         for z in (float(gen.random()), float(gen.random())))
            if ends == (1, 2):
                return a
            if ends == (2, 0):
                return b
            if ends == (2, 2):
                return min(a, b)
            # any other pair of added edges would not leave a rooted forest


def min_double_bridge_samples(m, t, reps, seed, stream=0):
    """Monte Carlo draws of min of the two bridge numbers of distinct edges."""
    if m - t < 2:
        raise InvalidConfigError("needs at least two edges (m - t >= 2)")
    gen = RngStream(seed, stream).generator()
    sampler = _PairSizeSampler(m, t)
    return [sampler.draw(gen) for _ in range(reps)]


DOUBLE_BRIDGE_M_FACTOR = 100


def exp_min_double_bridge(t_grid, reps, seed):
    """Normalised mean of the smaller bridge number of an edge pair, per t."""
    rows, checks = [], []
    normalised = []
    for idx, t in enumerate(t_grid):
        m = DOUBLE_BRIDGE_M_FACTOR * t
        vals = min_double_bridge_samples(m, t, reps, seed, stream=idx)
        rows.append(_row((("m", m), ("t", t)), vals, m / t, "m/t"))
        normalised.append(rows[-1].mean * t / m)
    for i in range(len(normalised) - 1):
        checks.append(EnvelopeCheck(
            name=f"double_bridge_decreasing_t{t_grid[i]}_t{t_grid[i+1]}",
            passed=normalised[i + 1] < normalised[i],
            observed=normalised[i + 1],
            bound=f"< {normalised[i]:.6f}"))
    return rows, checks


def exp_tree_size_law(m, t, reps, seed):
    """Empirical root-tree-size pmf at k = 1..5 against the Borel point masses."""
    from .oracles import borel_pmf
    if reps < 1:
        raise InvalidConfigError("need reps >= 1")
    gen = RngStream(seed, 0).generator()
    sampler = RootTreeSizeSampler(m, t)
    counts = Counter(sampler.sample(gen) for _ in range(reps))
    rows, checks = [], []
    tol = ENVELOPES["borel_tol"]
    for k in range(1, 6):
        emp = counts[k] / reps
        ref = borel_pmf(k)
        rows.append(SummaryRow(params=(("m", m), ("t", t), ("k", k)),
                               mean=emp, std=math.sqrt(emp * (1 - emp) / reps),
                               reps=reps, reference=ref,
                               formula="exp(-k) k^(k-1)/k!"))
        checks.append(EnvelopeCheck(name=f"borel_k{k}",
                                    passed=abs(emp - ref) <= tol,
                                    observed=emp, bound=f"{ref:.6f} +- {tol}"))
    return rows, checks


# ---------------------------------------------------------------------------
# phase transition and giant benchmarks

def _rep_phase_sub(n, c, eps, gen):
    g = colour_uniform(sample_gnp(n, (1.0 - eps) / n, gen), c, gen)
    # the finder asserts a tree, so its order is its edge count plus one; an
    # empty tree counts as one vertex
    return subcritical_rainbow_tree(g).size + 1


def _rep_phase_super(n, c, eps, gen):
    g = colour_uniform(sample_gnp(n, (1.0 + eps) / n, gen), c, gen)
    part = connected_components(g)
    try:
        _, report = supercritical_rainbow_tree(g)
        order = report.final_tree_order
    except EmptyCoreError:
        order = 0  # no core at this size; counted as a miss
    return order, int(part.sizes_desc[0])


def exp_phase_transition(n, c, eps_grid, reps, seed, threads=1):
    """Rainbow tree order on both sides of the phase transition.

    Negative epsilons run the subcritical duplicate-deletion finder against
    (2/eps^2) ln(eps^3 n); positive ones run the supercritical pipeline
    against 2 eps n, plus an uncoloured largest-component benchmark. eps^3 n
    is recorded with every row because the finite-size deviation from the
    asymptotic reference grows as it shrinks.
    """
    rows, checks = [], []
    for eps in eps_grid:
        if eps == 0:
            raise InvalidConfigError("eps must be nonzero")
        a = abs(eps)
        eps3n = a ** 3 * n
        params = (("n", n), ("c", c), ("eps", eps), ("eps3n", eps3n))
        if eps < 0:
            ref = (2.0 / a ** 2) * math.log(eps3n)
            orders = _run_reps(_rep_phase_sub, (n, c, a), reps, seed, threads)
            rows.append(_row(params, orders, ref, "(2/eps^2) ln(eps^3 n)"))
            lo, hi = ENVELOPES["phase_sub_ratio"]
            checks.append(_share_check(
                f"phase_sub_eps{eps}",
                sum(1 for o in orders if lo <= o / ref <= hi), reps,
                "phase_sub_required", f"of ratios in [{lo}, {hi}]"))
        else:
            ref = 2.0 * a * n
            out = _run_reps(_rep_phase_super, (n, c, a), reps, seed, threads)
            orders = [o for o, _ in out]
            rows.append(_row(params, orders, ref, "2 eps n"))
            frac = ENVELOPES["phase_super_frac"]
            checks.append(_share_check(
                f"phase_super_eps{eps}",
                sum(1 for o in orders if o >= frac * ref), reps,
                "phase_super_required", f"of orders >= {frac}*{ref}"))
            # the giant orders are integers: scaling their mean and std by
            # 1/n is not the same to the last bit as averaging L1/n
            l1 = _row(params[:3] + (("benchmark", "L1"),),
                      [size for _, size in out], 2.0 * a, "(2 eps + O(eps^2))")
            l1 = replace(l1, mean=l1.mean / n, std=l1.std / n)
            rows.append(l1)
            rel = ENVELOPES["phase_benchmark_rel"]
            checks.append(EnvelopeCheck(
                name=f"phase_benchmark_eps{eps}",
                passed=abs(l1.mean - 2.0 * a) <= rel * 2.0 * a,
                observed=l1.mean, bound=f"2 eps +- {rel:.0%}"))
    return rows, checks


def _rep_giant(n, d, gen):
    g = sample_gnp(n, d / n, gen)
    part = connected_components(g)
    return int(part.sizes_desc[0]) / n


def exp_giant_benchmark(n, d, reps, seed, threads=1):
    """Largest-component fraction against the survival probability gamma(d)."""
    fracs = _run_reps(_rep_giant, (n, d), reps, seed, threads)
    ref = survival_probability(d)
    row = _row((("n", n), ("d", d)), fracs, ref, "gamma(d)")
    if d > 1:
        tol = ENVELOPES["giant_tol"]
        passed, bound = abs(row.mean - ref) <= tol, f"{ref:.6f} +- {tol}"
    else:
        passed, bound = row.mean < 0.01, "< 0.01"
    return [row], [EnvelopeCheck(name=f"giant_fraction_d{d}", passed=passed,
                                 observed=row.mean, bound=bound)]


# ---------------------------------------------------------------------------
# path + sprinkle cycle pipeline

def _rep_cycle(n, c, d, delta, gen):
    p1 = (d - 1.0) / n
    g1 = colour_uniform(sample_gnp(n, p1, gen), c, gen)
    # the cycle argument applies the path search with half the slack; its
    # query bound only covers d-1 >= 16/(delta/2)^3, so below that regime
    # the path stage simply runs until it reaches its target
    trace = rdfs_longest_path(g1, mode="faithful", delta=delta / 2.0,
                              query_budget=n * min(n, c))
    try:
        return len(_sprinkle_round(g1, trace.path, p1, d / n, delta, gen))
    except NotFoundError:
        return 0


def exp_cycle(n, c, d, delta, reps, seed, threads=1):
    """Success rate and length of the RDFS + sprinkle rainbow-cycle pipeline."""
    if not (0.0 < delta < 1.0):
        raise InvalidConfigError("need 0 < delta < 1")
    if d / n > 1.0:
        raise InvalidConfigError("d/n exceeds 1")
    lengths = _run_reps(_rep_cycle, (n, c, d, delta), reps, seed, threads)
    target = (1.0 - delta) * min(n, c)
    successes = sum(1 for ln in lengths if ln >= target)
    params = (("n", n), ("c", c), ("d", d), ("delta", delta))
    rows = [
        _row(params, lengths, target, "(1-delta) min(n,c)"),
        SummaryRow(params=params + (("stat", "success_rate"),),
                   mean=successes / reps, std=0.0, reps=reps,
                   reference=ENVELOPES["cycle_required"] / 10.0,
                   formula="success fraction"),
    ]
    checks = [_share_check(f"cycle_d{d}_delta{delta}", successes, reps,
                           "cycle_required",
                           f"cycles of length >= {target:.0f}")]
    return rows, checks


# ---------------------------------------------------------------------------
# output

def write_csv(path, suites) -> None:
    """One CSV for a list of (config, rows, checks) suites: every JSON
    provenance header, the column line, every row, then every check;
    byte-stable across reruns."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for config, _, _ in suites:
            fh.write("# " + json.dumps(config.as_dict(), sort_keys=True) + "\n")
        fh.write("experiment,params,mean,std,reps,reference,formula\n")
        for config, rows, _ in suites:
            for row in rows:
                fh.write(",".join([
                    config.name,
                    row.params_str(),
                    repr(float(row.mean)),
                    repr(float(row.std)),
                    str(row.reps),
                    repr(float(row.reference)),
                    row.formula.replace(",", ";"),
                ]) + "\n")
        for _, _, checks in suites:
            for chk in checks:
                fh.write(f"# check {chk.name} "
                         f"{'PASS' if chk.passed else 'FAIL'} "
                         f"observed={chk.observed} bound={chk.bound}\n")


def raw_records(suites) -> str:
    """JSON mirror of a list of (config, rows, checks) suites: the object
    {config, rows, checks} for one suite, a list of them for several."""
    blobs = [{"config": config.as_dict(),
              "rows": [{**asdict(r), "params": dict(r.params)} for r in rows],
              "checks": [asdict(ch) for ch in checks]}
             for config, rows, checks in suites]
    return json.dumps(blobs[0] if len(blobs) == 1 else blobs,
                      sort_keys=True, indent=2)

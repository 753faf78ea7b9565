"""Batch command line: generate coloured graphs, run rainbow finders, and
drive the experiment suites.

Exit codes: 0 on success, 2 when a finder reports a structural miss
(empty core, no qualifying sprinkle edge) or an envelope check fails,
64 on usage errors: bad flags, parameters a sampler, finder or suite
refuses, unreadable input or unwritable output. Every command does its
work and writes its files before it prints: it then echoes its fully
resolved configuration, so a refused run leaves stdout empty. Rerunning
with identical flags reproduces output files byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import experiments as exps
from .experiments import ExperimentConfig, raw_records, write_csv
from .finders import (NotFoundError, find_rainbow_cycle_weakly_super,
                      rbfs_forest, rdfs_longest_path, subcritical_rainbow_tree,
                      supercritical_rainbow_tree)
from .graphs import (EmptyCoreError, connected_components, forest_to_line,
                     read_edgelist, write_edgelist)
from .models import (DegreeSequence, RngStream, colour_uniform,
                     sample_configuration, sample_gnp, sample_uniform_forest)

EXIT_OK = 0
EXIT_STRUCTURAL = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        _usage_error(message)


def _default_seed() -> int:
    env = os.environ.get("RAINBOW_SEED")
    return int(env) if env else 0


def _usage_error(message: str):
    sys.stderr.write(f"error: {message}\n")
    sys.exit(EXIT_USAGE)


def _resolve_p(args) -> float:
    """The flags' edge probability; sample_gnp refuses one outside [0, 1]."""
    if args.p is not None:
        return args.p
    if args.eps is None and args.d is None:
        _usage_error("one of --p, --eps, --d is required")
    if args.n is None or args.n < 1:
        _usage_error("--eps and --d need --n of at least 1")
    if args.eps is not None:
        return (1.0 + args.eps) / args.n
    return args.d / args.n


def _add_generator_flags(sub):
    sub.add_argument("--n", type=_int_at_least(0), default=None,
                     help="vertex count")
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--p", type=float, default=None, help="edge probability")
    group.add_argument("--eps", type=float, default=None,
                       help="edge probability (1+eps)/n; find's faithful "
                            "rbfs also reads it as its growth margin")
    group.add_argument("--d", type=float, default=None, help="edge probability d/n")
    sub.add_argument("--c", type=_int_at_least(0), default=None,
                     help="colour count")
    sub.add_argument("--seed", type=int, default=None,
                     help="master seed (falls back to RAINBOW_SEED, then 0)")


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _refuse_unread(args, names, command: str) -> None:
    """Usage error naming every flag in ``names`` given to ``command``,
    which would ignore it."""
    given = [f"--{name}" for name in names if getattr(args, name) is not None]
    if given:
        _usage_error(f"{command} does not read {', '.join(given)}")


def _echo(config: dict) -> None:
    print("config " + json.dumps(config, sort_keys=True))


# the flags each gen --model ignores
_GEN_UNREAD = {"gnp": ("m", "t", "degrees"),
               "config": ("n", "p", "eps", "d", "m", "t"),
               "forest": ("n", "p", "eps", "d", "c", "degrees")}


def cmd_gen(args) -> int:
    _refuse_unread(args, _GEN_UNREAD[args.model], f"gen --model {args.model}")
    rng = RngStream(args.seed, 0).generator()
    if args.model == "forest":
        if args.m is None or args.t is None:
            _usage_error("gen --model forest requires --m and --t")
        f = sample_uniform_forest(args.m, args.t, rng)
        with open(args.out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(forest_to_line(f) + "\n")
        _echo({"command": "gen", "model": "forest", "m": args.m, "t": args.t,
               "seed": args.seed, "out": args.out})
        print(f"m={f.m} t={f.t} edges={f.m - f.t}")
        return EXIT_OK
    if args.model == "config":
        if not args.degrees:
            _usage_error("gen --model config requires --degrees")
        try:
            degs = [int(x) for x in args.degrees.split(",")]
            seq = DegreeSequence(degs)
        except (ValueError, OverflowError) as exc:
            _usage_error(f"--degrees {args.degrees!r}: {exc}")
        config = {"command": "gen", "model": "config", "degrees": degs,
                  "c": args.c, "seed": args.seed, "out": args.out}
        g = sample_configuration(seq, rng)
    else:
        if args.n is None or args.c is None or (args.p is None and args.eps is None and args.d is None):
            _usage_error("gen requires --n, --c and one of --p/--eps/--d")
        p = _resolve_p(args)
        config = {"command": "gen", "n": args.n, "p": p, "c": args.c,
                  "seed": args.seed, "out": args.out}
        g = sample_gnp(args.n, p, rng)
    if args.c:                      # None (config only) or a count >= 0
        g = colour_uniform(g, args.c, rng)
    write_edgelist(g, args.out)
    part = connected_components(g)
    _echo(config)
    print(f"n={g.n} edges={g.m} components={np.count_nonzero(part.sizes)}")
    return EXIT_OK


# the flags rdfs and rbfs alone read, each with the value it falls back to
_EXPLORER_DEFAULTS = {"delta": 0.1, "mode": "greedy"}
# what a faithful explorer reads beside its graph and --mode; a greedy one
# reads only --mode, and sub, super and cycle read none of these flags
_FAITHFUL_READS = {"rdfs": ("delta", "budget"), "rbfs": ("delta", "alpha", "eps")}


def cmd_find(args) -> int:
    command = f"find --finder {args.finder}"
    explorer = args.finder in _FAITHFUL_READS
    unread = []
    if args.finder == "cycle":
        unread = ["input"]
    elif args.input is not None:
        command += " --input"
        unread = ["n", "c", "p", "d", "eps"]
    reads = ["mode"] if explorer else []
    if explorer and (args.mode or _EXPLORER_DEFAULTS["mode"]) == "faithful":
        reads += _FAITHFUL_READS[args.finder]
    unread = [name for name in unread + ["budget", "alpha", "delta", "mode"]
              if name not in reads]
    _refuse_unread(args, unread, command)
    if args.c is not None and args.c < 1:
        _usage_error("find needs --c of at least 1")
    t0 = time.perf_counter()
    if args.finder == "cycle":
        if args.n is None or args.c is None or args.eps is None:
            _usage_error("cycle finder needs --n, --c, --eps")
    elif args.input is not None:
        try:
            g = read_edgelist(args.input)
        except (OSError, ValueError) as exc:
            _usage_error(f"cannot read edge list {args.input}: {exc}")
        if g.c < 1:
            _usage_error(f"edge list {args.input} is uncoloured (c = 0)")
    elif args.n is None or args.c is None:
        _usage_error("find requires --input or generator flags")
    else:
        gen = RngStream(args.seed, 0).generator()
        g = colour_uniform(sample_gnp(args.n, _resolve_p(args), gen), args.c, gen)
    for name, default in _EXPLORER_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    config = {"command": "find", "finder": args.finder, "seed": args.seed,
              "input": args.input, "n": args.n, "c": args.c,
              "delta": args.delta, "alpha": args.alpha, "eps": args.eps,
              "mode": args.mode, "budget": args.budget}
    record = {"finder": args.finder, "seed": args.seed,
              "params": {k: v for k, v in config.items()
                         if k not in ("command",) and v is not None}}
    try:
        if args.finder == "cycle":
            cycle = find_rainbow_cycle_weakly_super(args.n, args.c, args.eps,
                                                    RngStream(args.seed, 0))
            record.update(length=len(cycle), edges=[list(e) for e in cycle])
        elif args.finder == "sub":
            # the finder asserts a tree; an empty one is a single vertex
            tree = subcritical_rainbow_tree(g)
            record.update(order=tree.size + 1 if g.n else 0,
                          edges=sorted(int(e) for e in tree))
        elif args.finder == "super":
            tree, report = supercritical_rainbow_tree(g)
            record.update(order=report.final_tree_order,
                          report=report.as_dict(),
                          edges=sorted(int(e) for e in tree))
        elif args.finder == "rdfs":
            trace = rdfs_longest_path(g, mode=args.mode, delta=args.delta,
                                      query_budget=args.budget)
            record.update(length=trace.length, path=trace.path)
        else:  # rbfs: argparse's choices refuse any other finder
            trace = rbfs_forest(g, delta=args.delta, alpha=args.alpha,
                                mode=args.mode, eps=args.eps,
                                rng=RngStream(args.seed, 1))
            record.update(order=trace.order,
                          edges=sorted(int(e) for e in trace.tree_edges))
        if explorer:
            record.update(queries=trace.queries, accepted=trace.accepted,
                          stop_reason=trace.stop_reason)
    except (EmptyCoreError, NotFoundError) as exc:
        _echo(config)
        sys.stderr.write(f"{type(exc).__name__.removesuffix('Error')}: {exc}\n")
        return EXIT_STRUCTURAL
    wall_ms = (time.perf_counter() - t0) * 1000.0
    if args.out:
        # the file copy omits the volatile timing field so reruns are byte-identical
        with open(args.out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    _echo(config)
    record["wall_time_ms"] = wall_ms
    print(json.dumps(record, sort_keys=True))
    return EXIT_OK


# each suite's default --n; None marks a fixed problem grid, which --n does
# not size
_SUITES = {"min-split": None, "bridge": None, "double-bridge": None,
           "borel": 10 ** 5, "phase": 10 ** 6, "giant": 10 ** 5,
           "cycle": 10 ** 5}


def _run_suite(name, reps, seed, threads, n):
    """Returns (config, rows, checks) for one named suite of size ``n``."""
    if name == "min-split":
        run, kw = exps.exp_min_split, {"m_grid": (4, 100, 400, 1600)}
    elif name == "bridge":
        run, kw = exps.exp_bridge_number, {"m": 1000, "t": 50}
    elif name == "double-bridge":
        run, kw = exps.exp_min_double_bridge, {"t_grid": (10, 100, 1000)}
    elif name == "borel":
        run, kw = exps.exp_tree_size_law, {"m": n, "t": max(n // 100, 2)}
    elif name == "phase":
        run, kw = exps.exp_phase_transition, {"n": n, "c": n,
                                              "eps_grid": (-0.05, 0.05)}
    elif name == "giant":
        run, kw = exps.exp_giant_benchmark, {"n": n, "d": 2.0}
    else:  # cycle: argparse's choices refuse any other suite
        run, kw = exps.exp_cycle, {"n": n, "c": n, "d": 129.0, "delta": 0.5}
    # double-bridge and borel draw from one stream, so take no threads
    pool = {} if name in ("double-bridge", "borel") else {"threads": threads}
    rows, checks = run(**kw, reps=reps, seed=seed, **pool)
    params = tuple((k, "/".join(map(str, v)) if isinstance(v, tuple) else v)
                   for k, v in kw.items())
    if name == "double-bridge":
        params += (("m_factor", exps.DOUBLE_BRIDGE_M_FACTOR),)
    config = ExperimentConfig(name=name, reps=reps, seed=seed, params=params)
    return config, rows, checks


def cmd_experiment(args) -> int:
    if args.suite == "all":
        names = list(_SUITES)
    elif args.n is not None and _SUITES[args.suite] is None:
        _usage_error(f"--n does not apply to suite {args.suite!r}")
    else:
        names = [args.suite]
    outputs = [_run_suite(name, args.reps, args.seed, args.threads,
                          _SUITES[name] if args.n is None else args.n)
               for name in names]
    if args.out:
        write_csv(args.out, outputs)
        if args.raw:
            with open(args.out + ".json", "w", encoding="ascii",
                      newline="\n") as fh:
                fh.write(raw_records(outputs) + "\n")
    for config, _, checks in outputs:
        _echo(config.as_dict())
        for chk in checks:
            status = "PASS" if chk.passed else "FAIL"
            print(f"check {chk.name}: {status} (observed {chk.observed}, "
                  f"bound {chk.bound})")
    all_ok = all(chk.passed for _, _, checks in outputs for chk in checks)
    return EXIT_OK if all_ok else EXIT_STRUCTURAL


def build_parser() -> _Parser:
    parser = _Parser(prog="rainbowsim",
                     description="Random coloured graphs: samplers, rainbow "
                                 "finders and Monte Carlo experiment suites.")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="sample a coloured graph to an edge list",
                          formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    gen.add_argument("--model", choices=("gnp", "config", "forest"),
                     default="gnp", help="which sampler to run")
    _add_generator_flags(gen)
    gen.add_argument("--m", type=int, default=None,
                     help="forest vertex count (forest model)")
    gen.add_argument("--t", type=int, default=None,
                     help="forest root count (forest model)")
    gen.add_argument("--degrees", default=None,
                     help="comma-separated degree sequence (config model)")
    gen.add_argument("--out", required=True, help="output file")
    gen.set_defaults(func=cmd_gen)

    find = subs.add_parser("find", help="run a rainbow finder",
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    find.add_argument("--finder", required=True,
                      choices=("sub", "super", "rdfs", "rbfs", "cycle"))
    find.add_argument("--input", default=None, help="edge-list file to load")
    _add_generator_flags(find)
    find.add_argument("--delta", type=float, default=None,
                      help="exploration slack fraction, faithful rdfs and rbfs "
                           f"only (falls back to {_EXPLORER_DEFAULTS['delta']})")
    find.add_argument("--alpha", type=float, default=None,
                      help="colour ratio c/n (faithful rbfs)")
    find.add_argument("--mode", choices=("faithful", "greedy"), default=None,
                      help="exploration mode, rdfs and rbfs only "
                           f"(falls back to {_EXPLORER_DEFAULTS['mode']})")
    find.add_argument("--budget", type=_int_at_least(0), default=None,
                      help="query budget override (faithful rdfs)")
    find.add_argument("--out", default=None, help="write the JSON record here")
    find.set_defaults(func=cmd_find)

    exp = subs.add_parser("experiment", help="run an experiment suite",
                          formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    exp.add_argument("--suite", required=True, choices=(*_SUITES, "all"),
                     help="which suite to run; all runs every one")
    exp.add_argument("--reps", type=_int_at_least(1), default=10,
                     help="repetitions")
    exp.add_argument("--seed", type=int, default=None,
                     help="master seed (falls back to RAINBOW_SEED, then 0)")
    exp.add_argument("--out", default=None, help="output CSV path")
    exp.add_argument("--raw", action="store_true",
                     help="also write per-run JSON next to the CSV")
    exp.add_argument("--threads", type=_int_at_least(1), default=1,
                     help="worker processes for repetitions")
    sized = [name for name, n in _SUITES.items() if n is not None]
    exp.add_argument("--n", type=_int_at_least(1), default=None,
                     help=f"problem size of the {', '.join(sized[:-1])} and "
                          f"{sized[-1]} suites")
    exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the package's parameter errors all subclass ValueError; hard asserts
    # (AssertionError) are never caught
    try:
        if args.seed is None:
            args.seed = _default_seed()
        return args.func(args)
    except (ValueError, OSError) as exc:
        _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())

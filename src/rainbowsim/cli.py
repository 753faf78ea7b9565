"""Batch command line: generate coloured graphs, run rainbow finders, and
drive the experiment suites.

Exit codes: 0 on success, 2 when a finder reports a structural miss
(empty core, no qualifying sprinkle edge) or an envelope check fails,
64 on usage errors. Every command echoes its fully resolved configuration,
and rerunning with identical flags reproduces output files byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import experiments as exps
from .experiments import (ExperimentConfig, raw_records, raw_suites_records,
                          write_suites_csv)
from .finders import (EmptyCoreError, NotFoundError, find_rainbow_cycle_weakly_super,
                      rbfs_forest, rdfs_longest_path, subcritical_rainbow_tree,
                      supercritical_rainbow_tree)
from .graphs import (connected_components, forest_to_line, read_edgelist,
                     write_edgelist)
from .models import (RngStream, colour_uniform, sample_configuration,
                     sample_gnp, sample_uniform_forest)

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
    if args.p is not None:
        p = args.p
    elif args.eps is None and args.d is None:
        _usage_error("one of --p, --eps, --d is required")
    elif args.n is None or args.n < 1:
        _usage_error("--eps and --d need --n of at least 1")
    elif args.eps is not None:
        p = (1.0 + args.eps) / args.n
    else:
        p = args.d / args.n
    if not 0.0 <= p <= 1.0:
        _usage_error(f"edge probability {p} is outside [0, 1]")
    return p


def _add_generator_flags(sub, require_c=True):
    sub.add_argument("--n", type=_int_at_least(0), default=None,
                     help="vertex count")
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--p", type=float, default=None, help="edge probability")
    group.add_argument("--eps", type=float, default=None,
                       help="edge probability (1+eps)/n")
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


def _echo(config: dict) -> None:
    print("config " + json.dumps(config, sort_keys=True))


def cmd_gen(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    rng = RngStream(seed, 0).generator()
    if args.model == "forest":
        if args.m is None or args.t is None:
            _usage_error("gen --model forest requires --m and --t")
        _echo({"command": "gen", "model": "forest", "m": args.m, "t": args.t,
               "seed": seed, "out": args.out})
        f = sample_uniform_forest(args.m, args.t, rng)
        with open(args.out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(forest_to_line(f) + "\n")
        print(f"m={f.m} t={f.t} edges={f.m - f.t}")
        return EXIT_OK
    if args.model == "config":
        if not args.degrees:
            _usage_error("gen --model config requires --degrees")
        degs = [int(x) for x in args.degrees.split(",")]
        _echo({"command": "gen", "model": "config", "degrees": degs,
               "c": args.c, "seed": seed, "out": args.out})
        g = sample_configuration(degs, rng)
        if args.c and args.c >= 1:
            g = colour_uniform(g, args.c, rng)
        write_edgelist(g, args.out)
        part = connected_components(g)
        print(f"n={g.n} edges={g.m} components={len(part.sizes_desc)}")
        return EXIT_OK
    if args.n is None or args.c is None or (args.p is None and args.eps is None and args.d is None):
        _usage_error("gen requires --n, --c and one of --p/--eps/--d")
    p = _resolve_p(args)
    config = {"command": "gen", "n": args.n, "p": p, "c": args.c,
              "seed": seed, "out": args.out}
    _echo(config)
    g = sample_gnp(args.n, p, rng)
    if args.c >= 1:
        g = colour_uniform(g, args.c, rng)
    write_edgelist(g, args.out)
    part = connected_components(g)
    print(f"n={g.n} edges={g.m} components={len(part.sizes_desc)}")
    return EXIT_OK


def _load_or_generate(args):
    if args.input:
        try:
            g = read_edgelist(args.input)
        except (OSError, ValueError) as exc:
            _usage_error(f"cannot read edge list {args.input}: {exc}")
        if g.c < 1:
            _usage_error(f"edge list {args.input} is uncoloured (c = 0)")
        return g
    if args.n is None or args.c is None:
        _usage_error("find requires --input or generator flags")
    seed = args.seed if args.seed is not None else _default_seed()
    gen = RngStream(seed, 0).generator()
    g = sample_gnp(args.n, _resolve_p(args), gen)
    return colour_uniform(g, args.c, gen)


def cmd_find(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    config = {"command": "find", "finder": args.finder, "seed": seed,
              "input": args.input, "n": args.n, "c": args.c,
              "delta": args.delta, "alpha": args.alpha, "eps": args.eps,
              "mode": args.mode, "budget": args.budget}
    _echo(config)
    if args.c is not None and args.c < 1:
        _usage_error("find needs --c of at least 1")
    t0 = time.perf_counter()
    record = {"finder": args.finder, "seed": seed,
              "params": {k: v for k, v in config.items()
                         if k not in ("command",) and v is not None}}
    try:
        if args.finder == "cycle":
            if args.n is None or args.c is None or args.eps is None:
                _usage_error("cycle finder needs --n, --c, --eps")
            cycle = find_rainbow_cycle_weakly_super(args.n, args.c, args.eps,
                                                    RngStream(seed, 0))
            record["length"] = len(cycle)
            record["edges"] = [list(e) for e in cycle]
        else:
            g = _load_or_generate(args)
            if args.finder == "sub":
                tree = subcritical_rainbow_tree(g)
                verts = set()
                for e in tree.tolist():
                    verts.add(int(g.u[e]))
                    verts.add(int(g.v[e]))
                record["order"] = max(len(verts), 1 if g.n else 0)
                record["edges"] = sorted(int(e) for e in tree)
            elif args.finder == "super":
                tree, report = supercritical_rainbow_tree(g)
                record["order"] = report.final_tree_order
                record["report"] = report.as_dict()
                record["edges"] = sorted(int(e) for e in tree)
            elif args.finder == "rdfs":
                trace = rdfs_longest_path(g, mode=args.mode, delta=args.delta,
                                          query_budget=args.budget)
                record["length"] = trace.length
                record["queries"] = trace.queries
                record["accepted"] = trace.accepted
                record["stop_reason"] = trace.stop_reason
                record["path"] = trace.path
            elif args.finder == "rbfs":
                trace = rbfs_forest(g, delta=args.delta, alpha=args.alpha,
                                    mode=args.mode, eps=args.eps,
                                    rng=RngStream(seed, 1))
                record["order"] = trace.order
                record["queries"] = trace.queries
                record["accepted"] = trace.accepted
                record["stop_reason"] = trace.stop_reason
                record["edges"] = sorted(int(e) for e in trace.tree_edges)
            else:
                _usage_error(f"unknown finder {args.finder}")
    except EmptyCoreError as exc:
        sys.stderr.write(f"EmptyCore: {exc}\n")
        return EXIT_STRUCTURAL
    except NotFoundError as exc:
        sys.stderr.write(f"NotFound: {exc}\n")
        return EXIT_STRUCTURAL
    wall_ms = (time.perf_counter() - t0) * 1000.0
    if args.out:
        # the file copy omits the volatile timing field so reruns are byte-identical
        with open(args.out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    record["wall_time_ms"] = wall_ms
    print(json.dumps(record, sort_keys=True))
    return EXIT_OK


_SUITES = ("min-split", "bridge", "double-bridge", "borel", "phase", "giant",
           "cycle", "all")


def _run_suite(name, reps, seed, threads, n_override=None):
    """Returns (config, rows, checks) for one named suite."""
    if name == "min-split":
        rows, checks = exps.exp_min_split((4, 100, 400, 1600), reps, seed,
                                          threads=threads)
        params = (("m_grid", "4/100/400/1600"),)
    elif name == "bridge":
        rows, checks = exps.exp_bridge_number(1000, 50, reps, seed,
                                              threads=threads)
        params = (("m", 1000), ("t", 50))
    elif name == "double-bridge":
        rows, checks = exps.exp_min_double_bridge((10, 100, 1000), reps, seed)
        params = (("t_grid", "10/100/1000"), ("m_factor", 100))
    elif name == "borel":
        m = n_override or 10 ** 5
        rows, checks = exps.exp_tree_size_law(m, max(m // 100, 2), reps, seed)
        params = (("m", m), ("t", max(m // 100, 2)))
    elif name == "phase":
        n = n_override or 10 ** 6
        rows, checks = exps.exp_phase_transition(n, n, (-0.05, 0.05), reps,
                                                 seed, threads=threads)
        params = (("n", n), ("c", n), ("eps_grid", "-0.05/0.05"))
    elif name == "giant":
        n = n_override or 10 ** 5
        rows, checks = exps.exp_giant_benchmark(n, 2.0, reps, seed,
                                                threads=threads)
        params = (("n", n), ("d", 2.0))
    elif name == "cycle":
        n = n_override or 10 ** 5
        rows, checks = exps.exp_cycle(n, n, 129.0, 0.5, reps, seed,
                                      threads=threads)
        params = (("n", n), ("c", n), ("d", 129.0), ("delta", 0.5))
    else:
        raise ValueError(name)
    config = ExperimentConfig(name=name, reps=reps, seed=seed, params=params)
    return config, rows, checks


def cmd_experiment(args) -> int:
    if args.suite not in _SUITES:
        _usage_error(f"unknown suite {args.suite!r}; "
                     f"choose from {', '.join(_SUITES)}")
    seed = args.seed if args.seed is not None else _default_seed()
    names = [s for s in _SUITES[:-1]] if args.suite == "all" else [args.suite]
    all_ok = True
    outputs = []
    for name in names:
        config, rows, checks = _run_suite(name, args.reps, seed, args.threads,
                                          n_override=args.n)
        _echo(config.as_dict())
        outputs.append((config, rows, checks))
        for chk in checks:
            status = "PASS" if chk.passed else "FAIL"
            print(f"check {chk.name}: {status} (observed {chk.observed}, "
                  f"bound {chk.bound})")
            all_ok = all_ok and chk.passed
    if args.out:
        write_suites_csv(args.out, outputs)
        if args.raw:
            text = (raw_records(*outputs[0]) if len(outputs) == 1
                    else raw_suites_records(outputs))
            with open(args.out + ".json", "w", encoding="ascii",
                      newline="\n") as fh:
                fh.write(text + "\n")
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
    find.add_argument("--delta", type=float, default=0.1,
                      help="exploration slack fraction")
    find.add_argument("--alpha", type=float, default=None,
                      help="colour ratio c/n (rbfs)")
    find.add_argument("--mode", choices=("faithful", "greedy"),
                      default="greedy", help="exploration mode")
    find.add_argument("--budget", type=int, default=None,
                      help="query budget override (rdfs faithful)")
    find.add_argument("--out", default=None, help="write the JSON record here")
    find.set_defaults(func=cmd_find)

    exp = subs.add_parser("experiment", help="run an experiment suite",
                          formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    exp.add_argument("--suite", required=True,
                     help="one of " + ", ".join(_SUITES))
    exp.add_argument("--reps", type=_int_at_least(1), default=10,
                     help="repetitions")
    exp.add_argument("--seed", type=int, default=None,
                     help="master seed (falls back to RAINBOW_SEED, then 0)")
    exp.add_argument("--out", default=None, help="output CSV path")
    exp.add_argument("--raw", action="store_true",
                     help="also write per-run JSON next to the CSV")
    exp.add_argument("--threads", type=int, default=1,
                     help="worker processes for repetitions")
    exp.add_argument("--n", type=int, default=None,
                     help="override the suite's default problem size")
    exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

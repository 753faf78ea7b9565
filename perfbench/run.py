"""rainbowsim benchmark: run one workload for a fixed time, check every
output, and print its metrics as one JSON line.

    python3 perfbench/run.py --workload cycle --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from ./src, and
BENCHMARK.json names the metrics. With --trace 0 the line holds the
end-to-end metrics; with --trace 1 the per-layer figures of a traced run.
Inputs, trace dumps and results go to perfbench/out/. See README.md.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_ROUNDS = 5
SETUP_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cycle", "phase", "rbfs", "forest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="repetitions start until this much time is measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def timed_setup(args, prefix):
    """Median wall time of set-up rounds, each a fresh interpreter that
    imports the package and generates the inputs."""
    cmd = [sys.executable, os.path.join(HERE, "prepare.py"), args.workload,
           str(args.seed), prefix]
    times = []
    for _ in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run(args, spec, prefix):
    setup_s = None if args.trace else timed_setup(args, prefix)

    # imported only once main() has found the package under src/
    import workloads
    from spans import NullTracer, Tracer

    tr = Tracer() if args.trace else NullTracer()
    wl = workloads.WORKLOADS[args.workload](args.seed, prefix)
    if args.trace:
        with tr.round("setup", "setup"):
            wl.prepare(tr)
    wl.load()

    correct, failed, rep_times = True, 0, []
    i = 0
    while sum(rep_times) < args.seconds:
        t0 = time.perf_counter()
        out = None
        try:
            with tr.round(i):
                out = wl.rep(i, tr)
        except AssertionError:
            # a hard structural assert inside the package fired
            traceback.print_exc()
            correct = False
            failed += 1
        except Exception:
            traceback.print_exc()
            failed += 1
        rep_times.append(time.perf_counter() - t0)
        print(f"repetition {i}: {rep_times[-1]:.4f} s", file=sys.stderr)
        if out is not None:
            if args.trace:
                wl.replay(out, tr)
            problems = wl.check(out)
            if problems:
                print(f"repetition {i}: {sorted(problems)}", file=sys.stderr)
                correct = False
            if i == 0:
                for label, found, want in wl.selftest(out):
                    if want not in found:
                        print(f"self-test: corruption {label!r} not reported as "
                              f"{want!r} (got {sorted(found)})", file=sys.stderr)
                        correct = False
        i += 1

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        metrics = tr.medians(["rep_s"] + names)
        metrics["traced_rep_s"] = metrics.pop("rep_s")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        tr.dump(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"),
                {"workload": args.workload, "seed": args.seed,
                 "seconds": args.seconds, "repetitions": i})
    else:
        metrics = {
            "setup_s": setup_s,
            "rep_s": statistics.median(rep_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return {"correct": correct, "attempted": tr.calls, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rainbowsim", "__init__.py")):
        print(f"error: no rainbowsim package under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    prefix = os.path.join(OUT, f"input-{args.workload}-seed{args.seed}-pid{os.getpid()}")
    try:
        result = run(args, spec, prefix)
    finally:
        for name in os.listdir(OUT):
            if os.path.join(OUT, name).startswith(prefix):
                os.remove(os.path.join(OUT, name))
    line = json.dumps(result)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Steadiness check for the benchmark: runs each workload on several seeds
and reports, per end-to-end metric, the median, the quartiles and the spread
(interquartile distance as a share of the median) against the metric's
bound in BENCHMARK.json.

    python3 perfbench/steady.py --workloads prove,hunt --seeds 10 \
        --out set-a.json
    python3 perfbench/steady.py --compare set-a.json set-b.json

The first form runs `perfbench/run.py` once per (workload, seed), seeds
first..first+n-1, one after another, and writes every run's metrics to
--out, with the unscaled medians each run prints as a comment (reported
beside the scaled metrics, not checked). The second prints two such sets
side by side and checks that the second set's medians are no worse than
the first's by more than each metric's bound.
"""
import argparse
import json
import pathlib
import re
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def unscaled(stdout):
    """The run's unscaled medians, from its '# unscaled medians' comment."""
    for line in stdout.splitlines():
        if line.startswith("# unscaled medians:"):
            return {name: float(value) for name, value in re.findall(
                r"(verdict|cpu|set-up) ([0-9.]+) s", line)}
    return {}


def run_set(args):
    spec = bench_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    runs = {}
    for workload in workloads:
        runs[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds or spec["run_seconds"]),
                 "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                sys.exit(f"{workload} seed {seed} failed: {proc.stdout}")
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs[workload].append({"seed": seed, "metrics": values,
                                   "unscaled": unscaled(proc.stdout)})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v:.6g}" for k, v in values.items()), flush=True)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")
    report(runs, spec)


def report(runs, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload, results in runs.items():
        print(f"\n{workload} ({len(results)} seeds)")
        print(f"  {'metric':20} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}")
        for name, bound in bounds.items():
            s = summary([r["metrics"][name] for r in results])
            flag = "" if s["spread"] <= bound / 3 else \
                " above bound/3" if s["spread"] <= bound else " ABOVE BOUND"
            worst = max(worst, s["spread"] / bound)
            print(f"  {name:20} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['spread']:7.3f} {bound:6.2f}{flag}")
        for name in ("verdict", "cpu", "set-up"):
            values = [r.get("unscaled", {}).get(name) for r in results]
            if None in values:
                continue
            s = summary(values)
            print(f"  {'(unscaled ' + name + ')':20} {s['median']:12.6g} "
                  f"{s['q1']:12.6g} {s['q3']:12.6g} {s['spread']:7.3f}")
    print(f"\nlargest spread / bound: {worst:.2f}")


def compare(paths):
    spec = bench_spec()
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    a, b = (json.loads(pathlib.Path(p).read_text()) for p in paths)
    ok = True
    for workload in a:
        print(f"\n{workload}")
        print(f"  {'metric':20} {'A median':>11} {'A q1':>11} {'A q3':>11}"
              f" {'B median':>11} {'B q1':>11} {'B q3':>11} {'B/A':>6}")
        for name, (bound, better) in bounds.items():
            sa = summary([r["metrics"][name] for r in a[workload]])
            sb = summary([r["metrics"][name] for r in b[workload]])
            ratio = sb["median"] / sa["median"]
            worse = ratio - 1 if better == "lower" else 1 - ratio
            flag = " WORSE THAN BOUND" if worse > bound else ""
            ok = ok and not flag
            print(f"  {name:20} {sa['median']:11.5g} {sa['q1']:11.5g} "
                  f"{sa['q3']:11.5g} {sb['median']:11.5g} {sb['q1']:11.5g} "
                  f"{sb['q3']:11.5g} {ratio:6.3f}{flag}")
    print("\nmedians agree within bounds" if ok else "\nBOUND EXCEEDED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--out", help="write every run's metrics here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        return compare(args.compare)
    run_set(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())

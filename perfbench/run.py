#!/usr/bin/env python3
"""Builds and runs the time-to-verdict benchmark.

    python3 perfbench/run.py --workload <prove|hunt|adversary|scale> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the tpa library
from ../src) into .bench_build/perfbench; later runs only rebuild what
changed. Build output goes to standard error, so the last line of standard
output is the benchmark's JSON result.

--self-test runs every workload briefly twice: once as is, which must
pass, and once with one deliberately wrong expected figure, which must fail
on exactly the job whose expectation was skewed.
"""
import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
WORKDIR = ROOT / ".bench_build" / "work"
BINARY = BUILD / "tpa_perfbench"
WORKLOADS = ("prove", "hunt", "adversary", "scale")


def build():
    """Configures once, then builds incrementally; False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    return subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                          stdout=sys.stderr).returncode == 0


# The failure each workload's skewed expectation must produce: every
# "# FAILED <job>: <reason>" line of a skewed run holds all these parts.
# The adversary's skewed construction is the first of its seeded order.
SKEWED = {
    "prove": ("# FAILED prove bakery-tso-3p: schedules = 5369, "
              "expected 5370",),
    "hunt": ("# FAILED lasso tas-loop-2p: lasso verdict starvation, "
             "expected a livelock lasso",),
    "adversary": ("# FAILED construction ", ": rounds = ", ", expected "),
    "scale": ("# FAILED parallel raw: schedules = 22402, expected 22403",),
}


def run_short(workload, wrong):
    """One 1-second run; returns (exit code, result, '# FAILED' lines)."""
    argv = [str(BINARY), "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", "0", "--workdir", str(WORKDIR)]
    proc = subprocess.run(argv + (["--wrong-expectation"] if wrong else []),
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return proc.returncode, result, [l for l in lines
                                     if l.startswith("# FAILED")]


def self_test():
    """Every workload passes as is and fails on its skewed expectation."""
    ok = True
    for workload in WORKLOADS:
        code, result, reasons = run_short(workload, False)
        control = code == 0 and result.get("correct") is True and not reasons
        print(f"{workload} control: exit {code}, correct={result.get('correct')}"
              f" -> {'passes' if control else 'FAILS'}")
        code, result, reasons = run_short(workload, True)
        skewed = (code != 0 and result.get("correct") is False
                  and result.get("failed", 0) >= 1 and reasons != []
                  and all(part in line for line in reasons
                          for part in SKEWED[workload]))
        print(f"{workload} skewed: exit {code}, correct={result.get('correct')}"
              f", failed={result.get('failed')}"
              f" -> {'fails as intended' if skewed else 'NOT AS INTENDED'}")
        for line in reasons:
            print(f"  {line}")
        ok = ok and control and skewed
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    if not build():
        print("benchmark build failed", file=sys.stderr)
        return 1
    WORKDIR.mkdir(parents=True, exist_ok=True)
    if args.self_test:
        return self_test()
    sys.stdout.flush()
    # Replace this process with the benchmark: nothing is left running
    # beside it, and its exit code is the run's.
    os.execv(str(BINARY), [str(BINARY), "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace),
                           "--workdir", str(WORKDIR)])


if __name__ == "__main__":
    sys.exit(main())

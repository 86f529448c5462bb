#!/usr/bin/env python3
"""Runs the repo benchmark: builds perfbench from source, replays one
workload (or all three), checks the answers, prints every metric with its
unit and sample count, appends a run header and the result to a history
file, and prints the result as one JSON object on the last stdout line.

Usage, from the root of the repository:

  python3 perfbench/run.py --workload broot-udp --seed 1 --seconds 15 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0
  python3 perfbench/run.py --self-test

--trace 0 reports the end-to-end metrics; --trace 1 runs the traced run and
reports the per-layer metrics (see README.md). Build output and results go
under $CARGO_TARGET_DIR (default .bench_build): the CMake tree in
perfbench/, spans and history.jsonl in perfbench-results/.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["broot-udp", "hierarchy-proxy", "broot-tcp"]
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(targets):
    """Configures (once) and builds the optimized perfbench tree; build
    output goes to stderr so stdout stays the result stream."""
    tree = os.path.join(build_root(), "perfbench")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(tree, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", tree,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", tree, "-j", jobs, "--target"] + targets)
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            log("perfbench: build failed:", " ".join(step))
            sys.exit(2)
    return tree


def git_sha():
    # The benchmark may run from an exported tree; never let git climb out
    # of it into an enclosing repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def expected_metrics(trace):
    """Metric names the run must report, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(binary, workload, args, out_dir):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
        sys.exit(2)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"perfbench: {workload} exited {proc.returncode}")
        sys.exit(2)
    return json.loads(lines[-1]), proc.returncode


def header(args, results):
    return {
        "git_sha": git_sha(),
        "build_type": results[0]["build_type"],
        "host_cpus": os.cpu_count(),
        "kernel": platform.release(),
        "seed": args.seed,
        "trace": args.trace,
        "datapath": results[0]["datapath"],
        "loopback": results[0]["loopback"],
        "workloads": [{"name": r["workload"], "rate_qps": r["rate_qps"],
                       "seconds": r["seconds"]} for r in results],
    }


def print_table(result):
    print(f"== {result['workload']} @ {result['rate_qps']:g} q/s for "
          f"{result['seconds']} s, seed {result['seed']}, "
          f"{result['datapath']} over loopback, {result['build_type']} build, "
          f"{result['host_steal_pct']:.1f}% of host CPU stolen")
    for check in result["checks"]:
        status = "ok    " if check["ok"] else "FAILED"
        print(f"  check {status} {check['name']}: {check['detail']}")
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']:9s} "
              f"n={m['samples']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the helper tests only")
    args = parser.parse_args()

    if args.self_test:
        tree = build(["measure_test"])
        sys.exit(subprocess.run([os.path.join(tree, "measure_test")],
                                stdout=sys.stderr).returncode)

    wanted = expected_metrics(args.trace)
    tree = build(["perfbench"])
    out_dir = os.path.join(build_root(), "perfbench-results")
    os.makedirs(out_dir, exist_ok=True)
    binary = os.path.join(tree, "perfbench")

    results, exit_code = [], 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        result, code = run_workload(binary, workload, args, out_dir)
        got = list(result["metrics"])
        if sorted(got) != sorted(wanted):
            log(f"perfbench: {workload} reported {got}, expected {wanted}")
            sys.exit(2)
        print_table(result)
        results.append(result)
        exit_code = max(exit_code, code)

    with open(os.path.join(out_dir, "history.jsonl"), "a") as f:
        f.write(json.dumps({"header": header(args, results),
                            "results": results}) + "\n")

    def metric_key(result, name):
        return name if len(results) == 1 else f"{result['workload']}.{name}"

    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {metric_key(r, name): {"value": m["value"],
                                          "unit": m["unit"]}
                    for r in results for name, m in r["metrics"].items()},
    }), flush=True)
    sys.exit(exit_code)


if __name__ == "__main__":
    main()

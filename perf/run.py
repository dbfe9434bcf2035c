#!/usr/bin/env python3
"""Campaign benchmark front end (see perf/README.md).

Builds perf/ (a CMake project that pulls in the repository), runs each
workload in its own process, prints every metric as
`workload metric value unit`, checks every verdict, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}.

    python3 perf/run.py                          # every workload, untraced
    python3 perf/run.py --workload suite-1t --seed 7 --seconds 10 --trace 0
    python3 perf/run.py --workload suite-mt --trace   # per-layer metrics
    python3 perf/run.py --regen-golden           # rewrite perf/golden/

Exit status: 0 when every campaign matched its reference, 1 on any
mismatch or failed run, 2 on bad usage or an incomplete source tree.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 20250423
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(build_dir, log_path):
    """Configures (once) and builds perf_campaign; returns its path."""
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                           check=True)
        subprocess.run(["cmake", "--build", build_dir, "--target",
                        "perf_campaign", "-j", str(os.cpu_count() or 1)],
                       stdout=log, stderr=subprocess.STDOUT, check=True)
    return os.path.join(build_dir, "perf_campaign")


def run_one(binary, workload, args, golden_dir, out_dir):
    """Runs one workload process; returns its parsed result or None."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden", os.path.join(golden_dir, workload + ".digests"),
           "--out", out_dir]
    if args.smoke:
        cmd.append("--smoke")
    if args.regen_golden:
        cmd.append("--regen-golden")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: timed out after {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{workload}: no result (exit {proc.returncode})",
              file=sys.stderr)
        return None


def check_metrics(workload, result, declared):
    """Every declared metric must be reported, with the declared unit."""
    got = {m["name"]: m for m in result["metrics"]}
    problems = []
    for d in declared:
        m = got.get(d["name"])
        if m is None:
            problems.append(f"{workload}: metric {d['name']} missing")
        elif m["unit"] != d["unit"]:
            problems.append(f"{workload}: metric {d['name']} unit "
                            f"{m['unit']} != declared {d['unit']}")
    return problems


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=names,
                   help="one workload (default: all, each in its own process)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=[0, 1],
                   help="1: traced run reporting the per-layer metrics")
    p.add_argument("--smoke", action="store_true",
                   help="minimal sizes (perf/selftest.sh)")
    p.add_argument("--regen-golden", action="store_true",
                   help="rewrite the golden digests from the serial oracle")
    p.add_argument("--build-dir",
                   help="use the perf_campaign already built here")
    p.add_argument("--golden-dir", default=os.path.join(HERE, "golden"))
    p.add_argument("--out-dir", default=os.path.join(HERE, "out"))
    args = p.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perf/run.py: the repository sources (CMakeLists.txt, src/) "
              "are missing next to perf/", file=sys.stderr)
        return 2
    if args.regen_golden and args.seed != DEFAULT_SEED:
        print("perf/run.py: golden digests are defined at the default seed",
              file=sys.stderr)
        return 2

    os.makedirs(args.out_dir, exist_ok=True)
    if args.build_dir:
        binary = os.path.join(os.path.abspath(args.build_dir),
                              "perf_campaign")
    else:
        log = os.path.join(args.out_dir, "build.log")
        try:
            binary = build(os.path.join(HERE, "build"), log)
        except (subprocess.CalledProcessError, OSError) as e:
            print(f"perf/run.py: build failed ({e}); see {log}",
                  file=sys.stderr)
            return 1
    if args.regen_golden:
        os.makedirs(args.golden_dir, exist_ok=True)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = [args.workload] if args.workload else names
    attempted = failed = 0
    metrics = {}
    problems = []   # found here, not already counted in a run's `failed`
    for w in workloads:
        r = run_one(binary, w, args, args.golden_dir, args.out_dir)
        if r is None:
            return 1
        attempted += r["attempted"]
        failed += r["failed"]
        for e in r["errors"]:
            print(f"FAIL {w}: {e}", file=sys.stderr)
        if not args.regen_golden:
            problems += check_metrics(w, r, declared)
        for m in r["metrics"]:
            n = f" (n={m['samples']})" if m["samples"] else ""
            print(f"{w} {m['name']} {m['value']!r} {m['unit']}{n}")
            if m["name"] not in {d["name"] for d in declared}:
                continue   # printed only (raw_*, host.kernel_ms)
            key = m["name"] if args.workload else f"{w}/{m['name']}"
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
        frac = r["failed"] / r["attempted"] if r["attempted"] else 0.0
        print(f"{w} failed_frac {frac!r} ratio (n={r['attempted']})")
    if attempted == 0 and not args.regen_golden:
        problems.append("no campaign ran")
    for msg in problems:
        print(f"FAIL {msg}", file=sys.stderr)

    correct = failed == 0 and not problems
    # A run-level problem (a missing metric, no campaign at all) fails one
    # attempt on top of the campaigns' own failures.
    attempted = max(attempted, 1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": min(failed + len(problems), attempted),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

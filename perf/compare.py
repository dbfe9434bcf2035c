#!/usr/bin/env python3
"""A/B comparison of two builds of the campaign benchmark (perf/README.md).

    python3 perf/compare.py PARENT_BUILD CHANGE_BUILD \
        [--claim suite-mt:throughput_fcps] [--workload suite-mt ...]

Each build directory holds a perf_campaign built from one commit (see
perf/README.md). For every workload it runs 10 pairs at the default seed
(so the golden digests apply and no oracle prologue runs), alternating
which side runs first. Then, per (end-to-end metric, workload):

* a claimed pair passes when the change wins at least 9/10 of the pairs
  (ties count for neither) and the medians differ by more than the
  parent's interquartile range;
* every other pair must not be worse than the parent's median by more than
  the metric's bound in BENCHMARK.json; where either side's spread
  (IQR / median) exceeds the bound it is `unresolved`, unless every change
  run beats every parent run.

Exit status: 0 when every claim holds and nothing regressed, 1 otherwise.
All runs are kept in perf/out/compare.json.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PAIRS = 10


def run(build, workload):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--build-dir", build,
           "--workload", workload]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    try:
        d = json.loads(p.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    if not d["correct"]:
        return None
    return {k: v["value"] for k, v in d["metrics"].items()}


def iqr(values):
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def better(a, b, direction):
    """True when value a beats value b."""
    return a < b if direction == "lower" else a > b


def judge(metric, parent, change, claimed):
    direction, bound = metric["better"], metric["bound"]
    mp, mc = statistics.median(parent), statistics.median(change)
    if claimed:
        wins = sum(better(c, p, direction) for p, c in zip(parent, change))
        need = math.ceil(0.9 * len(parent))
        ok = (wins >= need and better(mc, mp, direction)
              and abs(mc - mp) > iqr(parent))
        return ok, f"claim {'met' if ok else 'NOT met'} ({wins}/{len(parent)} wins)"
    worse = (mc - mp) / mp if direction == "lower" else (mp - mc) / mp
    spread = max(iqr(parent) / mp, iqr(change) / mc)
    if spread > bound:
        if all(better(c, p, direction) for p in parent for c in change):
            return True, "better (every run)"
        return True, f"unresolved (spread {spread:.3f} > bound {bound})"
    if worse > bound:
        return False, f"REGRESSION ({worse:+.3f} > bound {bound})"
    return True, f"ok ({worse:+.3f} within bound {bound})"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent_build")
    p.add_argument("change_build")
    p.add_argument("--workload", action="append", choices=names,
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--claim", action="append", default=[],
                   help="WORKLOAD:METRIC the change claims to improve")
    args = p.parse_args()
    claims = {tuple(c.split(":", 1)) for c in args.claim}
    workloads = args.workload or names
    builds = {"parent": os.path.abspath(args.parent_build),
              "change": os.path.abspath(args.change_build)}

    runs = {w: {"parent": [], "change": []} for w in workloads}
    for w in workloads:
        for i in range(PAIRS):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                m = run(builds[side], w)
                if m is None:
                    print(f"{w}: {side} run failed or was incorrect")
                    return 1
                runs[w][side].append(m)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "compare.json"), "w") as f:
        json.dump(runs, f, indent=1)

    ok_all = True
    for w in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [r[name] for r in runs[w]["parent"]]
            cv = [r[name] for r in runs[w]["change"]]
            ok, verdict = judge(metric, pv, cv, (w, name) in claims)
            ok_all &= ok
            print(f"{w:16s} {name:16s} parent {statistics.median(pv):<12.6g} "
                  f"change {statistics.median(cv):<12.6g} {verdict}")
    return 0 if ok_all else 1


if __name__ == "__main__":
    sys.exit(main())

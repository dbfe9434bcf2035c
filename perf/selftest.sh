#!/usr/bin/env bash
# Self-test of the campaign benchmark (perf/README.md):
#   1. every workload at --smoke size, untraced and traced, exits 0 and
#      finishes in under 2 s (after the build);
#   2. every metric BENCHMARK.json declares appears in the output, so no
#      metric can silently drop out;
#   3. negative check: one flipped bit in a golden digest must fail the
#      run (failed_frac > 0, non-zero exit).
#
#   $ perf/selftest.sh [--build-dir DIR]
set -euo pipefail
cd "$(dirname "$0")/.."
out=perf/out/selftest
rm -rf "$out"
mkdir -p "$out"
run=(python3 perf/run.py --out-dir "$out" "$@")

# Build (or confirm the build) once, outside the timed runs.
"${run[@]}" --workload thin-epochs --smoke > /dev/null

python3 - "$out" "$@" <<'EOF'
import json, subprocess, sys, time
out, extra = sys.argv[1], sys.argv[2:]
spec = json.load(open("BENCHMARK.json"))
failed = False
for trace, key in ((0, "end_to_end"), (1, "per_layer")):
    for w in (x["name"] for x in spec["workloads"]):
        t = time.monotonic()
        p = subprocess.run(["python3", "perf/run.py", "--out-dir", out,
                            "--workload", w, "--smoke", "--trace", str(trace)]
                           + extra, stdout=subprocess.PIPE, text=True)
        dt = time.monotonic() - t
        lines = p.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        printed = {l.split()[1] for l in lines[:-1] if l.startswith(w + " ")}
        missing = [m["name"] for m in spec[key]
                   if m["name"] not in printed
                   or m["name"] not in result.get("metrics", {})]
        ok = p.returncode == 0 and result.get("correct") and not missing
        ok = ok and dt < 2.0
        print(f"{'ok  ' if ok else 'FAIL'} {w} trace={trace} {dt:.2f} s"
              + (f" missing {missing}" if missing else "")
              + ("" if p.returncode == 0 else f" exit {p.returncode}"))
        failed |= not ok
sys.exit(1 if failed else 0)
EOF

# Negative check: flip the low bit of the first digest's first hex digit.
mkdir -p "$out/golden"
cp perf/golden/*.digests "$out/golden/"
python3 - "$out/golden/suite-1t.digests" <<'EOF'
import sys
path = sys.argv[1]
lines = open(path).read().splitlines(True)
i = next(n for n, l in enumerate(lines) if not l.startswith("#"))
key, digest, rest = lines[i].split(" ", 2)
digest = format(int(digest[0], 16) ^ 1, "x") + digest[1:]
lines[i] = " ".join((key, digest, rest))
open(path, "w").writelines(lines)
EOF
set +e
"${run[@]}" --workload suite-1t --smoke --golden-dir "$out/golden" \
    > "$out/negative.txt" 2> "$out/negative.err"
status=$?
set -e
frac=$(awk '$2 == "failed_frac" { print $3 }' "$out/negative.txt")
if [[ $status -ne 0 ]] && python3 -c "import sys; sys.exit(not float('$frac') > 0)"; then
    echo "ok   negative check: flipped golden bit failed the run" \
         "(exit $status, failed_frac $frac)"
else
    echo "FAIL negative check: flipped golden bit went unnoticed" \
         "(exit $status, failed_frac ${frac:-none})"
    exit 1
fi
echo "selftest passed"

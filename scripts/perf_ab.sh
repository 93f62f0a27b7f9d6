#!/usr/bin/env bash
# Alternating A/B pairs of the benchmark: a parent revision against the
# working tree.
#
#   scripts/perf_ab.sh <parent-rev> <workload> <pairs>
#
# Extracts <parent-rev> with `git archive` into a temporary directory. Each
# run calls its side's own perfbench/run.py, which builds that side into
# its own .bench_build and checks its own perfbench/expected.json digests,
# with --trace 0 and BENCHMARK.json's run_seconds. Pair i runs seed i on
# both sides, the parent first in odd pairs and the change first in even
# ones. Every run's end-to-end metrics are printed as they finish, so a
# bimodal host (slow and fast runs on both sides) shows in the raw values.
# Then, per metric: each side's median and quartiles, the median change,
# and how many pairs the change won. A run that fails, is not correct, or
# fails jobs stops the script.
set -euo pipefail

if [[ $# -ne 3 ]]; then
  echo "usage: $0 <parent-rev> <workload> <pairs>" >&2
  exit 2
fi
REV=$1 WORKLOAD=$2 PAIRS=$3
ROOT=$(cd "$(dirname "$0")/.." && pwd)
RUN_SECONDS=$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "$ROOT/BENCHMARK.json")
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

mkdir "$TMP/parent"
git -C "$ROOT" archive "$REV" | tar -x -C "$TMP/parent"

run() { # <side> <seed>
  local Src=$ROOT
  if [[ $1 == parent ]]; then Src=$TMP/parent; fi
  python3 "$Src/perfbench/run.py" --workload "$WORKLOAD" --seed "$2" \
    --seconds "$RUN_SECONDS" --trace 0 >"$TMP/run.out" 2>"$TMP/run.err" ||
    { cat "$TMP/run.err" >&2; exit 1; }
  tail -n 1 "$TMP/run.out" | python3 -c '
import json, sys
side, pair = sys.argv[1:]
r = json.loads(sys.stdin.read())
if not r["correct"] or r["failed"]:
    sys.exit("%s pair %s: correct=%s failed=%s" % (side, pair, r["correct"], r["failed"]))
print("\t".join([pair, side] +
                ["%s=%.6g" % (k, v["value"]) for k, v in r["metrics"].items()]))
' "$1" "$2" | tee -a "$TMP/runs.tsv"
}

for ((I = 1; I <= PAIRS; ++I)); do
  if ((I % 2)); then run parent "$I"; run change "$I"
  else run change "$I"; run parent "$I"; fi
done

BENCH="$ROOT/BENCHMARK.json" python3 - "$TMP/runs.tsv" <<'EOF'
import json, os, statistics, sys

better = {m["name"]: m["better"]
          for m in json.load(open(os.environ["BENCH"]))["end_to_end"]}
runs = {}  # (metric, side) -> {pair: value}
for line in open(sys.argv[1]):
    pair, side, *kv = line.rstrip("\n").split("\t")
    for item in kv:
        k, v = item.split("=")
        runs.setdefault((k, side), {})[int(pair)] = float(v)

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

def cell(xs):
    q1, q2, q3 = quartiles(sorted(xs))
    return "%12.6g [%6.4g-%6.4g]" % (q2, q1, q3)

print("%-20s %28s %28s %8s %7s" % (
    "metric", "parent median [q1-q3]", "change median [q1-q3]", "change",
    "wins"))
for name, direction in better.items():
    p, c = runs.get((name, "parent")), runs.get((name, "change"))
    if not p or not c:
        continue
    sign = 1 if direction == "higher" else -1
    wins = sum(sign * (c[i] - p[i]) > 0 for i in p if i in c)
    pv, cv = list(p.values()), list(c.values())
    delta = "%8s" % "-"
    if statistics.median(pv):
        delta = "%+7.1f%%" % (
            (statistics.median(cv) / statistics.median(pv) - 1) * 100)
    print("%-20s %s %s %s %7s" % (name, cell(pv), cell(cv), delta,
                                  "%d/%d" % (wins, len(p))))
EOF

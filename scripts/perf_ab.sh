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
#
# The host may run the same binary in a fast or a slow mode. So a fixed
# calibration spin (a dependent-load chase over 4 MiB, built once with
# $CXX or c++) is timed right before and right after each run, and the
# run's spin_ms is their mean. The summary labels every run fast or slow:
# when two neighbouring sorted spin times are 25% or more apart, the runs
# above the widest such gap are slow; otherwise every run is fast. Each
# metric then gets per-mode medians beside the overall ones when both modes
# occur; every run still counts in the overall row.
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

cat >"$TMP/spin.cpp" <<'CPP'
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

int main() {
  // One random cycle over 2^20 indices (Sattolo's shuffle), then 2^22
  // dependent loads along it with a multiply each. Prints the chase in ms.
  const std::uint32_t N = 1u << 20;
  std::vector<std::uint32_t> Next(N);
  for (std::uint32_t I = 0; I < N; ++I)
    Next[I] = I;
  std::uint64_t X = 88172645463325252ull;
  for (std::uint32_t I = N - 1; I > 0; --I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    std::swap(Next[I], Next[X % I]);
  }
  auto T0 = std::chrono::steady_clock::now();
  std::uint32_t P = 0;
  std::uint64_t H = 0;
  for (std::uint32_t K = 0; K < 4 * N; ++K) {
    P = Next[P];
    H = (H ^ P) * 0x9E3779B97F4A7C15ull;
  }
  std::chrono::duration<double, std::milli> Ms =
      std::chrono::steady_clock::now() - T0;
  std::printf("%.1f\n", Ms.count());
  return H == 1; // keeps the chase
}
CPP
"${CXX:-c++}" -O2 -o "$TMP/spin" "$TMP/spin.cpp"

run() { # <side> <seed>
  local Src=$ROOT Before After
  if [[ $1 == parent ]]; then Src=$TMP/parent; fi
  Before=$("$TMP/spin")
  python3 "$Src/perfbench/run.py" --workload "$WORKLOAD" --seed "$2" \
    --seconds "$RUN_SECONDS" --trace 0 >"$TMP/run.out" 2>"$TMP/run.err" ||
    { cat "$TMP/run.err" >&2; exit 1; }
  After=$("$TMP/spin")
  tail -n 1 "$TMP/run.out" | python3 -c '
import json, sys
side, pair, before, after = sys.argv[1:]
r = json.loads(sys.stdin.read())
if not r["correct"] or r["failed"]:
    sys.exit("%s pair %s: correct=%s failed=%s" % (side, pair, r["correct"], r["failed"]))
spin = (float(before) + float(after)) / 2
print("\t".join([pair, side, "spin_ms=%.1f" % spin] +
                ["%s=%.6g" % (k, v["value"]) for k, v in r["metrics"].items()]))
' "$1" "$2" "$Before" "$After" | tee -a "$TMP/runs.tsv"
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
spin = {}  # (side, pair) -> calibration ms
for line in open(sys.argv[1]):
    pair, side, *kv = line.rstrip("\n").split("\t")
    for item in kv:
        k, v = item.split("=")
        if k == "spin_ms":
            spin[(side, int(pair))] = float(v)
        else:
            runs.setdefault((k, side), {})[int(pair)] = float(v)

# Host mode per run: split the sorted spin times at their widest gap when
# that gap is 25% or more; a narrower spread is spin noise, one (fast) mode.
times = sorted(spin.values())
cut = times[-1]
gap = max(range(1, len(times)), key=lambda i: times[i] / times[i - 1],
          default=0)
if gap and times[gap] >= 1.25 * times[gap - 1]:
    cut = times[gap - 1]
mode = {key: "fast" if ms <= cut else "slow" for key, ms in spin.items()}
print("pair side    spin_ms mode")
for side, pair in sorted(spin, key=lambda k: (k[1], k[0] != "parent")):
    print("%4d %-6s %8.1f %s" % (pair, side, spin[(side, pair)],
                                 mode[(side, pair)]))
print()

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

def cell(xs):
    if not xs:
        return "%28s" % "-"
    q1, q2, q3 = quartiles(sorted(xs))
    return "%12.6g [%6.4g-%6.4g]" % (q2, q1, q3)

print("%-20s %-4s %28s %28s %8s %7s" % (
    "metric", "mode", "parent median [q1-q3]", "change median [q1-q3]",
    "change", "wins"))
for name, direction in better.items():
    p, c = runs.get((name, "parent")), runs.get((name, "change"))
    if not p or not c:
        continue
    sign = 1 if direction == "higher" else -1
    wins = sum(sign * (c[i] - p[i]) > 0 for i in p if i in c)
    for label in ("all", "fast", "slow") if "slow" in mode.values() else ("all",):
        pv = [v for i, v in p.items() if label in ("all", mode[("parent", i)])]
        cv = [v for i, v in c.items() if label in ("all", mode[("change", i)])]
        delta = "%8s" % "-"
        if pv and cv and statistics.median(pv):
            delta = "%+7.1f%%" % (
                (statistics.median(cv) / statistics.median(pv) - 1) * 100)
        # Wins compare the two runs of a pair, so only the overall row has
        # them; a mode row counts the runs on each side instead.
        count = ("%d/%d" % (wins, len(p)) if label == "all" else
                 "n=%d/%d" % (len(pv), len(cv)))
        print("%-20s %-4s %s %s %s %7s" % (name, label, cell(pv), cell(cv),
                                           delta, count))
EOF

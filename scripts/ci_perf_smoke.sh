#!/usr/bin/env bash
# Throughput and bit-exactness smoke.
#
# Runs bench_exec_throughput and bench_tracer_throughput in --quick mode
# (first 8 registry workloads):
#
#   - bench_exec_throughput gates the flat CodeImage interpreter's
#     instructions/sec over the embedded seed nested-layout interpreter
#     (soft 1.2x gate), verifying every leg bit-exact on the spot (cycles,
#     instruction counts, return values, selection digests).
#   - bench_tracer_throughput verifies the SoA tracer core against the
#     embedded seed per-event engine (StlStats/parents/peaks) and against
#     the live profiled run (selection digests + tracer.* metrics) on every
#     stream. It prints events/sec for information only; tracer throughput
#     is measured by perfbench's tracer-sweep workload.
#
# Both catch semantic regressions without the runtime of the
# full-registry runs.
#
# The interpreter gate is soft against machine noise: when its two
# measured passes differ by more than 10%, the bench reports the
# measurement as unresolved and exits 0 rather than failing on runner
# jitter. For a publishable number, run the full bench on a quiet host,
# preferably under the release-native preset:
#   cmake --preset release-native && cmake --build --preset release-native
#   build-native/bench/bench_exec_throughput
#
# Usage:
#   scripts/ci_perf_smoke.sh                  # configure+build, then run
#   scripts/ci_perf_smoke.sh --bin <bench_exec_throughput> \
#     [--tracer-bin <bench_tracer_throughput>]
#
# The second form is how the tier-1 ctest suite invokes it (see
# tools/CMakeLists.txt).

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"

BIN=""
TRACER_BIN=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --bin) BIN="$2"; shift 2 ;;
    --tracer-bin) TRACER_BIN="$2"; shift 2 ;;
    *) break ;;
  esac
done

if [[ -z "${BIN}" ]]; then
  BUILD="${ROOT}/build"
  JOBS="$(nproc 2>/dev/null || echo 4)"
  cmake -B "${BUILD}" -S "${ROOT}" "$@"
  cmake --build "${BUILD}" -j"${JOBS}" \
    --target bench_exec_throughput bench_tracer_throughput
  BIN="${BUILD}/bench/bench_exec_throughput"
  TRACER_BIN="${BUILD}/bench/bench_tracer_throughput"
fi

"${BIN}" --quick
if [[ -n "${TRACER_BIN}" ]]; then
  "${TRACER_BIN}" --quick
fi

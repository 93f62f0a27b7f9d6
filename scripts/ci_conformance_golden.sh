#!/usr/bin/env bash
# Golden-conformance gate: freezes the Hydra TLS engine's observable output.
#
# Runs the whole-registry differential conformance grid (26 workloads x
# both annotation levels x the three default config points, 156 jobs,
# including the line-grain and synchronized-local point) in deterministic
# mode and compares two documents byte-for-byte against committed goldens,
# once with a single worker thread and once with four:
#
#   1. the --no-timings report, which carries cycles_tls per job;
#   2. the merged --metrics document, which carries every spec.* counter
#      and histogram of the engine.
#
# Any change to the engine's cycle accounting, violation/forwarding
# decisions, stall handling, or thread scheduling shows up here.
#
# Usage:
#   scripts/ci_conformance_golden.sh              # configure+build, then check
#   scripts/ci_conformance_golden.sh --bin <jrpm-sweep> \
#     --golden <report.json> --metrics-golden <metrics.json>
#
# The second form is how the tier-1 ctest suite invokes it (see
# tools/CMakeLists.txt). To regenerate the goldens after an intentional
# engine change:
#   build/tools/jrpm-sweep conformance --no-timings --quiet \
#     -o tests/golden/conformance_full.json \
#     --metrics tests/golden/conformance_metrics.json

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
GOLDEN="${ROOT}/tests/golden/conformance_full.json"
METRICS_GOLDEN="${ROOT}/tests/golden/conformance_metrics.json"

BIN=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --bin) BIN="$2"; shift 2 ;;
    --golden) GOLDEN="$2"; shift 2 ;;
    --metrics-golden) METRICS_GOLDEN="$2"; shift 2 ;;
    *) break ;;
  esac
done

if [[ -z "${BIN}" ]]; then
  BUILD="${ROOT}/build"
  JOBS="$(nproc 2>/dev/null || echo 4)"
  cmake -B "${BUILD}" -S "${ROOT}" "$@"
  cmake --build "${BUILD}" -j"${JOBS}" --target jrpm-sweep
  BIN="${BUILD}/tools/jrpm-sweep"
fi

TMP="$(mktemp -d "${TMPDIR:-/tmp}/jrpm-conformance-golden.XXXXXX")"
trap 'rm -rf "${TMP}"' EXIT

compare() {
  local WHAT="$1" EXPECTED="$2" ACTUAL="$3"
  if cmp -s "${EXPECTED}" "${ACTUAL}"; then
    echo "golden-conformance: ${WHAT} matches"
  else
    echo "golden-conformance: ${WHAT} DIFFERS from golden" >&2
    diff -u "${EXPECTED}" "${ACTUAL}" | head -200 >&2 || true
    STATUS=1
  fi
}

STATUS=0
for THREADS in 1 4; do
  OUT="${TMP}/conformance.t${THREADS}.json"
  MET="${TMP}/metrics.t${THREADS}.json"
  if ! "${BIN}" conformance --threads "${THREADS}" --no-timings --quiet \
      -o "${OUT}" --metrics "${MET}" > /dev/null; then
    echo "golden-conformance: ${THREADS}-thread conformance run failed" >&2
    STATUS=1
  fi
  compare "${THREADS}-thread report" "${GOLDEN}" "${OUT}"
  compare "${THREADS}-thread merged metrics" "${METRICS_GOLDEN}" "${MET}"
done

exit "${STATUS}"

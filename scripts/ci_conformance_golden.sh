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
source "${ROOT}/scripts/golden_lib.sh"
GOLDEN="${ROOT}/tests/golden/conformance_full.json"
METRICS_GOLDEN="${ROOT}/tests/golden/conformance_metrics.json"

BIN=""
golden_args --bin=BIN --golden=GOLDEN --metrics-golden=METRICS_GOLDEN \
  -- "$@"
if [[ -z "${BIN}" ]]; then
  golden_build jrpm-sweep
  BIN="${ROOT}/build/tools/jrpm-sweep"
fi
golden_tmpdir conformance

compare() {
  golden_compare "$2" "$3" "golden-conformance: $1 matches" \
    "golden-conformance: $1 DIFFERS from golden" 200
}

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

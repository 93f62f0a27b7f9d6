#!/usr/bin/env bash
# Golden-metrics JSON gate.
#
# The instrumentation registry's export is a pure function of the simulated
# execution: sorted keys, fixed double format, simulated-cycle values only.
# This gate pins that end to end in two ways:
#
#   1. `jrpm-run run BitOps --metrics` must reproduce the committed golden
#      export byte-for-byte — any change to cycle accounting, metric
#      naming, or JSON rendering fails here and must be reviewed via a
#      golden update.
#   2. The merged metrics of a fixed sweep must be byte-identical between
#      a 1-thread and a 4-thread pool (per-job registries merge in plan
#      order, never in completion order).
#
# Usage:
#   scripts/ci_metrics_golden.sh                 # configure+build, then check
#   scripts/ci_metrics_golden.sh --run-bin <jrpm-run> --sweep-bin <jrpm-sweep> \
#     --golden <file>
#
# The second form is how the tier-1 ctest suite invokes it (see
# tools/CMakeLists.txt). To regenerate the golden file after an intentional
# metrics change:
#   build/tools/jrpm-run run BitOps --metrics tests/golden/metrics_small.json

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
source "${ROOT}/scripts/golden_lib.sh"
GOLDEN="${ROOT}/tests/golden/metrics_small.json"

RUN_BIN=""
SWEEP_BIN=""
golden_args --run-bin=RUN_BIN --sweep-bin=SWEEP_BIN --golden=GOLDEN -- "$@"
if [[ -z "${RUN_BIN}" || -z "${SWEEP_BIN}" ]]; then
  golden_build jrpm-run jrpm-sweep
  RUN_BIN="${ROOT}/build/tools/jrpm-run"
  SWEEP_BIN="${ROOT}/build/tools/jrpm-sweep"
fi
golden_tmpdir metrics

# Gate 1: pipeline metrics export matches the committed golden bytes.
"${RUN_BIN}" run BitOps --metrics "${TMP}/metrics.json" > /dev/null
golden_compare "${GOLDEN}" "${TMP}/metrics.json" \
  "golden-metrics: BitOps export matches" \
  "golden-metrics: BitOps export DIFFERS from golden"

# Gate 2: merged sweep metrics are pool-width independent.
for THREADS in 1 4; do
  "${SWEEP_BIN}" run --workloads BitOps,fft --levels base,optimized \
    --threads "${THREADS}" --quiet \
    --metrics "${TMP}/sweep.t${THREADS}.json" > /dev/null
done
golden_compare "${TMP}/sweep.t1.json" "${TMP}/sweep.t4.json" \
  "golden-metrics: 1-thread and 4-thread sweep metrics identical" \
  "golden-metrics: sweep metrics depend on pool width"

exit "${STATUS}"

#!/usr/bin/env bash
# Golden-sweep JSON gate.
#
# Runs a fixed small sweep (two workloads, both annotation levels, one
# non-default config point) in deterministic mode (--no-timings) and
# compares the JSON byte-for-byte against the committed golden file, once
# with a single worker thread and once with four: any schema drift, key
# reordering, double-formatting change, or thread-count dependence in the
# report fails the check.
#
# Usage:
#   scripts/ci_sweep_golden.sh                    # configure+build, then check
#   scripts/ci_sweep_golden.sh --bin <jrpm-sweep> --golden <file>
#
# The second form is how the tier-1 ctest suite invokes it (see
# tools/CMakeLists.txt). To regenerate the golden file after an intentional
# schema change:
#   build/tools/jrpm-sweep run --workloads BitOps,fft \
#     --levels base,optimized --config banks=2,history=48 --seed 7 \
#     --no-timings --quiet -o tests/golden/sweep_small.json

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
source "${ROOT}/scripts/golden_lib.sh"
GOLDEN="${ROOT}/tests/golden/sweep_small.json"

BIN=""
golden_args --bin=BIN --golden=GOLDEN -- "$@"
if [[ -z "${BIN}" ]]; then
  golden_build jrpm-sweep
  BIN="${ROOT}/build/tools/jrpm-sweep"
fi
golden_tmpdir sweep

for THREADS in 1 4; do
  OUT="${TMP}/sweep.t${THREADS}.json"
  "${BIN}" run --workloads BitOps,fft --levels base,optimized \
    --config banks=2,history=48 --seed 7 --threads "${THREADS}" \
    --no-timings --quiet -o "${OUT}" > /dev/null
  golden_compare "${GOLDEN}" "${OUT}" \
    "golden-sweep: ${THREADS}-thread report matches" \
    "golden-sweep: ${THREADS}-thread report DIFFERS from golden"
done

exit "${STATUS}"

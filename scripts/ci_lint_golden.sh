#!/usr/bin/env bash
# Golden lint-report gate.
#
# Runs `jrpm-lint all --oracle --json` over the full workload registry and
# compares the structured report byte-for-byte against the committed golden
# file, once with one lint thread and once with four: any schema drift, key
# reordering, analysis nondeterminism, or thread-count dependence in the
# report fails the check.
#
# Usage:
#   scripts/ci_lint_golden.sh                   # configure+build, then check
#   scripts/ci_lint_golden.sh --bin <jrpm-lint> --golden <file>
#
# The second form is how the tier-1 ctest suite invokes it (see
# tools/CMakeLists.txt). To regenerate the golden file after an intentional
# schema change:
#   build/tools/jrpm-lint all --oracle --json > tests/golden/lint_registry.json

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
source "${ROOT}/scripts/golden_lib.sh"
GOLDEN="${ROOT}/tests/golden/lint_registry.json"

BIN=""
golden_args --bin=BIN --golden=GOLDEN -- "$@"
if [[ -z "${BIN}" ]]; then
  golden_build jrpm-lint
  BIN="${ROOT}/build/tools/jrpm-lint"
fi
golden_tmpdir lint

for THREADS in 1 4; do
  OUT="${TMP}/lint.t${THREADS}.json"
  "${BIN}" all --oracle --json --jobs "${THREADS}" > "${OUT}"
  golden_compare "${GOLDEN}" "${OUT}" \
    "golden-lint: ${THREADS}-thread report matches" \
    "golden-lint: ${THREADS}-thread report DIFFERS from golden" 80
done

exit "${STATUS}"

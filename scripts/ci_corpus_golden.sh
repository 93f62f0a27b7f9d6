#!/usr/bin/env bash
# Golden-corpus JSON gate.
#
# Runs a fixed small corpus sweep (three workloads' templates, four seeds
# per template) and compares the report byte-for-byte against the
# committed golden file, once with a single worker thread and once with
# four: any schema drift, key reordering, digest change (a generator or
# extractor behavior change), or thread-count dependence in the report
# fails the check.
#
# With JRPM_CORPUS_FULL=1 the gate additionally runs the full-scale corpus
# (the whole registry, 25 seeds per template — >= 2000 variants) on 1 and
# 4 threads and requires those two reports to be byte-identical too. The
# full sweep takes tens of seconds, so tier-1 keeps it behind the knob.
#
# Usage:
#   scripts/ci_corpus_golden.sh                    # configure+build, then check
#   scripts/ci_corpus_golden.sh --bin <jrpm-corpus> --golden <file>
#
# The second form is how the tier-1 ctest suite invokes it (see
# tools/CMakeLists.txt). To regenerate the golden file after an intentional
# schema or generator change:
#   build/tools/jrpm-corpus run --workloads BitOps,fft,compress \
#     --variants-per-template 4 --seed 3 --quiet \
#     -o tests/golden/corpus_small.json

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
source "${ROOT}/scripts/golden_lib.sh"
GOLDEN="${ROOT}/tests/golden/corpus_small.json"

BIN=""
golden_args --bin=BIN --golden=GOLDEN -- "$@"
if [[ -z "${BIN}" ]]; then
  golden_build jrpm-corpus
  BIN="${ROOT}/build/tools/jrpm-corpus"
fi
golden_tmpdir corpus

for THREADS in 1 4; do
  OUT="${TMP}/corpus.t${THREADS}.json"
  "${BIN}" run --workloads BitOps,fft,compress --variants-per-template 4 \
    --seed 3 --threads "${THREADS}" --quiet -o "${OUT}" > /dev/null
  golden_compare "${GOLDEN}" "${OUT}" \
    "golden-corpus: ${THREADS}-thread report matches" \
    "golden-corpus: ${THREADS}-thread report DIFFERS from golden"
done

if [[ "${JRPM_CORPUS_FULL:-0}" == "1" ]]; then
  FULL1="${TMP}/full.t1.json"
  FULL4="${TMP}/full.t4.json"
  "${BIN}" run --variants-per-template 25 --seed 1 --threads 1 --quiet \
    -o "${FULL1}" > /dev/null
  "${BIN}" run --variants-per-template 25 --seed 1 --threads 4 --quiet \
    -o "${FULL4}" > /dev/null
  golden_compare "${FULL1}" "${FULL4}" \
    "golden-corpus: full-scale 1-vs-4-thread reports identical" \
    "golden-corpus: full-scale reports DIFFER across threads"
fi

exit "${STATUS}"

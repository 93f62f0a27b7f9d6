#!/usr/bin/env bash
# Golden-trace determinism gate.
#
# Records .jtrace captures for three small workloads twice each and runs
# `jrpm-trace diff` between the two recordings: any nondeterminism in the
# interpreter, the annotator, or the trace encoder fails the check. Also
# exercises `jrpm-trace info` and a capture-config replay on every trace,
# and requires `replay --config banks=8,history=192` (the recorded values)
# to print the same selection as the plain replay.
#
# Usage:
#   scripts/ci_trace_golden.sh                  # configure+build, then check
#   scripts/ci_trace_golden.sh --bin <jrpm-trace>   # use an existing binary
#
# The second form is how the tier-1 ctest suite invokes it (see
# tools/CMakeLists.txt), so the gate runs on every `ctest` invocation.

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORKLOADS=(BitOps Assignment Huffman)

BIN=""
if [[ "${1:-}" == "--bin" ]]; then
  BIN="$2"
else
  BUILD="${ROOT}/build"
  JOBS="$(nproc 2>/dev/null || echo 4)"
  cmake -B "${BUILD}" -S "${ROOT}" "$@"
  cmake --build "${BUILD}" -j"${JOBS}" --target jrpm-trace
  BIN="${BUILD}/tools/jrpm-trace"
fi

TMP="$(mktemp -d "${TMPDIR:-/tmp}/jrpm-trace-golden.XXXXXX")"
trap 'rm -rf "${TMP}"' EXIT

STATUS=0
for W in "${WORKLOADS[@]}"; do
  "${BIN}" record "${W}" -o "${TMP}/${W}.a.jtrace" > /dev/null
  "${BIN}" record "${W}" -o "${TMP}/${W}.b.jtrace" > /dev/null
  if "${BIN}" diff "${TMP}/${W}.a.jtrace" "${TMP}/${W}.b.jtrace" > /dev/null; then
    echo "golden-trace: ${W} deterministic"
  else
    echo "golden-trace: ${W} NONDETERMINISTIC" >&2
    "${BIN}" diff "${TMP}/${W}.a.jtrace" "${TMP}/${W}.b.jtrace" >&2 || true
    STATUS=1
  fi
  "${BIN}" info "${TMP}/${W}.a.jtrace" > /dev/null
  "${BIN}" replay "${TMP}/${W}.a.jtrace" > "${TMP}/${W}.replay"
  # The recorded banks/history values, applied through the knob table,
  # must leave the replay unchanged.
  "${BIN}" replay "${TMP}/${W}.a.jtrace" --config banks=8,history=192 \
    > "${TMP}/${W}.replay-config"
  if cmp -s "${TMP}/${W}.replay" "${TMP}/${W}.replay-config"; then
    echo "golden-trace: ${W} --config replay identical"
  else
    echo "golden-trace: ${W} --config replay DIVERGES" >&2
    diff "${TMP}/${W}.replay" "${TMP}/${W}.replay-config" >&2 || true
    STATUS=1
  fi
done

exit "${STATUS}"

#!/usr/bin/env bash
# Rebuilds everything, runs the full test suite and every bench harness,
# and records the outputs the repository's EXPERIMENTS.md is based on.
#
# Every harness runs even when an earlier one fails. The names of those
# that exit non-zero (and "ctest" when the suite fails) are listed at the
# end, and the script then exits 1.
set -u -o pipefail
cd "$(dirname "$0")/.."
cmake -B build -G Ninja
cmake --build build
failed=()
ctest --test-dir build 2>&1 | tee test_output.txt || failed+=(ctest)
: > bench_output.txt
for b in build/bench/bench_*; do
  [ -f "$b" ] || continue
  [ -x "$b" ] || continue
  echo "=== $(basename "$b") ===" | tee -a bench_output.txt
  "$b" 2>&1 | tee -a bench_output.txt || failed+=("$(basename "$b")")
done
if [ "${#failed[@]}" -gt 0 ]; then
  echo "FAILED: ${failed[*]}" | tee -a bench_output.txt
  exit 1
fi

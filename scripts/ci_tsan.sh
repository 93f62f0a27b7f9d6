#!/usr/bin/env bash
# Runs the sweep engine's concurrency tests under ThreadSanitizer.
#
# Usage: scripts/ci_tsan.sh [extra cmake args...]
#
# Configures a dedicated build tree with -DJRPM_TSAN=ON (see the option in
# the top-level CMakeLists.txt; mutually exclusive with JRPM_SANITIZE),
# builds everything, and runs the concurrency-focused subset of ctest: the
# Sweep* suites (thread pool, plan runner, determinism), the concurrent
# fuzz harness that dispatches generated programs across the pool, the
# Corpus* suites (template corpus sweeps on the pool, 1-vs-N thread report
# identity), the Serve* suites (daemon single-flight dedup, saturation,
# drain), and the Tracer*/TraceEngine suites (pinned engine streams,
# interleaved engines, live-vs-replay tracer metrics). TSan reports are fatal
# (-fno-sanitize-recover=all), so any data race fails the suite.

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${ROOT}/build-tsan"
JOBS="$(nproc 2>/dev/null || echo 4)"

cmake -B "${BUILD}" -S "${ROOT}" -DJRPM_TSAN=ON "$@"
cmake --build "${BUILD}" -j"${JOBS}"
ctest --test-dir "${BUILD}" --output-on-failure -j"${JOBS}" \
  -R 'Sweep|Concurrent|Interleaved|Serve|Corpus|Tracer|TraceEngine'

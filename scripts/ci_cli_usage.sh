#!/usr/bin/env bash
# CLI conformance gate: every tool prints usage to stderr and exits 2 on a
# bad invocation (no/unknown subcommand, missing operand, unknown option,
# trailing junk), and keeps stdout clean while doing so.
#
# Usage (how the tier-1 ctest invokes it — see tools/CMakeLists.txt):
#   scripts/ci_cli_usage.sh --run-bin <jrpm-run> --trace-bin <jrpm-trace> \
#     --sweep-bin <jrpm-sweep> --lint-bin <jrpm-lint> \
#     --metrics-bin <jrpm-metrics> --serve-bin <jrpm-serve> \
#     --corpus-bin <jrpm-corpus>

set -uo pipefail

RUN_BIN=""; TRACE_BIN=""; SWEEP_BIN=""; LINT_BIN=""; METRICS_BIN=""; SERVE_BIN=""; CORPUS_BIN=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --run-bin) RUN_BIN="$2"; shift 2 ;;
    --trace-bin) TRACE_BIN="$2"; shift 2 ;;
    --sweep-bin) SWEEP_BIN="$2"; shift 2 ;;
    --lint-bin) LINT_BIN="$2"; shift 2 ;;
    --metrics-bin) METRICS_BIN="$2"; shift 2 ;;
    --serve-bin) SERVE_BIN="$2"; shift 2 ;;
    --corpus-bin) CORPUS_BIN="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

for V in RUN_BIN TRACE_BIN SWEEP_BIN LINT_BIN METRICS_BIN SERVE_BIN CORPUS_BIN; do
  if [[ -z "${!V}" ]]; then
    echo "missing --$(echo "${V%_BIN}" | tr 'A-Z' 'a-z')-bin" >&2
    exit 2
  fi
done

STATUS=0

# expect_usage <description> <command...>
# The command must exit 2, print a usage line on stderr, and nothing on
# stdout after the point of failure (we only require stderr mentions
# "usage:" — tools may emit a specific complaint line first).
expect_usage() {
  local DESC="$1"; shift
  local OUT ERR RC
  OUT="$("$@" 2>/tmp/jrpm-cli-usage-stderr.$$)"
  RC=$?
  ERR="$(cat /tmp/jrpm-cli-usage-stderr.$$)"
  rm -f /tmp/jrpm-cli-usage-stderr.$$
  if [[ ${RC} -ne 2 ]]; then
    echo "FAIL (${DESC}): exit ${RC}, want 2: $*" >&2
    STATUS=1
  elif ! grep -q "usage:" <<<"${ERR}"; then
    echo "FAIL (${DESC}): no usage on stderr: $*" >&2
    STATUS=1
  else
    echo "ok (${DESC})"
  fi
}

# jrpm-run
expect_usage "run: no args"           "${RUN_BIN}"
expect_usage "run: bad subcommand"    "${RUN_BIN}" frobnicate
expect_usage "run: list with junk"    "${RUN_BIN}" list extra
expect_usage "run: missing workload"  "${RUN_BIN}" run
expect_usage "run: unknown option"    "${RUN_BIN}" run BitOps --bogus
expect_usage "run: missing value"     "${RUN_BIN}" run BitOps --banks
expect_usage "run: removed batch knob" "${RUN_BIN}" run BitOps --trace-batch=4
expect_usage "run: dump-ir with junk" "${RUN_BIN}" dump-ir BitOps extra
expect_usage "run: trace bad option"  "${RUN_BIN}" trace BitOps --nope

# jrpm-trace
expect_usage "trace: no args"         "${TRACE_BIN}"
expect_usage "trace: bad subcommand"  "${TRACE_BIN}" explode
expect_usage "trace: record no wl"    "${TRACE_BIN}" record
expect_usage "trace: info no path"    "${TRACE_BIN}" info
expect_usage "trace: info with junk"  "${TRACE_BIN}" info a.jtrace extra
expect_usage "trace: diff one path"   "${TRACE_BIN}" diff a.jtrace
expect_usage "trace: diff with junk"  "${TRACE_BIN}" diff a b c
expect_usage "trace: unknown option"  "${TRACE_BIN}" record BitOps --bogus

# jrpm-sweep
expect_usage "sweep: no args"         "${SWEEP_BIN}"
expect_usage "sweep: bad subcommand"  "${SWEEP_BIN}" launch
expect_usage "sweep: unknown option"  "${SWEEP_BIN}" run --bogus
expect_usage "sweep: missing value"   "${SWEEP_BIN}" run --workloads
expect_usage "sweep: bad level"       "${SWEEP_BIN}" run --levels sideways

# jrpm-lint
expect_usage "lint: no args"          "${LINT_BIN}"
expect_usage "lint: unknown option"   "${LINT_BIN}" all --bogus
expect_usage "lint: jobs no value"    "${LINT_BIN}" all --jobs
expect_usage "lint: jobs zero"        "${LINT_BIN}" all --jobs 0
expect_usage "lint: jobs junk"        "${LINT_BIN}" all --jobs many
expect_usage "lint: json bad option"  "${LINT_BIN}" all --json --bogus

# jrpm-metrics
expect_usage "metrics: no args"       "${METRICS_BIN}"
expect_usage "metrics: bad subcmd"    "${METRICS_BIN}" munge a.json
expect_usage "metrics: show no file"  "${METRICS_BIN}" show
expect_usage "metrics: show junk"     "${METRICS_BIN}" show a.json extra
expect_usage "metrics: diff one file" "${METRICS_BIN}" diff a.json

# jrpm-serve
expect_usage "serve: no args"          "${SERVE_BIN}"
expect_usage "serve: bad subcommand"   "${SERVE_BIN}" destroy
expect_usage "serve: serve no socket"  "${SERVE_BIN}" serve --store /tmp/s
expect_usage "serve: serve no store"   "${SERVE_BIN}" serve --socket /tmp/a.sock
expect_usage "serve: unknown option"   "${SERVE_BIN}" serve --socket a --store b --bogus
expect_usage "serve: submit no socket" "${SERVE_BIN}" submit --workloads BitOps
expect_usage "serve: submit mixed kinds" \
  "${SERVE_BIN}" submit --socket a.sock --kind sweep --workload BitOps
expect_usage "serve: status no socket" "${SERVE_BIN}" status
expect_usage "serve: status with junk" "${SERVE_BIN}" status --socket a.sock extra
expect_usage "serve: stats bad option" "${SERVE_BIN}" stats --socket a.sock -x

# jrpm-corpus
expect_usage "corpus: no args"          "${CORPUS_BIN}"
expect_usage "corpus: bad subcommand"   "${CORPUS_BIN}" mutate
expect_usage "corpus: unknown option"   "${CORPUS_BIN}" run --bogus
expect_usage "corpus: missing value"    "${CORPUS_BIN}" run --seed
expect_usage "corpus: generate no tmpl" "${CORPUS_BIN}" generate
expect_usage "corpus: generate count 0" "${CORPUS_BIN}" generate --template x --count 0
expect_usage "corpus: shrink no repro"  "${CORPUS_BIN}" shrink
expect_usage "corpus: stats with junk"  "${CORPUS_BIN}" stats extra

exit "${STATUS}"

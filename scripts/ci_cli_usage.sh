#!/usr/bin/env bash
# CLI conformance gate: every tool prints usage to stderr and exits 2 on a
# bad invocation (no/unknown subcommand, missing operand, unknown option,
# trailing junk, a numeric flag that is junk, negative or out of range),
# and keeps stdout clean while doing so.
#
# Usage (how the tier-1 ctest invokes it — see tools/CMakeLists.txt):
#   scripts/ci_cli_usage.sh --run-bin <jrpm-run> --trace-bin <jrpm-trace> \
#     --sweep-bin <jrpm-sweep> --lint-bin <jrpm-lint> \
#     --metrics-bin <jrpm-metrics> --corpus-bin <jrpm-corpus>

set -uo pipefail

RUN_BIN=""; TRACE_BIN=""; SWEEP_BIN=""; LINT_BIN=""; METRICS_BIN=""; CORPUS_BIN=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --run-bin) RUN_BIN="$2"; shift 2 ;;
    --trace-bin) TRACE_BIN="$2"; shift 2 ;;
    --sweep-bin) SWEEP_BIN="$2"; shift 2 ;;
    --lint-bin) LINT_BIN="$2"; shift 2 ;;
    --metrics-bin) METRICS_BIN="$2"; shift 2 ;;
    --corpus-bin) CORPUS_BIN="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

for V in RUN_BIN TRACE_BIN SWEEP_BIN LINT_BIN METRICS_BIN CORPUS_BIN; do
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
expect_usage "run: missing value"     "${RUN_BIN}" run BitOps --config
expect_usage "run: non-numeric knob"  "${RUN_BIN}" run BitOps --config banks=eight
expect_usage "run: unknown knob"      "${RUN_BIN}" run BitOps --config warp-drive=1
expect_usage "run: bad table geometry" "${RUN_BIN}" run BitOps --config assoc=0
expect_usage "run: removed knob flag" "${RUN_BIN}" run BitOps --banks 2
expect_usage "run: removed batch knob" "${RUN_BIN}" run BitOps --trace-batch=4
expect_usage "run: dump-ir with junk" "${RUN_BIN}" dump-ir BitOps extra
expect_usage "run: removed trace cmd" "${RUN_BIN}" trace BitOps

# jrpm-trace
expect_usage "trace: no args"         "${TRACE_BIN}"
expect_usage "trace: bad subcommand"  "${TRACE_BIN}" explode
expect_usage "trace: record no wl"    "${TRACE_BIN}" record
expect_usage "trace: info no path"    "${TRACE_BIN}" info
expect_usage "trace: info with junk"  "${TRACE_BIN}" info a.jtrace extra
expect_usage "trace: diff one path"   "${TRACE_BIN}" diff a.jtrace
expect_usage "trace: diff with junk"  "${TRACE_BIN}" diff a b c
expect_usage "trace: unknown option"  "${TRACE_BIN}" record BitOps --bogus
expect_usage "trace: replay no --base" "${TRACE_BIN}" replay x.jtrace --base
expect_usage "trace: replay prefilter" "${TRACE_BIN}" replay x.jtrace --config prefilter=1
expect_usage "trace: dump no --config" "${TRACE_BIN}" dump x.jtrace --config banks=2
expect_usage "trace: dump bad events" "${TRACE_BIN}" dump x.jtrace --events -5

# jrpm-sweep
expect_usage "sweep: no args"         "${SWEEP_BIN}"
expect_usage "sweep: bad subcommand"  "${SWEEP_BIN}" launch
expect_usage "sweep: unknown option"  "${SWEEP_BIN}" run --bogus
expect_usage "sweep: missing value"   "${SWEEP_BIN}" run --workloads
expect_usage "sweep: bad level"       "${SWEEP_BIN}" run --levels sideways
expect_usage "sweep: knob overflow"   "${SWEEP_BIN}" plan --config banks=99999999999999999999
expect_usage "sweep: threads junk"    "${SWEEP_BIN}" run --threads many
expect_usage "sweep: threads negative" "${SWEEP_BIN}" run --threads -1
expect_usage "sweep: seed overflow"   "${SWEEP_BIN}" plan --seed 99999999999999999999
expect_usage "sweep: timeout junk"    "${SWEEP_BIN}" plan --timeout-ms 5s

# jrpm-lint
expect_usage "lint: no args"          "${LINT_BIN}"
expect_usage "lint: unknown option"   "${LINT_BIN}" all --bogus
expect_usage "lint: jobs no value"    "${LINT_BIN}" all --jobs
expect_usage "lint: jobs zero"        "${LINT_BIN}" all --jobs 0
expect_usage "lint: jobs junk"        "${LINT_BIN}" all --jobs many
expect_usage "lint: jobs overflow"    "${LINT_BIN}" all --jobs 99999999999999999999
expect_usage "lint: json bad option"  "${LINT_BIN}" all --json --bogus

# jrpm-metrics
expect_usage "metrics: no args"       "${METRICS_BIN}"
expect_usage "metrics: bad subcmd"    "${METRICS_BIN}" munge a.json
expect_usage "metrics: show no file"  "${METRICS_BIN}" show
expect_usage "metrics: show junk"     "${METRICS_BIN}" show a.json extra
expect_usage "metrics: diff one file" "${METRICS_BIN}" diff a.json

# jrpm-corpus
expect_usage "corpus: no args"          "${CORPUS_BIN}"
expect_usage "corpus: bad subcommand"   "${CORPUS_BIN}" mutate
expect_usage "corpus: unknown option"   "${CORPUS_BIN}" run --bogus
expect_usage "corpus: missing value"    "${CORPUS_BIN}" run --seed
expect_usage "corpus: generate no tmpl" "${CORPUS_BIN}" generate
expect_usage "corpus: generate count 0" "${CORPUS_BIN}" generate --template x --count 0
expect_usage "corpus: threads negative" "${CORPUS_BIN}" run --threads -1
expect_usage "corpus: variants negative" "${CORPUS_BIN}" run --variants-per-template -1
expect_usage "corpus: seed junk"        "${CORPUS_BIN}" run --seed 1e3
expect_usage "corpus: inject-trip junk" "${CORPUS_BIN}" run --inject-trip many
expect_usage "corpus: inject-trip negative" "${CORPUS_BIN}" run --inject-trip -3
expect_usage "corpus: shrink no repro"  "${CORPUS_BIN}" shrink
expect_usage "corpus: stats with junk"  "${CORPUS_BIN}" stats extra

exit "${STATUS}"

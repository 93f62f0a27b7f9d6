# Steps the scripts/ci_*_golden.sh gates share. A gate sets ROOT to the
# repository root and sources this file; STATUS starts at 0 and is the
# gate's exit status.
#
#   golden_args --bin=BIN --golden=GOLDEN -- "$@"
#       Sets each named variable from a "<flag> <value>" pair. Arguments
#       from the first unknown one on are kept for golden_build's cmake.
#   golden_build <target>...
#       Configures ${ROOT}/build with the kept arguments and builds the
#       targets; their binaries are then in ${ROOT}/build/tools.
#   golden_tmpdir <name>
#       Makes the scratch directory TMP, removed when the gate exits.
#   golden_compare <expected> <actual> <pass line> <fail line> [<lines>]
#       Prints the pass line when the files are byte-identical. Otherwise
#       prints the fail line and their unified diff (its first <lines>
#       lines when given) on stderr and sets STATUS=1.

STATUS=0
GOLDEN_CMAKE_ARGS=()

golden_args() {
  local -A VAR_OF=()
  while [[ "$1" != "--" ]]; do
    VAR_OF["${1%%=*}"]="${1#*=}"
    shift
  done
  shift
  while [[ $# -gt 0 && -n "${VAR_OF[$1]:-}" ]]; do
    printf -v "${VAR_OF[$1]}" '%s' "$2"
    shift 2
  done
  GOLDEN_CMAKE_ARGS=("$@")
}

golden_build() {
  cmake -B "${ROOT}/build" -S "${ROOT}" "${GOLDEN_CMAKE_ARGS[@]}"
  cmake --build "${ROOT}/build" -j"$(nproc 2>/dev/null || echo 4)" \
    --target "$@"
}

golden_tmpdir() {
  TMP="$(mktemp -d "${TMPDIR:-/tmp}/jrpm-$1-golden.XXXXXX")"
  trap 'rm -rf "${TMP}"' EXIT
}

golden_compare() {
  if cmp -s "$1" "$2"; then
    echo "$3"
    return
  fi
  echo "$4" >&2
  if [[ -n "${5:-}" ]]; then
    diff -u "$1" "$2" | head -"$5" >&2 || true
  else
    diff -u "$1" "$2" >&2 || true
  fi
  STATUS=1
}

#!/usr/bin/env bash
# Regression test for flotilla-run's numeric options: an out-of-range or
# non-finite value must exit 2 with a message naming the option, before
# any simulation starts. Registered in tests/CMakeLists.txt as
# run_numeric_options_test; takes the flotilla-run binary as $1.
set -u

RUN="${1:?usage: test_run_numeric_options.sh <flotilla-run>}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

# expect_rejected <option> <args...>: exit 2, "--<option>" on stderr.
expect_rejected() {
  local option="$1"; shift
  "$RUN" "$@" >"$TMP/stdout" 2>"$TMP/stderr"
  local rc=$?
  [ "$rc" -eq 2 ] || fail "$*: expected exit 2, got $rc"
  grep -q -- "--$option " "$TMP/stderr" \
    || fail "$*: stderr does not name --$option: $(cat "$TMP/stderr")"
}

expect_rejected tasks --tasks -5
expect_rejected tasks --tasks 5000000000
expect_rejected nodes --nodes 5000000000
expect_rejected nodes --nodes 0
expect_rejected partitions --partitions 0
expect_rejected partitions --partitions 5000000000
expect_rejected cores --cores -1
expect_rejected cores --cores 0
expect_rejected duration --workload dummy --tasks 4 --duration -5
expect_rejected duration --workload dummy --tasks 4 --duration nan
expect_rejected duration --workload dummy --tasks 4 --duration inf
expect_rejected clients --tasks 4 --clients -3
expect_rejected trace-capacity --tasks 4 --trace-capacity -3

# Sanity: the boundary values are accepted.
"$RUN" --nodes 1 --partitions 1 --tasks 0 --cores 1 --duration 0 --clients 0 \
  --trace-capacity 0 --workload dummy >"$TMP/stdout" 2>"$TMP/stderr" \
  || fail "boundary values: expected exit 0: $(cat "$TMP/stderr")"

echo "flotilla-run numeric options OK"

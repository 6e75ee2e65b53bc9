#!/usr/bin/env bash
# Regression test for flotilla-run --journal write errors: a journal that
# cannot be written (here /dev/full, where every write fails with ENOSPC)
# must exit 2 with a message naming the path, never report the journal as
# written. Registered in tests/CMakeLists.txt as run_journal_write_error_test;
# takes the flotilla-run binary as $1. Exits 77 (skipped) without /dev/full.
set -u

RUN="${1:?usage: test_run_journal_write_error.sh <flotilla-run>}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

if [ ! -w /dev/full ]; then
  echo "SKIP: /dev/full is not available"
  exit 77
fi

"$RUN" --backend flux --nodes 4 --tasks 20 --duration 1 \
  --journal /dev/full >"$TMP/stdout" 2>"$TMP/stderr"
rc=$?
[ "$rc" -eq 2 ] || fail "expected exit 2, got $rc"
grep -q "/dev/full" "$TMP/stderr" \
  || fail "no message naming /dev/full on stderr"
grep -q "^journal: " "$TMP/stdout" \
  && fail "the unwritten journal was reported as written"

# Sanity: the same run to a writable path succeeds and writes the bytes.
"$RUN" --backend flux --nodes 4 --tasks 20 --duration 1 \
  --journal "$TMP/run.journal" >"$TMP/stdout" 2>"$TMP/stderr" \
  || fail "writable journal: expected exit 0"
[ -s "$TMP/run.journal" ] || fail "writable journal: file is empty"

echo "flotilla-run journal write errors OK"

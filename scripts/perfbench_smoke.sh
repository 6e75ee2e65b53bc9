#!/usr/bin/env bash
# Benchmark smoke test: runs every perfbench workload for one second and
# fails unless each one passed its own output checks (recovered-journal
# byte identity, ingress conservation, ...) with no failed operation.
# perfbench/run.py reports a failed check in its JSON result line but still
# exits 0, so this script reads those lines. Run it from anywhere:
#
#     scripts/perfbench_smoke.sh
#
# Exits 0 when all four workloads are correct, 1 otherwise.
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

cd "$ROOT" || exit 1
python3 perfbench/run.py --workload all --seconds 1 --trace 0 | tee "$OUT"
rc=${PIPESTATUS[0]}
if [ "$rc" -ne 0 ]; then
  echo "perfbench_smoke: perfbench/run.py exited $rc" >&2
  exit 1
fi

python3 - "$OUT" <<'EOF'
import json
import sys

results = []
with open(sys.argv[1]) as f:
    for line in f:
        if line.startswith("{"):
            results.append(json.loads(line))
bad = [r for r in results if r.get("correct") is not True or r.get("failed") != 0]
if len(results) != 4 or bad:
    print(f"perfbench_smoke: {len(results)} result lines (want 4), "
          f"{len(bad)} not correct or with failures", file=sys.stderr)
    sys.exit(1)
print("perfbench_smoke: all 4 workloads correct, 0 failed")
EOF

#!/usr/bin/env bash
# Bit-exact virtual-time perf regression gate.
#
# Virtual time in this repo depends only on the message DAG and the
# NetworkModel charges — never on wall-clock scheduling — so the bench
# numbers are not statistics but exact model outputs. This gate runs
# the gated benches with --json (17 significant digits) and byte-
# compares the output against the checked-in goldens in bench/golden/.
# ANY drift — a reordered send, a changed charge, a perturbed Ts — is a
# hard failure, not noise.
#
# Usage: scripts/check_bench_golden.sh [build-dir]
#        (default: $BUILD_DIR, then the repo's build/)
# To regenerate after an *intentional* cost-model change:
#        scripts/check_bench_golden.sh --update [build-dir]
set -euo pipefail
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

UPDATE=0
if [ "${1:-}" = "--update" ]; then
  UPDATE=1
  shift
fi
BUILD="${1:-${BUILD_DIR:-$ROOT/build}}"
# A relative build dir names the caller's directory, not the repo's.
case "$BUILD" in /*) ;; *) BUILD="$PWD/$BUILD" ;; esac
cd "$ROOT"
GOLDEN=bench/golden
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
fail=0

check_bench() {  # check_bench <bench-binary> <golden-file>
  local bench="$1" golden="$GOLDEN/$2"
  echo "== $bench -> $2 =="
  # timeout matches CI's per-test ctest --timeout; the P=1024 scaling
  # trajectory is the long pole and finishes well inside it.
  timeout 300 "$BUILD/bench/$bench" --json "$TMP/$2" >/dev/null
  if [ "$UPDATE" -eq 1 ]; then
    cp "$TMP/$2" "$golden"
    echo "updated $golden"
    return
  fi
  if cmp -s "$TMP/$2" "$golden"; then
    echo "ok   $2 is bit-identical"
  else
    echo "FAIL $2 drifted from golden:"
    diff "$golden" "$TMP/$2" || true
    fail=1
  fi
}

check_bench bench_table1_model table1_engine_p32.json
check_bench bench_fig6_methods fig6_engine_p32.json
check_bench bench_frame_pipeline frame_pipeline_engine_p16.json
# The large-P trajectory (P up to 1024 on the fiber pool): pins
# direct/bswap_any/rt/hier virtual times at scale.
check_bench bench_scaling scaling_p1024.json
# Render-service front end: 8 sessions of open-loop traffic over a
# P=32 world — pins the admission/batching/latency numbers.
check_bench bench_service service_p32.json
# Quality ladder: pins the exact/approx/progressive virtual times, the
# a-priori error bounds and the measured errors at P=16.
check_bench bench_quality quality_p16.json

if [ "$fail" -ne 0 ]; then
  echo "virtual-time golden check FAILED — a cost charge or message"
  echo "schedule changed. If intentional, regenerate with:"
  echo "  scripts/check_bench_golden.sh --update $BUILD"
  exit 1
fi
[ "$UPDATE" -eq 1 ] || echo "all virtual-time goldens are bit-identical"

#!/usr/bin/env bash
# Runs the malformed-input corpus (tests/compress/fuzz_corpus_test.cpp)
# under AddressSanitizer + UBSan. The corpus mutates valid codec
# streams, frames, and gather payloads; the contract is that every
# deserializer either succeeds or throws a typed wire::DecodeError —
# under ASan this additionally proves no mutant induces an
# out-of-bounds read/write while doing so.
#
# Usage: scripts/check_asan_corpus.sh
# $BUILD_DIR overrides the build-directory prefix (default: the
# repo's build); the corpus builds into "${BUILD_DIR}-address".
set -euo pipefail
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
DIR="${BUILD_DIR:-$ROOT/build}-address"
# A relative $BUILD_DIR names the caller's directory, not the repo's.
case "$DIR" in /*) ;; *) DIR="$PWD/$DIR" ;; esac
cd "$ROOT"
echo "== malformed-input corpus under RTC_SANITIZE=address =="
cmake -B "$DIR" -S . -DRTC_SANITIZE=address \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$DIR" -j --target fuzz_corpus_test
(cd "$DIR" && ctest --output-on-failure -R fuzz_corpus_test)
echo "asan corpus check passed"

#!/usr/bin/env bash
# AVX2 symbol-leak check.
#
# src/rtc/simd/kernels_avx2.cpp is the one file compiled with -mavx2.
# If its object file defined a weak copy of a shared inline function
# (img::over, say), the linker could keep that AVX2 copy for every
# caller, and baseline code would die with SIGILL on a CPU without
# AVX2. So the object may define exactly one global symbol: the
# dispatch table accessor rtc::simd::detail::avx2_kernels(). Local
# symbols (anonymous namespace, statics) cannot be picked by other
# objects and are ignored.
#
# Usage: scripts/check_simd_symbols.sh [build-dir]
#        (default: $BUILD_DIR, then build)
set -euo pipefail

BUILD="${1:-${BUILD_DIR:-build}}"
ALLOWED=_ZN3rtc4simd6detail12avx2_kernelsEv

obj=$(find "$BUILD" -path '*rtc_simd.dir*' -name 'kernels_avx2.cpp.o' |
      head -n 1)
if [ -z "$obj" ]; then
  echo "no kernels_avx2.cpp.o under $BUILD (build the rtc_simd target)"
  exit 1
fi

# POSIX format: "name type value size". Defined global symbols have an
# upper-case type letter; u (unique global) and i (ifunc) are global
# too.
leaks=$(nm --defined-only -P "$obj" |
        awk -v ok="$ALLOWED" '$2 ~ /^[A-Zui]$/ && $1 != ok { print $1 }')
if [ -n "$leaks" ]; then
  echo "FAIL $obj defines global symbols besides avx2_kernels():"
  echo "$leaks" | c++filt | sed 's/^/  /'
  exit 1
fi
if ! nm --defined-only -P "$obj" | awk -v ok="$ALLOWED" '$1 == ok' |
     grep -q .; then
  echo "FAIL $obj does not define avx2_kernels()"
  exit 1
fi
echo "ok   $obj defines only avx2_kernels()"

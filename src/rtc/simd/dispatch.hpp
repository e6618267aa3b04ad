// Runtime SIMD dispatch for the pixel/codec hot paths.
//
// Every kernel in kernels.hpp exists at two levels — portable scalar
// and AVX2 — and both compute bit-identical results: the AVX2 kernels
// reproduce the scalar integer arithmetic (including the uint8
// wraparound of malformed premultiplied inputs) lane for lane, so
// switching levels can never change an image, a golden, or a wire
// byte. Dispatch therefore only affects wall-clock speed.
//
// Selection, highest priority first:
//   1. simd::set_level() / simd::request_level("auto|scalar|avx2")
//      (the --simd CLI/bench knob),
//   2. the RTC_SIMD environment variable (same spellings),
//   3. auto-detection (avx2 when the CPU has it and the compiler
//      accepted -mavx2, else scalar).
// A request above what the CPU supports falls back to the best
// supported level with one clear stderr line — never a SIGILL.
#pragma once

#include <optional>
#include <string>

namespace rtc::simd {

/// Instruction-set tiers, ordered. The values are what trace
/// `kernel-dispatch` spans record (1 was a retired SSE2 level).
enum class SimdLevel : int {
  kScalar = 0,  ///< portable C++ (always available)
  kAvx2 = 2,    ///< 256-bit integer SIMD
};

[[nodiscard]] const char* to_string(SimdLevel level);

/// Parses "scalar" | "avx2"; nullopt for anything else
/// ("auto" is handled by request_level, not a level by itself).
[[nodiscard]] std::optional<SimdLevel> parse_simd_level(
    const std::string& name);

/// Highest level the running CPU supports (kScalar when the target is
/// not x86-64 or the compiler has no -mavx2). Computed once.
[[nodiscard]] SimdLevel detected_level();

/// Pure fallback policy: the level actually used for `requested` on a
/// CPU whose best level is `detected`. When the request exceeds the
/// hardware, *note (if non-null) receives a one-line explanation and
/// the result is `detected` — requesting a level never crashes.
[[nodiscard]] SimdLevel resolve_level(SimdLevel requested,
                                      SimdLevel detected,
                                      std::string* note);

/// The level every dispatched kernel currently uses. Initialized on
/// first use from RTC_SIMD (falling back with a stderr note if the
/// hardware can't honor it) or auto-detection.
[[nodiscard]] SimdLevel active_level();

/// Forces the active level (clamped to detected_level() with a stderr
/// note, as resolve_level specifies). Process-wide.
void set_level(SimdLevel level);

/// Applies a --simd value: "auto" re-enables detection, otherwise the
/// named level via set_level(). Returns false (and changes nothing)
/// when `name` parses to neither — the caller owns the usage error.
[[nodiscard]] bool request_level(const std::string& name);

}  // namespace rtc::simd

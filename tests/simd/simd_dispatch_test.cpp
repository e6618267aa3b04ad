// Dispatch-selection policy tests.
//
// The user-visible contract: requesting a level the hardware cannot
// run falls back to the best supported level with one clear note —
// never a SIGILL — and --simd spellings parse strictly. resolve_level
// is a pure function of (requested, detected) precisely so this is
// testable on any machine, including one that *does* support AVX2.
#include <gtest/gtest.h>

#include "rtc/simd/dispatch.hpp"
#include "rtc/simd/kernels.hpp"

namespace rtc {
namespace {

using simd::SimdLevel;

TEST(SimdDispatch, ParseLevelSpellings) {
  EXPECT_EQ(simd::parse_simd_level("scalar"), SimdLevel::kScalar);
  EXPECT_EQ(simd::parse_simd_level("avx2"), SimdLevel::kAvx2);
  EXPECT_FALSE(simd::parse_simd_level("auto").has_value());
  EXPECT_FALSE(simd::parse_simd_level("").has_value());
  EXPECT_FALSE(simd::parse_simd_level("AVX2").has_value());
  EXPECT_FALSE(simd::parse_simd_level("sse2").has_value());
  EXPECT_FALSE(simd::parse_simd_level("mmx").has_value());
}

TEST(SimdDispatch, ResolveHonorsSupportedRequests) {
  for (const SimdLevel detected : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    for (const SimdLevel requested :
         {SimdLevel::kScalar, SimdLevel::kAvx2}) {
      if (requested > detected) continue;
      std::string note = "unchanged";
      EXPECT_EQ(simd::resolve_level(requested, detected, &note),
                requested);
      EXPECT_EQ(note, "unchanged") << "supported request wrote a note";
    }
  }
}

TEST(SimdDispatch, UnsupportedRequestFallsBackWithNote) {
  // The --simd=avx2-on-a-pre-AVX2-box scenario: no SIGILL, best level
  // instead, and the note names both levels so the log line is
  // actionable.
  std::string note;
  EXPECT_EQ(simd::resolve_level(SimdLevel::kAvx2, SimdLevel::kScalar,
                                &note),
            SimdLevel::kScalar);
  EXPECT_NE(note.find("avx2"), std::string::npos) << note;
  EXPECT_NE(note.find("scalar"), std::string::npos) << note;
  EXPECT_NE(note.find("falling back"), std::string::npos) << note;

  // A null note pointer is allowed (callers that only want the level).
  EXPECT_EQ(simd::resolve_level(SimdLevel::kAvx2, SimdLevel::kScalar,
                                nullptr),
            SimdLevel::kScalar);
}

TEST(SimdDispatch, RequestLevelAppliesAndRejects) {
  const SimdLevel before = simd::active_level();
  EXPECT_TRUE(simd::request_level("scalar"));
  EXPECT_EQ(simd::active_level(), SimdLevel::kScalar);
  // Unknown spellings change nothing and report failure: the caller
  // owns the usage error.
  EXPECT_FALSE(simd::request_level("bogus"));
  EXPECT_EQ(simd::active_level(), SimdLevel::kScalar);
  // "auto" restores detection.
  EXPECT_TRUE(simd::request_level("auto"));
  EXPECT_EQ(simd::active_level(), simd::detected_level());
  simd::set_level(before);
}

TEST(SimdDispatch, SetLevelClampsToHardware) {
  const SimdLevel before = simd::active_level();
  // Forcing above the hardware may happen via RTC_SIMD on a weaker
  // machine; set_level must clamp, so the active kernels are always
  // executable.
  simd::set_level(SimdLevel::kAvx2);
  EXPECT_LE(simd::active_level(), simd::detected_level());
  simd::set_level(before);
}

TEST(SimdDispatch, ActiveKernelsAreRunnable) {
  // Smoke-run one kernel through the dispatched table at the active
  // level — on a machine where detection misfired this is the test
  // that SIGILLs instead of silently passing.
  img::GrayA8 dst[3] = {{10, 200}, {0, 0}, {5, 9}};
  const img::GrayA8 src[3] = {{1, 2}, {3, 4}, {0, 0}};
  simd::kernels().over_back(dst, src, 3);
  EXPECT_EQ(simd::kernels().count_non_blank(dst, 3), 3);
}

}  // namespace
}  // namespace rtc

// AVX2 kernels.
//
// This translation unit is compiled with -mavx2 -O3 (see
// CMakeLists.txt); nothing here may be called unless dispatch selected
// kAvx2, which requires __builtin_cpu_supports("avx2"). Everything but
// the avx2_kernels() table lives in an anonymous namespace and no
// inline function of the project's headers is called, so no
// AVX2-compiled copy of a shared inline function can be the one the
// linker keeps for baseline callers (scripts/check_simd_symbols.sh
// checks the object file).
//
// The streaming kernels are portable C++ over 16-bit pixel words that
// the compiler vectorizes at -O3. The arithmetic is img::over()'s,
// narrowed to 16 bits: back.c * inv <= 255*255 = 65025, +128 = 65153,
// plus its own high byte <= 65407 — all below 2^16 — and the final
// front.c + rounded term is masked to 8 bits, so it wraps on malformed
// (non-premultiplied) inputs exactly as the scalar uint8_t cast does.
// The fused TRLE cells keep intrinsics: their payload-to-row split is
// one cross-lane permute, and every portable form measured slower
// (docs/simd_kernels.md). The CRC-32 folds with PCLMULQDQ (-mpclmul),
// which dispatch also requires before it selects this level.
#include "rtc/simd/kernels.hpp"

#if (defined(__x86_64__) || defined(_M_X64)) && defined(__AVX2__) && \
    defined(__PCLMUL__)

#include <bit>
#include <cstring>
#include <immintrin.h>

namespace rtc::simd {
namespace {

// A pixel as one 16-bit word: v in the low byte, a in the high byte.
static_assert(sizeof(img::GrayA8) == 2);
static_assert(std::endian::native == std::endian::little,
              "pixel words and blank_mask's flag packing assume "
              "little-endian byte order");

using Word = std::uint16_t;

inline Word load(const void* p) {
  Word w;
  std::memcpy(&w, p, sizeof w);
  return w;
}

inline void store(void* p, Word w) { std::memcpy(p, &w, sizeof w); }

/// Round-to-nearest x * w / 255 in 16-bit arithmetic (x, w <= 255).
inline Word mul255(Word x, Word w) {
  const auto t = static_cast<Word>(x * w + 128);
  return static_cast<Word>(static_cast<Word>(t + (t >> 8)) >> 8);
}

/// Porter-Duff over on pixel words: f is the front operand, b the back.
inline Word over(Word f, Word b) {
  const auto fa = static_cast<Word>(f >> 8);
  const auto inv = static_cast<Word>(255 - fa);
  const auto v = static_cast<Word>((f + mul255(b & 0xff, inv)) & 0xff);
  const auto a = static_cast<Word>((fa + mul255(b >> 8, inv)) & 0xff);
  return static_cast<Word>(v | a << 8);
}

/// Per-channel max on pixel words.
inline Word max(Word x, Word y) {
  const auto v = (x & 0xff) > (y & 0xff) ? x & 0xff : y & 0xff;
  const auto a = (x >> 8) > (y >> 8) ? x >> 8 : y >> 8;
  return static_cast<Word>(v | a << 8);
}

void over_front(img::GrayA8* dst, const img::GrayA8* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    store(dst + i, over(load(src + i), load(dst + i)));
}

void over_back(img::GrayA8* dst, const img::GrayA8* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    store(dst + i, over(load(dst + i), load(src + i)));
}

void max_blend(img::GrayA8* dst, const img::GrayA8* src, std::size_t n) {
  // Channels are independent bytes, so max them as 2n bytes.
  auto* d = reinterpret_cast<std::uint8_t*>(dst);
  const auto* s = reinterpret_cast<const std::uint8_t*>(src);
  for (std::size_t i = 0; i < 2 * n; ++i) d[i] = d[i] > s[i] ? d[i] : s[i];
}

std::int64_t count_non_blank(const img::GrayA8* px, std::size_t n) {
  // 8-bit counters vectorize at full width and cannot overflow in a
  // block of at most 255 pixels. 224 = 7 vector steps of 32 pixels
  // leaves no scalar tail inside a block; it measured 30% faster than
  // 255-pixel blocks.
  constexpr std::size_t kBlock = 224;
  std::int64_t count = 0;
  for (std::size_t i = 0; i < n;) {
    const std::size_t end = n - i > kBlock ? i + kBlock : n;
    std::uint8_t block = 0;
    for (; i < end; ++i)
      block = static_cast<std::uint8_t>(block + (load(px + i) != 0));
    count += block;
  }
  return count;
}

void blank_mask(const img::GrayA8* px, std::size_t n, std::uint64_t* bits) {
  std::size_t w = 0;
  for (; 64 * w + 64 <= n; ++w) {
    const img::GrayA8* word_px = px + 64 * w;
    std::uint8_t flag[64];
    for (std::size_t i = 0; i < 64; ++i) flag[i] = load(word_px + i) != 0;
    // Packs 8 flag bytes (each 0 or 1) into their top byte: byte j of
    // x times byte 7-j of the constant lands on bit 56 + j, and no two
    // partial products share a bit, so nothing carries.
    std::uint64_t word = 0;
    for (std::size_t g = 0; g < 8; ++g) {
      std::uint64_t x;
      std::memcpy(&x, flag + 8 * g, sizeof x);
      word |= ((x * 0x0102040810204080ull) >> 56) << (8 * g);
    }
    bits[w] = word;
  }
  if (64 * w < n) {
    std::uint64_t word = 0;
    for (std::size_t i = 64 * w; i < n; ++i)
      word |= std::uint64_t{load(px + i) != 0} << (i & 63);
    bits[w] = word;
  }
}

/// 16-pixel over with 8-bit lanes unpacked to 16 bits; the unpack and
/// pack lane splits mirror each other, so the byte order round-trips.
inline __m256i over16(__m256i f, __m256i b) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i c255 = _mm256_set1_epi16(255);
  const __m256i c128 = _mm256_set1_epi16(128);
  const __m256i lo_byte = _mm256_set1_epi16(0x00ff);
  const auto half = [&](__m256i f16, __m256i b16) {
    // Lanes are [v0 a0 v1 a1 ...]; replicate each alpha onto its value
    // lane so one weight multiplies both channels.
    __m256i a = _mm256_shufflelo_epi16(f16, _MM_SHUFFLE(3, 3, 1, 1));
    a = _mm256_shufflehi_epi16(a, _MM_SHUFFLE(3, 3, 1, 1));
    const __m256i inv = _mm256_sub_epi16(c255, a);
    const __m256i t = _mm256_add_epi16(_mm256_mullo_epi16(b16, inv), c128);
    const __m256i r =
        _mm256_srli_epi16(_mm256_add_epi16(t, _mm256_srli_epi16(t, 8)), 8);
    return _mm256_and_si256(_mm256_add_epi16(f16, r), lo_byte);
  };
  return _mm256_packus_epi16(half(_mm256_unpacklo_epi8(f, zero),
                                  _mm256_unpacklo_epi8(b, zero)),
                             half(_mm256_unpackhi_epi8(f, zero),
                                  _mm256_unpackhi_epi8(b, zero)));
}

/// Splits 4 cells (32 payload bytes) into [row0 8px | row1 8px].
inline __m256i split_rows(__m256i cells4) {
  const __m256i idx = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
  return _mm256_permutevar8x32_epi32(cells4, idx);
}

/// blend16(s, d) blends 16 payload pixels into 16 row pixels;
/// blend(s, d) is the same on one pixel word, for the last k % 4 cells.
template <typename Blend16, typename Blend>
inline void fused_cells(img::GrayA8* row0, img::GrayA8* row1,
                        const std::byte* pay, std::size_t k,
                        Blend16&& blend16, Blend&& blend) {
  std::size_t c = 0;
  for (; c + 4 <= k; c += 4, pay += 32) {
    const __m256i s = split_rows(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pay)));
    const __m256i d = _mm256_set_m128i(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(row1 + 2 * c)),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(row0 + 2 * c)));
    const __m256i out = blend16(s, d);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(row0 + 2 * c),
                     _mm256_castsi256_si128(out));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(row1 + 2 * c),
                     _mm256_extracti128_si256(out, 1));
  }
  for (; c < k; ++c, pay += 8) {
    // Payload order (x,y), (x+1,y), (x,y+1), (x+1,y+1).
    img::GrayA8* d0 = row0 + 2 * c;
    img::GrayA8* d1 = row1 + 2 * c;
    store(d0, blend(load(pay), load(d0)));
    store(d0 + 1, blend(load(pay + 2), load(d0 + 1)));
    store(d1, blend(load(pay + 4), load(d1)));
    store(d1 + 1, blend(load(pay + 6), load(d1 + 1)));
  }
}

void fused_cells_over_front(img::GrayA8* row0, img::GrayA8* row1,
                            const std::byte* pay, std::size_t k) {
  fused_cells(
      row0, row1, pay, k, [](__m256i s, __m256i d) { return over16(s, d); },
      [](Word s, Word d) { return over(s, d); });
}

void fused_cells_over_back(img::GrayA8* row0, img::GrayA8* row1,
                           const std::byte* pay, std::size_t k) {
  fused_cells(
      row0, row1, pay, k, [](__m256i s, __m256i d) { return over16(d, s); },
      [](Word s, Word d) { return over(d, s); });
}

void fused_cells_max(img::GrayA8* row0, img::GrayA8* row1,
                     const std::byte* pay, std::size_t k) {
  fused_cells(
      row0, row1, pay, k,
      [](__m256i s, __m256i d) { return _mm256_max_epu8(s, d); },
      [](Word s, Word d) { return max(s, d); });
}

/// CRC-32 state (pre-inverted, as in the bytewise loop) after folding
/// n bytes, n >= 64 and a multiple of 16: four 128-bit lanes fold 64
/// bytes per step, are folded into one lane, then the remaining 16-byte
/// blocks, and the 128-bit remainder is reduced to 32 bits by a 64-bit
/// fold and a Barrett reduction. The constants are those of Gopal et
/// al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction" (Intel, 2009) for the reflected polynomial 0xEDB88320,
/// as zlib and Linux crc32-pclmul use them: fold distances x^k mod P(x)
/// and the Barrett pair P(x), floor(x^64 / P(x)), all bit-reflected.
std::uint32_t crc32_fold(std::uint32_t state, const std::byte* p,
                         std::size_t n) {
  const auto load16 = [](const std::byte* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };
  // fold(x, k, y) = x.lo * k.lo ^ x.hi * k.hi ^ y (carry-less).
  const auto fold = [](__m128i x, __m128i k, __m128i y) {
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                       _mm_clmulepi64_si128(x, k, 0x11)),
                         y);
  };
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(load16(p),
                             _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = load16(p + 16);
  __m128i x3 = load16(p + 32);
  __m128i x4 = load16(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold(x1, k1k2, load16(p));
    x2 = fold(x2, k1k2, load16(p + 16));
    x3 = fold(x3, k1k2, load16(p + 32));
    x4 = fold(x4, k1k2, load16(p + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold(x1, k3k4, load16(p));

  // 128 -> 64 bits, then 64 -> 32 + 32 for the Barrett step.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_srli_si128(x1, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

/// Folds the 16-byte blocks of inputs of at least 64 bytes; the tail
/// (and any shorter input) goes through the scalar bytewise table.
std::uint32_t crc32(std::uint32_t crc, const std::byte* data,
                    std::size_t n) {
  const Crc32Fn bytewise = detail::scalar_kernels().crc32;
  if (n < 64) return bytewise(crc, data, n);
  const std::size_t folded = n & ~std::size_t{15};
  crc = ~crc32_fold(~crc, data, folded);
  return bytewise(crc, data + folded, n - folded);
}

}  // namespace

namespace detail {

const Kernels& avx2_kernels() {
  static const Kernels k{
      over_front,      over_back,
      max_blend,       count_non_blank,
      blank_mask,      fused_cells_over_front,
      fused_cells_over_back, fused_cells_max,
      crc32,
  };
  return k;
}

}  // namespace detail
}  // namespace rtc::simd

#else  // no AVX2 at build time: the table aliases scalar and is never
       // selected (detected_level() reports kAvx2 only when this file
       // was built with -mavx2 -mpclmul).

namespace rtc::simd::detail {
const Kernels& avx2_kernels() { return scalar_kernels(); }
}  // namespace rtc::simd::detail

#endif

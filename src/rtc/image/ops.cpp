#include "rtc/image/ops.hpp"

#include <algorithm>
#include <cstdlib>

#include "rtc/common/check.hpp"
#include "rtc/simd/kernels.hpp"

namespace rtc::img {

void over_in_place_front(std::span<GrayA8> dst, std::span<const GrayA8> src) {
  RTC_CHECK(dst.size() == src.size());
  if (!dst.empty())
    simd::kernels().over_front(dst.data(), src.data(), dst.size());
}

void over_in_place_back(std::span<GrayA8> dst, std::span<const GrayA8> src) {
  RTC_CHECK(dst.size() == src.size());
  if (!dst.empty())
    simd::kernels().over_back(dst.data(), src.data(), dst.size());
}

void max_in_place(std::span<GrayA8> dst, std::span<const GrayA8> src) {
  RTC_CHECK(dst.size() == src.size());
  if (!dst.empty())
    simd::kernels().max_blend(dst.data(), src.data(), dst.size());
}

void blend_in_place(std::span<GrayA8> dst, std::span<const GrayA8> src,
                    BlendMode mode, bool src_front) {
  switch (mode) {
    case BlendMode::kOver:
      if (src_front) {
        over_in_place_front(dst, src);
      } else {
        over_in_place_back(dst, src);
      }
      break;
    case BlendMode::kMax:
      max_in_place(dst, src);
      break;
  }
}

int blend_threads() { return 1; }

ApproxBlendStats blend_in_place_approx(std::span<GrayA8> dst,
                                       std::span<const GrayA8> src,
                                       bool src_front, int saturation) {
  RTC_CHECK(dst.size() == src.size());
  if (saturation <= 0) {
    blend_in_place(dst, src, BlendMode::kOver, src_front);
    return {static_cast<std::int64_t>(dst.size()), 0};
  }
  const auto sat = static_cast<std::uint8_t>(std::min(saturation, 255));
  ApproxBlendStats stats;
  if (src_front) {
    for (std::size_t i = 0; i < dst.size(); ++i) {
      if (src[i].a >= sat) {
        dst[i] = src[i];
        ++stats.skipped;
      } else {
        dst[i] = over(src[i], dst[i]);
        ++stats.blended;
      }
    }
  } else {
    for (std::size_t i = 0; i < dst.size(); ++i) {
      if (dst[i].a >= sat) {
        ++stats.skipped;
      } else {
        dst[i] = over(dst[i], src[i]);
        ++stats.blended;
      }
    }
  }
  return stats;
}

Image downsample(const Image& src, int factor) {
  RTC_CHECK(factor >= 1);
  const int cw = (src.width() + factor - 1) / factor;
  const int ch = (src.height() + factor - 1) / factor;
  Image out(cw, ch);
  for (int cy = 0; cy < ch; ++cy) {
    for (int cx = 0; cx < cw; ++cx) {
      const int x0 = cx * factor;
      const int y0 = cy * factor;
      const int x1 = std::min(src.width(), x0 + factor);
      const int y1 = std::min(src.height(), y0 + factor);
      std::uint32_t sv = 0, sa = 0;
      for (int y = y0; y < y1; ++y) {
        for (int x = x0; x < x1; ++x) {
          sv += src.at(x, y).v;
          sa += src.at(x, y).a;
        }
      }
      const auto n = static_cast<std::uint32_t>((x1 - x0) * (y1 - y0));
      out.at(cx, cy) = GrayA8{static_cast<std::uint8_t>((sv + n / 2) / n),
                              static_cast<std::uint8_t>((sa + n / 2) / n)};
    }
  }
  return out;
}

Image upsample(const Image& coarse, int factor, int width, int height) {
  RTC_CHECK(factor >= 1);
  RTC_CHECK(coarse.width() == (width + factor - 1) / factor &&
            coarse.height() == (height + factor - 1) / factor);
  Image out(width, height);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      out.at(x, y) = coarse.at(x / factor, y / factor);
    }
  }
  return out;
}

std::int64_t count_non_blank(std::span<const GrayA8> px) {
  if (px.empty()) return 0;
  return simd::kernels().count_non_blank(px.data(), px.size());
}

int max_channel_diff(std::span<const GrayA8> a, std::span<const GrayA8> b) {
  RTC_CHECK(a.size() == b.size());
  int worst = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(int{a[i].v} - int{b[i].v}));
    worst = std::max(worst, std::abs(int{a[i].a} - int{b[i].a}));
  }
  return worst;
}

int max_channel_diff(const Image& a, const Image& b) {
  RTC_CHECK(a.width() == b.width() && a.height() == b.height());
  return max_channel_diff(a.pixels(), b.pixels());
}

Image composite_reference(std::span<const Image> parts, BlendMode mode) {
  RTC_CHECK(!parts.empty());
  Image out = parts[0];
  for (std::size_t r = 1; r < parts.size(); ++r) {
    RTC_CHECK(parts[r].width() == out.width() &&
              parts[r].height() == out.height());
    blend_in_place(out.pixels(), parts[r].pixels(), mode,
                   /*src_front=*/false);
  }
  return out;
}

}  // namespace rtc::img

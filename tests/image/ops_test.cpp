#include "rtc/image/ops.hpp"

#include <gtest/gtest.h>

#include <random>

#include "rtc/common/check.hpp"

namespace rtc::img {
namespace {

Image random_image(int w, int h, std::uint32_t seed, bool binary_alpha) {
  Image img(w, h);
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dist(0, 255);
  for (GrayA8& p : img.pixels()) {
    if (binary_alpha) {
      const bool opaque = dist(rng) % 3 != 0;
      p = opaque ? GrayA8{static_cast<std::uint8_t>(dist(rng)), 255} : kBlank;
    } else {
      p.a = static_cast<std::uint8_t>(dist(rng));
      p.v = static_cast<std::uint8_t>(dist(rng) % (p.a + 1));
    }
  }
  return img;
}

TEST(Ops, OverInPlaceFrontMatchesPixelOver) {
  Image dst = random_image(16, 16, 1, false);
  const Image src = random_image(16, 16, 2, false);
  const Image orig = dst;
  over_in_place_front(dst.pixels(), src.pixels());
  for (std::int64_t i = 0; i < dst.pixel_count(); ++i) {
    EXPECT_EQ(dst.pixels()[static_cast<std::size_t>(i)],
              over(src.pixels()[static_cast<std::size_t>(i)],
                   orig.pixels()[static_cast<std::size_t>(i)]));
  }
}

TEST(Ops, OverInPlaceBackMatchesPixelOver) {
  Image dst = random_image(16, 16, 3, false);
  const Image src = random_image(16, 16, 4, false);
  const Image orig = dst;
  over_in_place_back(dst.pixels(), src.pixels());
  for (std::int64_t i = 0; i < dst.pixel_count(); ++i) {
    EXPECT_EQ(dst.pixels()[static_cast<std::size_t>(i)],
              over(orig.pixels()[static_cast<std::size_t>(i)],
                   src.pixels()[static_cast<std::size_t>(i)]));
  }
}

TEST(Ops, SizeMismatchThrows) {
  Image a(4, 4);
  Image b(4, 5);
  EXPECT_THROW(over_in_place_front(a.pixels(), b.pixels()), ContractError);
}

TEST(Ops, CountNonBlank) {
  Image img(8, 1);
  EXPECT_EQ(count_non_blank(img.pixels()), 0);
  img.at(3, 0) = GrayA8{10, 255};
  img.at(5, 0) = GrayA8{0, 1};
  EXPECT_EQ(count_non_blank(img.pixels()), 2);
}

TEST(Ops, MaxChannelDiff) {
  Image a = random_image(8, 8, 5, false);
  Image b = a;
  EXPECT_EQ(max_channel_diff(a, b), 0);
  b.at(2, 2).v = static_cast<std::uint8_t>(b.at(2, 2).v ^ 0x08);
  EXPECT_GT(max_channel_diff(a, b), 0);
}

TEST(Ops, CompositeReferenceFrontToBack) {
  // Front part opaque where it covers; reference keeps the front.
  Image front(4, 1);
  front.at(0, 0) = GrayA8{100, 255};
  Image back(4, 1);
  back.at(0, 0) = GrayA8{200, 255};
  back.at(1, 0) = GrayA8{50, 255};
  const Image parts[] = {front, back};
  const Image out = composite_reference(parts);
  EXPECT_EQ(out.at(0, 0), (GrayA8{100, 255}));
  EXPECT_EQ(out.at(1, 0), (GrayA8{50, 255}));
  EXPECT_EQ(out.at(2, 0), kBlank);
}

TEST(Ops, CompositeReferenceAssociatesLeft) {
  std::vector<Image> parts;
  for (int r = 0; r < 5; ++r) parts.push_back(random_image(8, 8, 10u + static_cast<std::uint32_t>(r), true));
  const Image all = composite_reference(parts);
  // Folding the first two, then the rest, gives the same image for
  // binary-alpha pixels (exact associativity).
  Image head = composite_reference(std::span<const Image>(parts.data(), 2));
  std::vector<Image> rest = {head, parts[2], parts[3], parts[4]};
  EXPECT_EQ(max_channel_diff(all, composite_reference(rest)), 0);
}

}  // namespace
}  // namespace rtc::img

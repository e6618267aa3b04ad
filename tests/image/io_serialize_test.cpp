#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>

#include "rtc/common/check.hpp"
#include "rtc/common/wire.hpp"
#include "rtc/image/io.hpp"
#include "rtc/image/ops.hpp"
#include "rtc/image/serialize.hpp"

namespace rtc::img {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(Serialize, RoundTrip) {
  std::mt19937 rng(21);
  std::uniform_int_distribution<int> dist(0, 255);
  // Empty, odd and even pixel counts; each pixel is (v, a) on the wire.
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{3}, std::size_t{17},
                              std::size_t{1000}, std::size_t{1001}}) {
    std::vector<GrayA8> px(n);
    for (GrayA8& p : px) {
      p.v = static_cast<std::uint8_t>(dist(rng));
      p.a = static_cast<std::uint8_t>(dist(rng));
    }
    const std::vector<std::byte> bytes = serialize_pixels(px);
    ASSERT_EQ(bytes.size(), px.size() * kBytesPerPixel);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(bytes[2 * i], static_cast<std::byte>(px[i].v)) << i;
      EXPECT_EQ(bytes[2 * i + 1], static_cast<std::byte>(px[i].a)) << i;
    }
    std::vector<GrayA8> out(px.size());
    deserialize_pixels(bytes, out);
    EXPECT_EQ(px, out) << "n=" << n;
  }
}

TEST(Serialize, IntoAppendsAfterExistingBytes) {
  std::vector<std::byte> out{std::byte{0xAA}, std::byte{0xBB},
                             std::byte{0xCC}};
  const std::vector<GrayA8> px{{1, 2}, {3, 4}, {5, 6}};
  serialize_pixels_into(px, out);
  const std::vector<std::byte> want{
      std::byte{0xAA}, std::byte{0xBB}, std::byte{0xCC}, std::byte{1},
      std::byte{2},    std::byte{3},    std::byte{4},    std::byte{5},
      std::byte{6}};
  EXPECT_EQ(out, want);
  serialize_pixels_into({}, out);
  EXPECT_EQ(out, want);
}

TEST(Serialize, SizeMismatchThrows) {
  std::vector<GrayA8> out(4);  // needs 8 bytes
  for (const std::size_t size : {std::size_t{0}, std::size_t{7},
                                 std::size_t{10}}) {
    const std::vector<std::byte> bytes(size);
    try {
      deserialize_pixels(bytes, out);
      ADD_FAILURE() << "no throw for " << size << " bytes";
    } catch (const wire::DecodeError& e) {
      EXPECT_EQ(e.kind(), wire::DecodeError::Kind::kMismatch) << size;
    }
  }
}

TEST(Io, PgmRoundTripOfOpaqueImage) {
  Image img(17, 9);
  std::mt19937 rng(5);
  std::uniform_int_distribution<int> dist(1, 255);
  for (GrayA8& p : img.pixels())
    p = GrayA8{static_cast<std::uint8_t>(dist(rng)), 255};
  const std::string path = temp_path("roundtrip.pgm");
  write_pgm(img, path);
  const Image back = read_pgm(path);
  EXPECT_EQ(back.width(), img.width());
  EXPECT_EQ(back.height(), img.height());
  EXPECT_EQ(max_channel_diff(img, back), 0);
  std::remove(path.c_str());
}

TEST(Io, ReadMissingFileThrows) {
  EXPECT_THROW(read_pgm("/nonexistent/nowhere.pgm"), ContractError);
}

TEST(Io, AlphaSideBySideDoublesWidth) {
  Image img(6, 4);
  const std::string path = temp_path("alpha.pgm");
  write_pgm_with_alpha(img, path);
  const Image back = read_pgm(path);
  EXPECT_EQ(back.width(), 12);
  EXPECT_EQ(back.height(), 4);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rtc::img

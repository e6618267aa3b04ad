#include "rtc/image/serialize.hpp"

#include <cstddef>
#include <cstring>
#include <type_traits>

#include "rtc/common/wire.hpp"

namespace rtc::img {

// The wire layout (value, alpha) per pixel is GrayA8's own object
// representation, so a pixel block is one block copy either way.
static_assert(sizeof(GrayA8) == kBytesPerPixel);
static_assert(std::is_trivially_copyable_v<GrayA8>);
static_assert(offsetof(GrayA8, v) == 0);

void serialize_pixels_into(std::span<const GrayA8> px,
                           std::vector<std::byte>& out) {
  const auto* bytes = reinterpret_cast<const std::byte*>(px.data());
  out.reserve(out.size() + px.size_bytes());
  out.insert(out.end(), bytes, bytes + px.size_bytes());
}

std::vector<std::byte> serialize_pixels(std::span<const GrayA8> px) {
  std::vector<std::byte> out;
  serialize_pixels_into(px, out);
  return out;
}

void deserialize_pixels(std::span<const std::byte> bytes,
                        std::span<GrayA8> px) {
  wire::require(bytes.size() == px.size() * kBytesPerPixel,
                wire::DecodeError::Kind::kMismatch,
                "raw pixel payload size");
  if (!px.empty()) std::memcpy(px.data(), bytes.data(), bytes.size());
}

}  // namespace rtc::img

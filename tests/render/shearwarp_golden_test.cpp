// Byte-identity goldens for render_shearwarp partials.
//
// Each case folds every partial of one (view, mode) pair — slab, grid
// and balanced partitions at P in {1, 7, 32} — into one FNV-1a digest
// of the raw gray+alpha bytes. The digests were pinned before the
// warp learned to skip screen pixels outside a partial's footprint, so
// they prove that optimisation exact: any pixel it got wrong moves a
// digest. The views reach each principal axis with both ray signs,
// plus two exactly axis-aligned views (integer warp coordinates).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "rtc/partition/partition.hpp"
#include "rtc/render/renderer.hpp"
#include "rtc/volume/phantom.hpp"

namespace rtc::render {
namespace {

constexpr int kVolume = 32;
constexpr int kImage = 80;

struct View {
  double yaw = 0.0;
  double pitch = 0.0;
};

// +z, -z, +x, -x, +y, -y, then the two axis-aligned views.
const View kViews[] = {{20.0, 10.0},  {200.0, 10.0}, {70.0, -10.0},
                       {250.0, 15.0}, {30.0, 70.0},  {120.0, -70.0},
                       {0.0, 0.0},    {90.0, 0.0}};

void fnv1a(std::uint64_t& h, const img::Image& im) {
  for (const img::GrayA8& p : im.pixels()) {
    for (const std::uint8_t byte : {p.v, p.a}) {
      h ^= byte;
      h *= 1099511628211ull;
    }
  }
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

struct Fixture {
  vol::Volume volume = vol::make_phantom("engine", kVolume);
  vol::TransferFunction tf = vol::phantom_transfer("engine");
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

OrthoCamera camera(const View& view, int size, double scale) {
  return centered_camera(kVolume, kVolume, kVolume, view.yaw, view.pitch,
                         size, scale);
}

/// The three partition schemes the harness offers, for `ranks` ranks.
std::vector<std::vector<vol::Brick>> partitions(int ranks, int c_ax) {
  const Fixture& fx = fixture();
  const vol::Brick bounds = fx.volume.bounds();
  return {part::slab_1d(bounds, ranks, c_ax),
          part::grid_2d(bounds, ranks, (c_ax + 1) % 3, (c_ax + 2) % 3),
          part::balanced_slab_1d(fx.volume, fx.tf, ranks, c_ax)};
}

/// Digest of every partial of every partition at P in {1, 7, 32}.
std::uint64_t view_digest(const OrthoCamera& cam, RenderMode mode) {
  const Fixture& fx = fixture();
  const int c_ax = principal_axis(cam.direction());
  std::uint64_t h = kFnvBasis;
  for (const int ranks : {1, 7, 32}) {
    for (const auto& bricks : partitions(ranks, c_ax)) {
      for (const vol::Brick& b : bricks)
        fnv1a(h, render_shearwarp(fx.volume, fx.tf, b, cam, mode));
    }
  }
  return h;
}

std::string hex(std::uint64_t h) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

TEST(ShearWarpGolden, ViewsReachEveryAxisWithBothSigns) {
  int seen = 0;
  for (const View& v : kViews) {
    const Vec3 d = camera(v, kImage, 1.0).direction();
    const int c = principal_axis(d);
    seen |= 1 << (2 * c + (d[c] > 0.0 ? 0 : 1));
  }
  EXPECT_EQ(seen, 0x3f);
}

TEST(ShearWarpGolden, CompositeAndMipPartialsArePinned) {
  const std::uint64_t kComposite[] = {
      0x3a0fc7307a7d3132ull, 0xdcb4e9d2808fa10eull, 0x451e988b8410b084ull,
      0xfd80d8763acb4a14ull, 0xfd83feba9ca9fb53ull, 0x35a03bb82d6e5de4ull,
      0xa93d259a80d29dfbull, 0x522af8dd4e5da31full};
  const std::uint64_t kMip[] = {
      0xb3c11ad6409041e4ull, 0x6250b6133d5e8db1ull, 0x4220a0a232a992c5ull,
      0x2181f2efde1b8306ull, 0x37080a733062ca72ull, 0x309815af9227ab49ull,
      0xec72df8b04f80141ull, 0xb8cfaa3f97c6287dull};
  const double scale = kImage / (1.9 * kVolume);
  for (std::size_t i = 0; i < std::size(kViews); ++i) {
    const OrthoCamera cam = camera(kViews[i], kImage, scale);
    EXPECT_EQ(hex(view_digest(cam, RenderMode::kComposite)),
              hex(kComposite[i]))
        << "composite, yaw " << kViews[i].yaw << " pitch "
        << kViews[i].pitch;
    EXPECT_EQ(hex(view_digest(cam, RenderMode::kMip)), hex(kMip[i]))
        << "mip, yaw " << kViews[i].yaw << " pitch " << kViews[i].pitch;
  }
}

TEST(ShearWarpGolden, ViewportSmallerThanVolumeIsPinned) {
  // At 3 px per voxel a 32^3 volume projects to ~150 px, well past a
  // 48 px viewport on every side: the screen box must clamp.
  const std::uint64_t kClamped[] = {
      0xdd5aa75705a2616cull, 0x9374df646ec3750dull, 0xbc8a0475cdf5bf3cull};
  for (std::size_t i = 0; i < std::size(kClamped); ++i) {
    const OrthoCamera cam = camera(kViews[2 * i], 48, 3.0);
    EXPECT_EQ(hex(view_digest(cam, RenderMode::kComposite)),
              hex(kClamped[i]))
        << "yaw " << kViews[2 * i].yaw;
  }
}

TEST(ShearWarpGolden, EmptyBricksRenderBlank) {
  const Fixture& fx = fixture();
  const OrthoCamera cam =
      camera(kViews[0], kImage, kImage / (1.9 * kVolume));
  // A zero-extent brick, and a corner brick the engine leaves empty.
  const vol::Brick zero{4, 4, 0, kVolume, 0, kVolume};
  const vol::Brick corner{0, 2, 0, 2, 0, 2};
  ASSERT_EQ(part::solid_voxels(fx.volume, fx.tf, corner), 0);
  for (const vol::Brick& b : {zero, corner}) {
    for (const RenderMode mode : {RenderMode::kComposite, RenderMode::kMip}) {
      const img::Image im = render_shearwarp(fx.volume, fx.tf, b, cam, mode);
      ASSERT_EQ(im.width(), kImage);
      ASSERT_EQ(im.height(), kImage);
      for (const img::GrayA8& p : im.pixels()) {
        ASSERT_EQ(p.v, 0);
        ASSERT_EQ(p.a, 0);
      }
    }
  }
}

}  // namespace
}  // namespace rtc::render

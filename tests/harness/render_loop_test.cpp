// The render stage's shared per-brick loop (harness::render_bricks)
// runs bricks across threads; its output must not depend on that.
// render_scene and render_view are checked against serial per-brick
// renderer calls in visibility order, for every renderer and for rank
// counts below, above and not a multiple of the worker count.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "rtc/common/check.hpp"
#include "rtc/frames/pipeline.hpp"
#include "rtc/harness/scene.hpp"
#include "rtc/partition/partition.hpp"
#include "rtc/render/renderer.hpp"

namespace rtc::harness {
namespace {

constexpr int kVolume = 64;
constexpr int kImage = 64;
constexpr int kRankCounts[] = {1, 3, 7, 64};

/// Serial reference: one renderer call per brick, front to back.
RenderedScene serial(const Scene& s, const std::vector<vol::Brick>& bricks,
                     const std::string& renderer,
                     render::RenderMode mode = render::RenderMode::kComposite) {
  const render::Vec3 d = s.camera.direction();
  const double dir[3] = {d.x, d.y, d.z};
  RenderedScene rs;
  for (const int i : part::visibility_order(bricks, dir)) {
    const vol::Brick& b = bricks[static_cast<std::size_t>(i)];
    rs.bricks.push_back(b);
    rs.solid_voxels.push_back(part::solid_voxels(s.volume, s.tf, b));
    rs.total_voxels.push_back(b.voxels());
    rs.partials.push_back(
        renderer == "raycast"
            ? render::render_raycast(s.volume, s.tf, b, s.camera, mode)
        : renderer == "splat"
            ? render::render_splat(s.volume, s.tf, b, s.camera, mode)
            : render::render_shearwarp(s.volume, s.tf, b, s.camera, mode));
  }
  return rs;
}

void expect_same(const RenderedScene& got, const RenderedScene& want) {
  EXPECT_TRUE(got.bricks == want.bricks);
  ASSERT_EQ(got.partials.size(), want.partials.size());
  for (std::size_t r = 0; r < want.partials.size(); ++r)
    EXPECT_TRUE(got.partials[r] == want.partials[r]) << "partial " << r;
  EXPECT_EQ(got.solid_voxels, want.solid_voxels);
  EXPECT_EQ(got.total_voxels, want.total_voxels);
}

TEST(RenderLoop, RenderViewMatchesSerialForEveryRenderer) {
  const Scene scene = make_scene("engine", kVolume, kImage, 35.0, 20.0);
  for (const std::string renderer : {"shearwarp", "raycast", "splat"}) {
    for (const int ranks : kRankCounts) {
      frames::ViewSpec view;
      view.volume_n = kVolume;
      view.image_size = kImage;
      view.yaw_deg = 35.0;
      view.pitch_deg = 20.0;
      view.renderer = renderer;
      int axis = -1;
      const RenderedScene got = frames::render_view(view, ranks, axis);
      EXPECT_EQ(axis, render::principal_axis(scene.camera.direction()));
      const RenderedScene want = serial(
          scene, part::balanced_slab_1d(scene.volume, scene.tf, ranks, axis),
          renderer);
      SCOPED_TRACE(renderer + " P=" + std::to_string(ranks));
      expect_same(got, want);
    }
  }
}

TEST(RenderLoop, RenderViewOverASharedSceneMatchesOneBuiltPerView) {
  const Scene scene = make_scene("engine", kVolume, kImage);
  frames::ViewSpec view;
  view.volume_n = kVolume;
  view.image_size = kImage;
  for (const double yaw : {0.0, 100.0, 230.0}) {
    view.yaw_deg = yaw;
    int a = -1, b = -1;
    expect_same(frames::render_view(scene, view, 7, a),
                frames::render_view(view, 7, b));
    EXPECT_EQ(a, b);
  }
  view.dataset = "brain";
  int axis = -1;
  EXPECT_THROW((void)frames::render_view(scene, view, 7, axis),
               ContractError);
}

TEST(RenderLoop, RenderSceneMatchesSerialForEveryPartition) {
  const Scene scene = make_scene("engine", kVolume, kImage, 200.0, -25.0);
  const int c_ax = render::principal_axis(scene.camera.direction());
  for (const bool shearwarp : {true, false}) {
    for (const int ranks : kRankCounts) {
      const std::pair<PartitionKind, std::vector<vol::Brick>> kinds[] = {
          {PartitionKind::kSlab1D,
           part::slab_1d(scene.volume.bounds(), ranks, c_ax)},
          {PartitionKind::kGrid2D,
           part::grid_2d(scene.volume.bounds(), ranks, (c_ax + 1) % 3,
                         (c_ax + 2) % 3)},
          {PartitionKind::kBalanced1D,
           part::balanced_slab_1d(scene.volume, scene.tf, ranks, c_ax)}};
      for (const auto& [kind, bricks] : kinds) {
        SCOPED_TRACE("kind " + std::to_string(static_cast<int>(kind)) +
                     " P=" + std::to_string(ranks));
        expect_same(render_scene(scene, ranks, kind, shearwarp),
                    serial(scene, bricks,
                           shearwarp ? "shearwarp" : "raycast"));
      }
    }
  }
}

TEST(RenderLoop, MipModeReachesEveryRenderer) {
  const Scene scene = make_scene("engine", kVolume, kImage, 290.0, 10.0);
  const int c_ax = render::principal_axis(scene.camera.direction());
  const auto bricks = part::slab_1d(scene.volume.bounds(), 7, c_ax);
  for (const std::string name : {"shearwarp", "raycast", "splat"}) {
    SCOPED_TRACE(name);
    expect_same(render_bricks(scene.volume, scene.tf, scene.camera,
                              depth_ordered(bricks, scene.camera),
                              renderer_named(name), render::RenderMode::kMip),
                serial(scene, bricks, name, render::RenderMode::kMip));
  }
}

TEST(RenderLoop, WorkerContractFailureReachesTheCaller) {
  // A zero-scale camera makes the shear-warp's warp degenerate, which
  // RTC_CHECK reports from inside the worker rendering that brick.
  Scene scene = make_scene("engine", kVolume, kImage);
  scene.camera.scale = 0.0;
  const int c_ax = render::principal_axis(scene.camera.direction());
  for (const int ranks : kRankCounts) {
    std::vector<vol::Brick> bricks =
        part::slab_1d(scene.volume.bounds(), ranks, c_ax);
    EXPECT_THROW((void)render_bricks(scene.volume, scene.tf, scene.camera,
                                     bricks, Renderer::kShearWarp),
                 ContractError)
        << "P=" << ranks;
    // Zero-extent bricks render blank without reaching the check, so
    // only the last of these bricks fails.
    for (vol::Brick& b : bricks) b.x1 = b.x0;
    bricks.back() = scene.volume.bounds();
    EXPECT_THROW((void)render_bricks(scene.volume, scene.tf, scene.camera,
                                     bricks, Renderer::kShearWarp),
                 ContractError)
        << "P=" << ranks;
  }
}

}  // namespace
}  // namespace rtc::harness

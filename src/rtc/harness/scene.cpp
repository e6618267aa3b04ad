#include "rtc/harness/scene.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>

#include "rtc/common/check.hpp"
#include "rtc/partition/partition.hpp"
#include "rtc/render/renderer.hpp"
#include "rtc/volume/phantom.hpp"

namespace rtc::harness {

Scene make_scene(const std::string& dataset, int volume_n, int image_size,
                 double yaw_deg, double pitch_deg) {
  Scene s{dataset, vol::make_phantom(dataset, volume_n),
          vol::phantom_transfer(dataset),
          render::centered_camera(volume_n, volume_n, volume_n, yaw_deg,
                                  pitch_deg, image_size,
                                  /*scale=*/image_size /
                                      (1.9 * volume_n))};
  return s;
}

std::vector<vol::Brick> depth_ordered(const std::vector<vol::Brick>& bricks,
                                      const render::OrthoCamera& cam) {
  const render::Vec3 d = cam.direction();
  const double dir[3] = {d.x, d.y, d.z};
  std::vector<vol::Brick> out;
  out.reserve(bricks.size());
  for (const int i : part::visibility_order(bricks, dir))
    out.push_back(bricks[static_cast<std::size_t>(i)]);
  return out;
}

Renderer renderer_named(const std::string& name) {
  if (name == "raycast") return Renderer::kRaycast;
  if (name == "splat") return Renderer::kSplat;
  return Renderer::kShearWarp;
}

RenderedScene render_bricks(const vol::Volume& volume,
                            const vol::TransferFunction& tf,
                            const render::OrthoCamera& cam,
                            std::vector<vol::Brick> bricks,
                            Renderer renderer, render::RenderMode mode) {
  const std::size_t n = bricks.size();
  RenderedScene rs;
  rs.partials.resize(n);
  rs.solid_voxels.resize(n);
  rs.total_voxels.resize(n);
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        const vol::Brick& b = bricks[i];
        rs.solid_voxels[i] = part::solid_voxels(volume, tf, b);
        rs.total_voxels[i] = b.voxels();
        switch (renderer) {
          case Renderer::kShearWarp:
            rs.partials[i] = render::render_shearwarp(volume, tf, b, cam, mode);
            break;
          case Renderer::kRaycast:
            rs.partials[i] = render::render_raycast(volume, tf, b, cam, mode);
            break;
          case Renderer::kSplat:
            rs.partials[i] = render::render_splat(volume, tf, b, cam, mode);
            break;
        }
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };

  const std::size_t workers = std::min<std::size_t>(
      n, std::max(1u, std::thread::hardware_concurrency()));
  // Reserved up front so that no reallocation can throw while a started
  // thread is still unjoined.
  std::vector<std::thread> helpers;
  helpers.reserve(workers);
  try {
    for (std::size_t t = 1; t < workers; ++t) helpers.emplace_back(work);
  } catch (const std::system_error&) {
    // Fewer helpers only costs parallelism: the calling thread below
    // still drains the counter.
  }
  work();
  for (std::thread& t : helpers) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  rs.bricks = std::move(bricks);
  return rs;
}

RenderedScene render_scene(const Scene& scene, int ranks,
                           PartitionKind kind, bool shearwarp) {
  RTC_CHECK(ranks >= 1);
  const int c_ax = render::principal_axis(scene.camera.direction());
  const vol::Brick bounds = scene.volume.bounds();

  std::vector<vol::Brick> bricks;
  switch (kind) {
    case PartitionKind::kSlab1D:
      bricks = part::slab_1d(bounds, ranks, c_ax);
      break;
    case PartitionKind::kGrid2D:
      bricks = part::grid_2d(bounds, ranks, (c_ax + 1) % 3, (c_ax + 2) % 3);
      break;
    case PartitionKind::kBalanced1D:
      bricks = part::balanced_slab_1d(scene.volume, scene.tf, ranks, c_ax);
      break;
  }
  return render_bricks(scene.volume, scene.tf, scene.camera,
                       depth_ordered(bricks, scene.camera),
                       shearwarp ? Renderer::kShearWarp : Renderer::kRaycast);
}

std::vector<img::Image> render_partials(const Scene& scene, int ranks,
                                        PartitionKind kind, bool shearwarp) {
  return render_scene(scene, ranks, kind, shearwarp).partials;
}

double render_stage_time(const RenderedScene& rs, double t_solid_voxel,
                         double t_any_voxel) {
  double worst = 0.0;
  for (std::size_t r = 0; r < rs.solid_voxels.size(); ++r) {
    const double t =
        t_solid_voxel * static_cast<double>(rs.solid_voxels[r]) +
        t_any_voxel * static_cast<double>(rs.total_voxels[r]);
    worst = std::max(worst, t);
  }
  return worst;
}

}  // namespace rtc::harness

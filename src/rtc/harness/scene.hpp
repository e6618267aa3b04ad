// Scene setup: dataset -> camera -> per-rank partial images.
//
// This is the paper's first two pipeline stages (data partitioning and
// rendering) packaged for the composition experiments: pick a test
// sample, partition the volume 1-D or 2-D, render each rank's brick
// with shear-warp, and hand back the partial images in visibility
// order (rank 0 front-most).
#pragma once

#include <string>
#include <vector>

#include "rtc/image/image.hpp"
#include "rtc/render/camera.hpp"
#include "rtc/render/renderer.hpp"
#include "rtc/volume/transfer.hpp"
#include "rtc/volume/volume.hpp"

namespace rtc::harness {

struct Scene {
  std::string name;
  vol::Volume volume;
  vol::TransferFunction tf;
  render::OrthoCamera camera;
};

/// Builds a scene for a paper dataset name ("engine", "brain", "head").
/// `volume_n` is the phantom resolution, `image_size` the raster size
/// (the paper uses 512x512).
[[nodiscard]] Scene make_scene(const std::string& dataset, int volume_n,
                               int image_size, double yaw_deg = 30.0,
                               double pitch_deg = 20.0);

enum class PartitionKind {
  kSlab1D,      ///< uniform slabs along the principal view axis
  kGrid2D,      ///< near-square grid over the two non-principal axes
  kBalanced1D   ///< workload-balanced slabs (companion paper [15])
};

/// Renders `ranks` partial images in front-to-back visibility order.
/// `shearwarp` false selects the cross-check ray-caster instead.
[[nodiscard]] std::vector<img::Image> render_partials(
    const Scene& scene, int ranks, PartitionKind kind,
    bool shearwarp = true);

/// Everything the rendering stage produced, for whole-frame analyses.
struct RenderedScene {
  std::vector<img::Image> partials;          ///< depth-ordered
  std::vector<vol::Brick> bricks;            ///< depth-ordered
  std::vector<std::int64_t> solid_voxels;    ///< per rank workload
  std::vector<std::int64_t> total_voxels;    ///< per rank brick size
};

[[nodiscard]] RenderedScene render_scene(const Scene& scene, int ranks,
                                         PartitionKind kind,
                                         bool shearwarp = true);

enum class Renderer { kShearWarp, kRaycast, kSplat };

/// "raycast" and "splat" name those renderers; any other name is the
/// paper's shear-warp.
[[nodiscard]] Renderer renderer_named(const std::string& name);

/// `bricks` sorted front to back for rays along cam.direction().
[[nodiscard]] std::vector<vol::Brick> depth_ordered(
    const std::vector<vol::Brick>& bricks, const render::OrthoCamera& cam);

/// The render stage's one per-brick loop: renders depth-ordered brick i
/// into slot i, on min(bricks, hardware threads) threads that each
/// take the next index from a shared counter. The result equals serial
/// per-brick calls in order. A worker's exception is rethrown here
/// (the lowest failing brick's, as a serial loop would throw it).
[[nodiscard]] RenderedScene render_bricks(const vol::Volume& volume,
                                          const vol::TransferFunction& tf,
                                          const render::OrthoCamera& cam,
                                          std::vector<vol::Brick> bricks,
                                          Renderer renderer,
                                          render::RenderMode mode =
                                              render::RenderMode::kComposite);

/// Virtual render-stage time: the slowest rank under a two-term cost
/// (per-solid-voxel compositing work + per-voxel traversal work) —
/// how the RLE-accelerated shear-warp scales (Lacroute [10]).
[[nodiscard]] double render_stage_time(const RenderedScene& rs,
                                       double t_solid_voxel = 1.0e-7,
                                       double t_any_voxel = 5.0e-9);

}  // namespace rtc::harness

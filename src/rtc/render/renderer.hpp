// The two volume renderers.
//
// render_shearwarp is the paper's rendering stage: the Lacroute-Levoy
// shear-warp factorization over an RLE-classified volume (composite
// sheared slices into an intermediate image, then 2-D warp).
// render_raycast is an orthographic ray-caster that samples at the same
// slice planes with the same in-slice bilinear filter; it exists to
// cross-check the shear-warp output and as a simple reference renderer.
//
// Both render only `region` (a rank's brick): voxels outside it are
// transparent, producing the partial images the composition stage
// merges. Both write premultiplied gray+alpha.
#pragma once

#include "rtc/image/image.hpp"
#include "rtc/render/camera.hpp"
#include "rtc/volume/transfer.hpp"
#include "rtc/volume/volume.hpp"

namespace rtc::render {

/// What a ray accumulates.
enum class RenderMode {
  kComposite,  ///< front-to-back "over" (the paper's setting)
  kMip         ///< maximum-intensity projection (commutative merges)
};

[[nodiscard]] img::Image render_raycast(
    const vol::Volume& v, const vol::TransferFunction& tf,
    const vol::Brick& region, const OrthoCamera& cam,
    RenderMode mode = RenderMode::kComposite);

[[nodiscard]] img::Image render_shearwarp(
    const vol::Volume& v, const vol::TransferFunction& tf,
    const vol::Brick& region, const OrthoCamera& cam,
    RenderMode mode = RenderMode::kComposite);

/// Sheet-buffer splatting (Westover [23], from the paper's intro):
/// slices splat Gaussian footprints into a sheet that composites
/// front-to-back. Softer edges than shear-warp; useful as a third
/// workload for the composition stage.
[[nodiscard]] img::Image render_splat(
    const vol::Volume& v, const vol::TransferFunction& tf,
    const vol::Brick& region, const OrthoCamera& cam,
    RenderMode mode = RenderMode::kComposite);

/// Axis with the largest |direction| component (the shear-warp
/// principal axis; also the slicing axis of the ray-caster).
[[nodiscard]] int principal_axis(const Vec3& dir);

}  // namespace rtc::render

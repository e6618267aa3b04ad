// Distributed maximum-intensity projection (MIP) — the commutative
// cousin of "over" compositing. Because max commutes, *every*
// composition method is order-exact here, including the loose
// parallel-pipelined ring that is only approximately correct for
// translucent "over" data. This example renders MIP partials, runs
// them through several methods, and verifies they agree bit-for-bit.
//
//   ./mip_pipeline [dataset] [ranks] [out-dir]
#include <iostream>
#include <string>

#include "example_args.hpp"
#include "rtc/harness/experiment.hpp"
#include "rtc/harness/scene.hpp"
#include "rtc/harness/table.hpp"
#include "rtc/image/io.hpp"
#include "rtc/image/ops.hpp"
#include "rtc/partition/partition.hpp"
#include "rtc/render/renderer.hpp"

int main(int argc, char** argv) {
  using namespace rtc;
  const std::string dataset = argc > 1 ? argv[1] : "head";
  const int ranks = examples::arg_int(argc, argv, 2, "ranks", 8);
  const std::string out_dir = argc > 3 ? argv[3] : ".";

  const harness::Scene scene =
      harness::make_scene(dataset, /*volume_n=*/96, /*image_size=*/512);

  // Render MIP partials per slab (render_partials uses "over", so go
  // through the render loop with the mode set here).
  const int axis = render::principal_axis(scene.camera.direction());
  const std::vector<img::Image> partials =
      harness::render_bricks(
          scene.volume, scene.tf, scene.camera,
          harness::depth_ordered(
              part::slab_1d(scene.volume.bounds(), ranks, axis),
              scene.camera),
          harness::Renderer::kRaycast, render::RenderMode::kMip)
          .partials;

  const img::Image reference =
      img::composite_reference(partials, img::BlendMode::kMax);

  harness::Table t({"method", "time [s]", "max diff vs reference"});
  img::Image final_image;
  const bool pow2 = (ranks & (ranks - 1)) == 0;
  for (const char* m : {"bswap", "pp", "rt_n", "radix"}) {
    if (!pow2 && std::string(m) == "bswap") continue;  // BS needs 2^k
    if (ranks % 2 != 0 && std::string(m) == "rt_n") continue;
    harness::CompositionConfig cfg;
    cfg.method = m;
    cfg.initial_blocks = 3;
    cfg.blend = img::BlendMode::kMax;
    cfg.codec = "trle";
    cfg.gather = true;
    const harness::CompositionRun run =
        harness::run_composition(cfg, partials);
    t.add_row({m, harness::Table::num(run.time, 4),
               std::to_string(img::max_channel_diff(run.image, reference))});
    final_image = run.image;
  }

  std::cout << "distributed MIP of '" << dataset << "' on " << ranks
            << " ranks\n\n";
  t.print(std::cout);
  img::write_pgm(final_image, out_dir + "/mip_" + dataset + ".pgm");
  std::cout << "\nwrote " << out_dir << "/mip_" << dataset << ".pgm\n";
  return 0;
}

// Quality-degradation ladder bench: virtual-time cost and measured
// error of the exact / approximate / progressive rungs at one
// operating point, with the error CONTRACT asserted before anything is
// written.
//
// Invariants checked (exit 1 on violation):
//   * the approximate rung never slows the modeled frame down and its
//     measured error obeys the reported a-priori bound,
//   * the progressive rung's first light lands strictly before the
//     refined frame and the refined frame is bit-identical to exact,
//   * --max-error 0 demotes every rung to exact, byte-identically,
//   * one worker thread and several agree bit-exactly on every rung.
//
// Golden: bench/golden/quality_p16.json (P=16, 48^3 engine, 128x128,
// bswap/raw — byte-identical across runs and worker counts).
#include "bench_common.hpp"

#include <cstring>

#include "rtc/image/ops.hpp"
#include "rtc/quality/quality.hpp"

int main(int argc, char** argv) {
  using namespace rtc;
  bench::BenchOptions defaults;
  defaults.ranks = 16;
  defaults.volume_n = 48;
  defaults.image_size = 128;
  const bench::BenchOptions o = bench::parse_options(argc, argv, defaults);
  bench::print_header("quality ladder: approximate & progressive rungs", o);
  const std::vector<img::Image> partials = bench::bench_partials(o);

  const auto run_rung = [&](quality::Rung rung, int max_error,
                            int workers = 0) {
    harness::CompositionConfig cfg;
    cfg.method = "bswap";
    cfg.gather = true;
    cfg.net = o.net;
    cfg.executor.workers = workers;
    cfg.quality.max_rung = rung;
    cfg.quality.max_error = max_error;
    cfg.quality_rung = rung;
    return harness::run_composition(cfg, partials);
  };

  const auto exact = run_rung(quality::Rung::kExact, 255);
  const auto approx = run_rung(quality::Rung::kApprox, 255);
  const auto prog = run_rung(quality::Rung::kProgressive, 255);
  const auto gated = run_rung(quality::Rung::kApprox, 0);

  const auto same = [](const img::Image& a, const img::Image& b) {
    return a.width() == b.width() && a.height() == b.height() &&
           std::memcmp(a.pixels().data(), b.pixels().data(),
                       a.pixels().size_bytes()) == 0;
  };

  if (approx.time > exact.time) {
    std::cerr << "FAIL: approximate rung slower than exact in virtual "
                 "time\n";
    return 1;
  }
  if (approx.stats.max_pixel_error > approx.stats.error_bound ||
      img::max_channel_diff(exact.image, approx.image) >
          approx.stats.error_bound) {
    std::cerr << "FAIL: approximate rung broke its error bound\n";
    return 1;
  }
  if (!(prog.first_light > 0.0) || prog.first_light >= prog.time ||
      !prog.refined || !same(prog.image, exact.image)) {
    std::cerr << "FAIL: progressive rung must deliver first light early "
                 "and refine to the exact image\n";
    return 1;
  }
  if (gated.stats.quality_rung != 0 || !same(gated.image, exact.image) ||
      gated.time != exact.time) {
    std::cerr << "FAIL: --max-error 0 must stay byte-identical to "
                 "exact\n";
    return 1;
  }
  for (const quality::Rung rung :
       {quality::Rung::kApprox, quality::Rung::kProgressive}) {
    const auto a = run_rung(rung, 255, /*workers=*/1);
    const auto b = run_rung(rung, 255, /*workers=*/4);
    if (a.time != b.time || !same(a.image, b.image)) {
      std::cerr << "FAIL: worker counts disagree on rung "
                << quality::rung_name(rung) << "\n";
      return 1;
    }
  }

  harness::Table t({"rung", "time [s]", "first light [s]", "bound",
                    "measured err", "skipped px"});
  t.add_row({"exact", harness::Table::num(exact.time, 4), "-", "0", "0",
             "0"});
  t.add_row({"approx", harness::Table::num(approx.time, 4), "-",
             std::to_string(approx.stats.error_bound),
             std::to_string(approx.stats.max_pixel_error),
             std::to_string(approx.stats.total_approx_skipped_pixels())});
  t.add_row({"progressive", harness::Table::num(prog.time, 4),
             harness::Table::num(prog.first_light, 4),
             std::to_string(prog.stats.error_bound),
             std::to_string(prog.stats.max_pixel_error), "0"});
  t.print(std::cout);
  std::cout << "\ncontract: measured error <= reported bound on every "
               "rung; max-error 0 is byte-identical to exact\n";

  if (!o.json_out.empty()) {
    bench::write_golden_json(
        o.json_out, "quality", o,
        {{"exact_s", exact.time},
         {"approx_s", approx.time},
         {"approx_bound", static_cast<double>(approx.stats.error_bound)},
         {"approx_err",
          static_cast<double>(approx.stats.max_pixel_error)},
         {"approx_skipped_px",
          static_cast<double>(approx.stats.total_approx_skipped_pixels())},
         {"progressive_s", prog.time},
         {"progressive_first_light_s", prog.first_light},
         {"progressive_bound",
          static_cast<double>(prog.stats.error_bound)},
         {"progressive_err",
          static_cast<double>(prog.stats.max_pixel_error)}});
  }
  return 0;
}

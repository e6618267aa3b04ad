// Quality-degradation ladder: rung parsing, bound math, controller
// dynamics, the down/upsample pair, and the error CONTRACT end to end —
// across seeds, methods and rank counts the reported a-priori bound
// dominates the measured max pixel error, --max-error 0 stays
// byte-identical to the exact path, progressive refines to the exact
// image when the deadline allows, and one worker thread and several
// agree bit-exactly.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "rtc/harness/experiment.hpp"
#include "rtc/image/ops.hpp"
#include "rtc/quality/quality.hpp"
#include "rtc/service/service.hpp"
#include "testutil.hpp"

namespace rtc::quality {
namespace {

bool images_equal(const img::Image& a, const img::Image& b) {
  if (a.width() != b.width() || a.height() != b.height()) return false;
  return std::memcmp(a.pixels().data(), b.pixels().data(),
                     a.pixels().size_bytes()) == 0;
}

std::vector<img::Image> make_partials(int ranks, std::uint32_t salt,
                                      int size = 64) {
  std::vector<img::Image> out;
  for (int r = 0; r < ranks; ++r)
    out.push_back(test::random_image(
        size, size, salt + static_cast<std::uint32_t>(r), 0.3,
        /*binary_alpha=*/true));
  return out;
}

// ----------------------------------------------------------- rung basics

TEST(Rung, ParseRoundTripsAndRejectsUnknown) {
  for (int i = 0; i < kRungCount; ++i) {
    const Rung r = static_cast<Rung>(i);
    const auto parsed = parse_rung(rung_name(r));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, r);
  }
  EXPECT_FALSE(parse_rung("lossy").has_value());
  EXPECT_FALSE(parse_rung("").has_value());
  EXPECT_FALSE(parse_rung("Exact").has_value());
}

TEST(Rung, StepDownClampsAtFloorAndStepUpAtExact) {
  EXPECT_EQ(step_down(Rung::kExact, Rung::kBlank), Rung::kApprox);
  EXPECT_EQ(step_down(Rung::kStale, Rung::kBlank), Rung::kBlank);
  EXPECT_EQ(step_down(Rung::kBlank, Rung::kBlank), Rung::kBlank);
  EXPECT_EQ(step_down(Rung::kApprox, Rung::kApprox), Rung::kApprox);
  EXPECT_EQ(step_down(Rung::kExact, Rung::kExact), Rung::kExact);
  EXPECT_EQ(step_up(Rung::kExact), Rung::kExact);
  EXPECT_EQ(step_up(Rung::kApprox), Rung::kExact);
  EXPECT_EQ(step_up(Rung::kBlank), Rung::kStale);
}

TEST(Rung, ApproxBoundMath) {
  EXPECT_EQ(approx_error_bound(255), 16);   // 2*(255-255)+16
  EXPECT_EQ(approx_error_bound(240), 46);   // 2*15+16
  EXPECT_EQ(approx_error_bound(128), 255);  // 2*127+16 clamps
  EXPECT_EQ(approx_error_bound(127), 255);  // below range: worst case
  EXPECT_EQ(approx_error_bound(0), 255);
}

TEST(Rung, ControllerStepsDownUnderPressureAndRecovers) {
  QualityPolicy pol;
  pol.max_rung = Rung::kStale;
  QualityController qc(pol);
  PressureSignals calm;
  PressureSignals hot;
  hot.stragglers = true;
  EXPECT_EQ(qc.choose(calm), Rung::kExact);
  EXPECT_EQ(qc.choose(hot), Rung::kApprox);
  EXPECT_EQ(qc.choose(hot), Rung::kProgressive);
  EXPECT_EQ(qc.choose(hot), Rung::kStale);
  EXPECT_EQ(qc.choose(hot), Rung::kStale);  // clamped at max_rung
  EXPECT_EQ(qc.choose(calm), Rung::kProgressive);
  EXPECT_EQ(qc.choose(calm), Rung::kApprox);
  EXPECT_EQ(qc.choose(calm), Rung::kExact);
}

TEST(Rung, ControllerDisengagedIsConstantExact) {
  QualityController qc(QualityPolicy{});
  PressureSignals hot;
  hot.deadline_missed = true;
  hot.peer_loss = true;
  for (int i = 0; i < 4; ++i) EXPECT_EQ(qc.choose(hot), Rung::kExact);
}

TEST(Rung, QueuePressureNeedsACap) {
  PressureSignals p;
  p.queue_depth = 100;
  EXPECT_FALSE(p.any());  // cap 0 = not a service run
  p.queue_cap = 8;
  EXPECT_TRUE(p.any());
}

TEST(Rung, EnforceContractWalksBackTowardExact) {
  QualityPolicy pol;
  pol.max_rung = Rung::kBlank;
  pol.saturation = 240;  // approx bound 46

  pol.max_error = 255;
  EXPECT_EQ(enforce_contract(Rung::kApprox, pol, {}).rung, Rung::kApprox);
  EXPECT_EQ(enforce_contract(Rung::kApprox, pol, {}).bound, 46);

  // Tight contract: approx (46) rejected, falls back to exact.
  pol.max_error = 20;
  const RungChoice tight = enforce_contract(Rung::kApprox, pol, {});
  EXPECT_EQ(tight.rung, Rung::kExact);
  EXPECT_EQ(tight.bound, 0);

  // Zero: only exact is ever admitted, from any proposed rung.
  pol.max_error = 0;
  for (int i = 0; i < kRungCount; ++i) {
    const RungChoice c = enforce_contract(static_cast<Rung>(i), pol, {});
    EXPECT_EQ(c.rung, Rung::kExact);
    EXPECT_EQ(c.bound, 0);
  }

  // Stale/blank bound at 255: admitted only under a full-width budget.
  pol.max_error = 254;
  EXPECT_LT(static_cast<int>(enforce_contract(Rung::kBlank, pol, {}).rung),
            static_cast<int>(Rung::kStale));
  pol.max_error = 255;
  EXPECT_EQ(enforce_contract(Rung::kBlank, pol, {}).rung, Rung::kBlank);

  // The proposed rung is clamped to the policy's max_rung.
  pol.max_rung = Rung::kApprox;
  EXPECT_EQ(enforce_contract(Rung::kBlank, pol, {}).rung, Rung::kApprox);
}

// ------------------------------------------------------ image-op helpers

TEST(Sampling, DownsampleGeometryAndConstantExactness) {
  img::Image src(10, 7);
  src.fill(img::GrayA8{120, 200});
  const img::Image c = img::downsample(src, 4);
  EXPECT_EQ(c.width(), 3);   // ceil(10/4)
  EXPECT_EQ(c.height(), 2);  // ceil(7/4)
  for (const img::GrayA8& p : c.pixels()) {
    EXPECT_EQ(p.v, 120);  // box average of a constant is the constant
    EXPECT_EQ(p.a, 200);
  }
  const img::Image up = img::upsample(c, 4, 10, 7);
  EXPECT_EQ(up.width(), 10);
  EXPECT_EQ(up.height(), 7);
  EXPECT_TRUE(images_equal(up, src));
}

TEST(Sampling, UpsampleReplicatesCells) {
  img::Image c(2, 1);
  c.at(0, 0) = img::GrayA8{10, 255};
  c.at(1, 0) = img::GrayA8{20, 255};
  const img::Image up = img::upsample(c, 2, 4, 1);
  EXPECT_EQ(up.at(0, 0).v, 10);
  EXPECT_EQ(up.at(1, 0).v, 10);
  EXPECT_EQ(up.at(2, 0).v, 20);
  EXPECT_EQ(up.at(3, 0).v, 20);
}

TEST(ApproxBlend, SkipsOnlySaturatedFrontsWithinPerPixelBound) {
  const img::Image front = test::random_image(64, 64, 91u, 0.3, true);
  const img::Image back = test::random_image(64, 64, 92u, 0.3, true);
  const int sat = 240;

  img::Image exact = front;
  img::blend_in_place(exact.pixels(), back.pixels(), img::BlendMode::kOver,
                      /*src_front=*/false);
  img::Image approx = front;
  const img::ApproxBlendStats st = img::blend_in_place_approx(
      approx.pixels(), back.pixels(), /*src_front=*/false, sat);
  EXPECT_GT(st.skipped, 0);  // binary alpha: plenty of opaque fronts
  EXPECT_EQ(st.blended + st.skipped,
            static_cast<std::int64_t>(exact.pixel_count()));
  EXPECT_LE(img::max_channel_diff(exact, approx), 255 - sat);

  // Saturation 0 disables the fast path: bit-exact, nothing skipped.
  img::Image off = front;
  const img::ApproxBlendStats st0 = img::blend_in_place_approx(
      off.pixels(), back.pixels(), /*src_front=*/false, 0);
  EXPECT_EQ(st0.skipped, 0);
  EXPECT_TRUE(images_equal(off, exact));
}

// ------------------------------------------------- the contract, end to end

harness::CompositionRun run_rung(const std::vector<img::Image>& partials,
                                 const std::string& method, Rung rung,
                                 const QualityPolicy& pol,
                                 int workers = 0) {
  harness::CompositionConfig cfg;
  cfg.method = method;
  cfg.gather = true;
  cfg.quality = pol;
  cfg.quality_rung = rung;
  cfg.executor.workers = workers;
  return harness::run_composition(cfg, partials);
}

TEST(Contract, ApproxBoundHoldsAcrossSeedsMethodsAndRanks) {
  QualityPolicy pol;
  pol.max_rung = Rung::kApprox;
  for (const std::uint32_t seed : {100u, 900u}) {
    for (const char* method : {"bswap", "rt", "direct"}) {
      for (const int p : {4, 8}) {
        const auto partials = make_partials(p, seed);
        const harness::CompositionRun exact =
            run_rung(partials, method, Rung::kExact, QualityPolicy{});
        const harness::CompositionRun approx =
            run_rung(partials, method, Rung::kApprox, pol);
        ASSERT_EQ(approx.stats.quality_rung,
                  static_cast<int>(Rung::kApprox));
        EXPECT_EQ(approx.stats.error_bound, approx_error_bound(240));
        // The contract, measured two ways: against the exact run of the
        // same method, and against the harness's sequential reference.
        EXPECT_LE(img::max_channel_diff(exact.image, approx.image),
                  approx.stats.error_bound)
            << method << " P=" << p << " seed=" << seed;
        EXPECT_LE(approx.stats.max_pixel_error, approx.stats.error_bound);
        // Approximation must actually engage on binary-alpha content and
        // never slow the modeled frame down.
        EXPECT_GT(approx.stats.total_approx_skipped_pixels(), 0);
        EXPECT_LE(approx.time, exact.time);
      }
    }
  }
}

TEST(Contract, MaxErrorZeroIsByteIdenticalToExact) {
  const auto partials = make_partials(8, 4200u);
  QualityPolicy pol;
  pol.max_rung = Rung::kProgressive;
  pol.max_error = 0;
  const harness::CompositionRun exact =
      run_rung(partials, "bswap", Rung::kExact, QualityPolicy{});
  const harness::CompositionRun gated =
      run_rung(partials, "bswap", Rung::kProgressive, pol);
  EXPECT_EQ(gated.stats.quality_rung, 0);
  EXPECT_EQ(gated.stats.error_bound, 0);
  EXPECT_EQ(gated.stats.max_pixel_error, 0);
  EXPECT_TRUE(images_equal(exact.image, gated.image));
  EXPECT_EQ(exact.time, gated.time);
}

TEST(Contract, ProgressiveRefinesToExactWithoutDeadline) {
  const auto partials = make_partials(4, 5100u);
  QualityPolicy pol;
  pol.max_rung = Rung::kProgressive;
  const harness::CompositionRun exact =
      run_rung(partials, "bswap", Rung::kExact, QualityPolicy{});
  const harness::CompositionRun prog =
      run_rung(partials, "bswap", Rung::kProgressive, pol);
  EXPECT_TRUE(prog.refined);
  EXPECT_EQ(prog.stats.coarse_pixels, 0);
  // First light lands strictly before the refined frame completes, and
  // the refined frame is the exact image bit for bit.
  EXPECT_GT(prog.first_light, 0.0);
  EXPECT_LT(prog.first_light, prog.time);
  EXPECT_TRUE(images_equal(exact.image, prog.image));
  EXPECT_LE(prog.stats.max_pixel_error, prog.stats.error_bound);
}

TEST(Contract, ProgressiveDeliversCoarseWhenDeadlineExpires) {
  const auto partials = make_partials(4, 6200u);
  QualityPolicy pol;
  pol.max_rung = Rung::kProgressive;
  // Dry run to learn when first light lands; a deadline AT first light
  // lets every coarse block through but forbids the refine pass.
  harness::CompositionConfig cfg;
  cfg.method = "bswap";
  cfg.gather = true;
  cfg.quality = pol;
  cfg.quality_rung = Rung::kProgressive;
  const harness::CompositionRun dry = harness::run_composition(cfg, partials);
  ASSERT_GT(dry.first_light, 0.0);

  cfg.deadline = dry.first_light;
  cfg.resilience.on_peer_loss = comm::ResiliencePolicy::PeerLoss::kBlank;
  const harness::CompositionRun coarse =
      harness::run_composition(cfg, partials);
  EXPECT_FALSE(coarse.refined);
  EXPECT_GT(coarse.stats.coarse_pixels, 0);
  EXPECT_EQ(coarse.stats.quality_rung, static_cast<int>(Rung::kProgressive));
  // The delivered image is the upsampled coarse composite; its measured
  // error obeys the reported a-priori bound.
  EXPECT_LE(coarse.stats.max_pixel_error, coarse.stats.error_bound);
  const img::Image expect_coarse = img::upsample(
      img::downsample(img::composite_reference(partials,
                                               img::BlendMode::kOver),
                      pol.coarse_factor),
      pol.coarse_factor, partials[0].width(), partials[0].height());
  // Not asserting byte equality with the downsample-then-composite
  // image (the coarse pass composites downsampled partials, which is
  // not the same as downsampling the composite), but both must stay
  // within the progressive bound of the exact frame.
  EXPECT_LE(img::max_channel_diff(
                coarse.image,
                img::composite_reference(partials, img::BlendMode::kOver)),
            coarse.stats.error_bound);
  (void)expect_coarse;
}

TEST(Contract, WorkerCountsAgreeBitExactlyOnDegradedRungs) {
  const auto partials = make_partials(8, 7300u);
  for (const Rung rung : {Rung::kApprox, Rung::kProgressive}) {
    QualityPolicy pol;
    pol.max_rung = rung;
    const harness::CompositionRun one =
        run_rung(partials, "bswap", rung, pol, /*workers=*/1);
    const harness::CompositionRun many =
        run_rung(partials, "bswap", rung, pol, /*workers=*/4);
    EXPECT_TRUE(images_equal(one.image, many.image));
    EXPECT_EQ(one.time, many.time);
    EXPECT_EQ(one.stats.max_pixel_error, many.stats.max_pixel_error);
    EXPECT_EQ(one.stats.error_bound, many.stats.error_bound);
    EXPECT_EQ(one.stats.total_approx_skipped_pixels(),
              many.stats.total_approx_skipped_pixels());
  }
}

// ------------------------------------------------------- service ladder

service::ServiceConfig overload_config() {
  service::ServiceConfig sc;
  sc.ranks = 2;
  sc.volume_n = 16;
  sc.image_size = 32;
  sc.comp.method = "bswap";
  sc.queue_cap = 2;
  sc.traffic.sessions = 2;
  sc.traffic.requests_per_session = 10;
  sc.traffic.arrival_rate = 5000.0;  // far beyond what 2 ranks serve
  return sc;
}

TEST(ServiceLadder, DegradeBeforeShedTurnsShedsIntoQualitySteps) {
  const service::ServiceConfig base = overload_config();
  const service::ServiceResult shed_run = service::run_service(base);
  ASSERT_GT(shed_run.stats.total_session_sheds(), 0)
      << "overload config must shed at baseline for this test to bite";

  service::ServiceConfig deg = base;
  deg.comp.quality.max_rung = Rung::kStale;
  deg.comp.quality.degrade_before_shed = true;
  const service::ServiceResult r = service::run_service(deg);
  EXPECT_EQ(r.stats.total_session_drops(), 0);
  EXPECT_EQ(r.stats.total_session_delivered(),
            r.stats.total_session_arrivals());
  EXPECT_GT(r.stats.total_session_quality_degrades(), 0);
  EXPECT_GT(r.stats.session_quality_floor(), 0);

  // Bit-identical replay: same config, same virtual timeline, same
  // per-session books, same delivered frames.
  const service::ServiceResult r2 = service::run_service(deg);
  EXPECT_EQ(r.makespan, r2.makespan);
  ASSERT_EQ(r.submissions.size(), r2.submissions.size());
  for (std::size_t i = 0; i < r.submissions.size(); ++i)
    EXPECT_TRUE(images_equal(r.submissions[i].image, r2.submissions[i].image));
  ASSERT_EQ(r.stats.sessions.size(), r2.stats.sessions.size());
  for (std::size_t i = 0; i < r.stats.sessions.size(); ++i) {
    EXPECT_EQ(r.stats.sessions[i].quality_degrades,
              r2.stats.sessions[i].quality_degrades);
    EXPECT_EQ(r.stats.sessions[i].stale_pixels,
              r2.stats.sessions[i].stale_pixels);
    EXPECT_EQ(r.stats.sessions[i].max_pixel_error,
              r2.stats.sessions[i].max_pixel_error);
  }
}

TEST(ServiceLadder, DisengagedPolicyKeepsBaselineBooks) {
  const service::ServiceConfig base = overload_config();
  const service::ServiceResult a = service::run_service(base);
  // degrade_before_shed without an engaged ladder is inert by design.
  service::ServiceConfig inert = base;
  inert.comp.quality.degrade_before_shed = true;
  const service::ServiceResult b = service::run_service(inert);
  EXPECT_EQ(a.stats.total_session_sheds(), b.stats.total_session_sheds());
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(b.stats.total_session_quality_degrades(), 0);
}

}  // namespace
}  // namespace rtc::quality

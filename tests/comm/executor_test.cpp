// Worker-count equivalence: the fiber pool must give the same answer
// however many worker threads carry the ranks. Virtual time depends
// only on the message DAG, so every observable — makespan, per-rank
// clocks, fault counters, the composited image — must be bit-identical
// at workers = 1 (a purely sequential schedule) and at workers = 2 and
// 7 (real cross-worker handoffs, on any core count), with or without
// injected faults. Plus the scaling contract itself: thousands of
// ranks run on a bounded worker pool.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <tuple>
#include <vector>

#include "rtc/comm/error.hpp"
#include "rtc/comm/executor.hpp"
#include "rtc/comm/world.hpp"
#include "rtc/harness/experiment.hpp"
#include "rtc/image/ops.hpp"
#include "testutil.hpp"

namespace rtc::comm {
namespace {

struct Capture {
  double time = 0.0;
  double delivery = 0.0;
  std::vector<double> clocks;
  std::string faults;
  img::Image image;
};

Capture run_with(int workers, harness::CompositionConfig cfg,
                 const std::vector<img::Image>& partials) {
  cfg.executor.workers = workers;
  const harness::CompositionRun run =
      harness::run_composition(cfg, partials);
  Capture c;
  c.time = run.time;
  c.delivery = run.delivery_time;
  for (const auto& r : run.stats.ranks) c.clocks.push_back(r.clock);
  c.faults = harness::fault_summary(run.stats);
  c.image = run.image;
  return c;
}

std::vector<img::Image> make_partials(int ranks) {
  std::vector<img::Image> out;
  for (int r = 0; r < ranks; ++r)
    out.push_back(test::random_image(
        33, 21, 4200u + static_cast<std::uint32_t>(r), 0.3,
        /*binary_alpha=*/true));
  return out;
}

void expect_identical(const Capture& want, const Capture& got,
                      const std::string& label) {
  // EXPECT_EQ on doubles: bit-identical is the contract, not "close".
  EXPECT_EQ(want.time, got.time) << label;
  EXPECT_EQ(want.delivery, got.delivery) << label;
  ASSERT_EQ(want.clocks.size(), got.clocks.size()) << label;
  for (std::size_t i = 0; i < want.clocks.size(); ++i)
    EXPECT_EQ(want.clocks[i], got.clocks[i]) << label << " rank " << i;
  EXPECT_EQ(want.faults, got.faults) << label;
  EXPECT_TRUE(want.image == got.image) << label;
}

/// Runs `cfg` at workers = 1, 2 and 7 and expects all three identical;
/// returns the sequential (workers = 1) capture.
Capture expect_worker_invariant(const harness::CompositionConfig& cfg,
                                const std::vector<img::Image>& partials,
                                const std::string& label) {
  const Capture one = run_with(1, cfg, partials);
  for (const int workers : {2, 7})
    expect_identical(one, run_with(workers, cfg, partials),
                     label + " workers=" + std::to_string(workers));
  return one;
}

using Case = std::tuple<std::string /*method*/, int /*ranks*/,
                        int /*blocks*/>;

class WorkerCountEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(WorkerCountEquivalence, CleanRunBitIdentical) {
  const auto [method, ranks, blocks] = GetParam();
  const auto partials = make_partials(ranks);
  harness::CompositionConfig cfg;
  cfg.method = method;
  cfg.initial_blocks = blocks;
  cfg.gather = true;
  const Capture one = expect_worker_invariant(cfg, partials, method);
  // The paper-faithful "pp" ring fuses non-adjacent depth intervals at
  // its wrap seam, so it is not exact on overlapping partials
  // (methods_test pins that defect); every other method is.
  if (method != "pp") {
    EXPECT_TRUE(one.image == img::composite_reference(partials)) << method;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Methods, WorkerCountEquivalence,
    ::testing::Values(Case{"bswap", 16, 1}, Case{"bswap_any", 11, 1},
                      Case{"direct", 7, 1}, Case{"pp", 6, 6},
                      Case{"rt", 5, 3}, Case{"rt_2n", 9, 4},
                      Case{"rt_n", 32, 2}, Case{"hier", 32, 2}));

TEST(WorkerCountEquivalence, WireFaultsBitIdentical) {
  // Drops, corruption and duplicates exercise retransmit timers and
  // dedup windows — all virtual-time machinery that must not notice
  // how many workers carry the ranks.
  const auto partials = make_partials(12);
  harness::CompositionConfig cfg;
  cfg.method = "rt_2n";
  cfg.initial_blocks = 4;
  cfg.gather = true;
  cfg.fault.seed = 77;
  cfg.fault.drop = 0.08;
  cfg.fault.corrupt = 0.05;
  cfg.fault.duplicate = 0.05;
  cfg.resilience.retries = 4;
  (void)expect_worker_invariant(cfg, partials, "rt_2n faulty");
}

TEST(WorkerCountEquivalence, CrashAndRecomposeBitIdentical) {
  // Crash recovery re-runs the compositor over the survivor view —
  // membership epochs, barrier re-entry and the second pass must all
  // agree at every worker count.
  const auto partials = make_partials(8);
  harness::CompositionConfig cfg;
  cfg.method = "bswap_any";
  cfg.gather = true;
  FaultPlan::Crash crash;
  crash.rank = 3;
  crash.after_sends = 1;
  cfg.fault.crashes.push_back(crash);
  cfg.resilience.on_peer_loss = ResiliencePolicy::PeerLoss::kRecompose;
  (void)expect_worker_invariant(cfg, partials, "recompose");
}

TEST(WorkerCountEquivalence, BlankSubstitutionBitIdentical) {
  const auto partials = make_partials(9);
  harness::CompositionConfig cfg;
  cfg.method = "direct";
  cfg.gather = true;
  FaultPlan::Crash crash;
  crash.rank = 5;
  crash.after_sends = 0;
  cfg.fault.crashes.push_back(crash);
  cfg.resilience.on_peer_loss = ResiliencePolicy::PeerLoss::kBlank;
  (void)expect_worker_invariant(cfg, partials, "blank-on-loss");
}

TEST(PooledExecutorTest, DeadlockTimesOutWithFullContext) {
  // The deadlock breaker must surface a fully typed CommError: rank,
  // peer, tag, clock, elapsed wall time at least the configured grace,
  // and a mailbox snapshot.
  World world(2, NetworkModel{});
  world.set_recv_timeout(0.2);
  try {
    world.run([](Comm& c) {
      if (c.rank() == 0) {
        c.compute(1.5);
        (void)c.recv(1, 9);  // never sent
      }
    });
    FAIL() << "expected CommError";
  } catch (const CommError& e) {
    EXPECT_EQ(e.kind(), CommError::Kind::kTimeout);
    EXPECT_EQ(e.rank(), 0);
    EXPECT_EQ(e.peer(), 1);
    EXPECT_EQ(e.tag(), 9);
    EXPECT_DOUBLE_EQ(e.virtual_time(), 1.5);
    EXPECT_GE(e.elapsed(), 0.2);
    EXPECT_EQ(e.mailbox_snapshot(), "empty");
  }
}

TEST(PooledExecutorTest, RunsThousandsOfRanksOnABoundedPool) {
  // 2048 ranks as kernel threads would die on most default rlimits;
  // the fiber pool runs them on a handful of workers. A neighbor ring
  // forces every fiber through at least one park/wake cycle.
  const int p = 2048;
  World world(p, NetworkModel{});
  const RunResult r = world.run([p](Comm& c) {
    const int next = (c.rank() + 1) % p;
    const int prev = (c.rank() + p - 1) % p;
    c.send(next, 1, std::vector<std::byte>(64));
    const std::vector<std::byte> m = c.recv(prev, 1);
    EXPECT_EQ(m.size(), 64u);
  });
  EXPECT_EQ(r.stats.total_messages(), p);
  // Every rank's clock advanced identically: same send + same recv.
  EXPECT_EQ(r.stats.ranks[0].clock,
            r.stats.ranks[static_cast<std::size_t>(p) - 1].clock);
}

TEST(PooledExecutorTest, HonorsExplicitWorkerSizing) {
  World world(64, NetworkModel{});
  ExecutorConfig cfg;
  cfg.workers = 3;
  world.set_executor(cfg);
  const RunResult r = world.run([](Comm& c) {
    if (c.rank() > 0) c.send(0, 7, std::vector<std::byte>(16));
    if (c.rank() == 0)
      for (int s = 1; s < 64; ++s) (void)c.recv(s, 7);
  });
  EXPECT_EQ(r.stats.total_messages(), 63);
}

}  // namespace
}  // namespace rtc::comm

// Unit tests of the benchmark's own statistics (stats.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats.hpp"

namespace {

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Percentile, NearestRank) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(e2e::percentile(v, 50.0), 3.0);
  EXPECT_EQ(e2e::percentile(v, 100.0), 5.0);
  EXPECT_EQ(e2e::percentile(v, 0.0), 1.0);
  EXPECT_TRUE(std::isnan(e2e::percentile({}, 50.0)));
}

TEST(Tail, PicksHighestPercentileWithTenBeyond) {
  // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
  e2e::Tail t = e2e::tail(iota(100));
  EXPECT_TRUE(t.qualified);
  EXPECT_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.value, 90.0);
  EXPECT_EQ(t.samples, 100u);

  // 1000 samples: p99 leaves 10 beyond; p99.9 leaves 1.
  t = e2e::tail(iota(1000));
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.value, 990.0);

  // 99 samples: p90 is rank 90, 9 beyond; falls to p75 (rank 75, 24 beyond).
  t = e2e::tail(iota(99));
  EXPECT_EQ(t.percentile, 75.0);
  EXPECT_EQ(t.value, 75.0);

  // 20 samples: only the median leaves 10 beyond.
  t = e2e::tail(iota(20));
  EXPECT_TRUE(t.qualified);
  EXPECT_EQ(t.percentile, 50.0);
}

TEST(Tail, TooFewSamplesFallsBackToMedianUnqualified) {
  const e2e::Tail t = e2e::tail(iota(19));
  EXPECT_FALSE(t.qualified);
  EXPECT_EQ(t.percentile, 50.0);
  EXPECT_EQ(t.value, 10.0);
}

TEST(Latency, DroppedRequestsCountAsInfinite) {
  // 9 delivered + 1 dropped: the p90 is still a delivery, the p100 is not.
  const std::vector<double> done = iota(9);
  EXPECT_EQ(e2e::latency_percentile(done, 1, 90.0), 9.0);
  EXPECT_TRUE(std::isinf(e2e::latency_percentile(done, 1, 100.0)));
  // 8 delivered + 2 dropped: the p90 lands on a drop.
  EXPECT_TRUE(std::isinf(e2e::latency_percentile(iota(8), 2, 90.0)));
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  // op [0,100) > render [0,40), compositing [40,95) > codec spans that
  // overlap each other and one that spills past compositing's end.
  const std::vector<e2e::Layer> layers = {
      {{{0, 100}}, -1},
      {{{0, 40}}, 0},
      {{{40, 95}}, 0},
      {{{50, 60}, {55, 70}, {90, 99}}, 2},
  };
  const std::vector<std::int64_t> self = e2e::self_times(layers);
  EXPECT_EQ(self[0], 5);            // 100 - (40 + 55)
  EXPECT_EQ(self[1], 40);
  EXPECT_EQ(self[2], 55 - 20 - 5);  // codec covers [50,70) and [90,95)
  EXPECT_EQ(self[3], 20 + 9);       // its own union, spill included
  // The spill past the parent shows as a 4 ns excess over the op.
  EXPECT_EQ(self[0] + self[1] + self[2] + self[3], 100 + 4);
}

TEST(SelfTime, NestedRowsAddUpExactly) {
  const std::vector<e2e::Layer> layers = {
      {{{10, 110}}, -1},
      {{{20, 80}}, 0},
      {{{30, 40}, {35, 50}, {60, 61}}, 1},
  };
  const std::vector<std::int64_t> self = e2e::self_times(layers);
  EXPECT_EQ(self[0] + self[1] + self[2], 100);
  EXPECT_EQ(self[2], 21);
}

TEST(Covered, ClipsToParentAndMergesOverlaps) {
  EXPECT_EQ(e2e::covered({0, 10}, {{-5, 3}, {2, 4}, {8, 20}}), 6);
  EXPECT_EQ(e2e::covered({0, 10}, {}), 0);
  EXPECT_EQ(e2e::covered({0, 10}, {{20, 30}}), 0);
}

TEST(Sustained, HighestPassingRungEvenWhenLatencyIsNotMonotone) {
  // Batching makes latency dip at 16 after failing at 8.
  const std::vector<e2e::LadderPoint> ladder = {
      {2, 100, 0}, {4, 200, 0}, {8, 300, 0}, {16, 240, 0}, {32, 600, 0}};
  EXPECT_EQ(e2e::sustained_rate(ladder, 250.0), 16.0);
}

TEST(Sustained, DropsDisqualifyAndNothingPassingGivesZero) {
  EXPECT_EQ(e2e::sustained_rate({{2, 100, 0}, {4, 120, 1}}, 250.0), 2.0);
  EXPECT_EQ(e2e::sustained_rate({{2, 300, 0}, {4, 120, 3}}, 250.0), 0.0);
  // The limit is strict.
  EXPECT_EQ(e2e::sustained_rate({{2, 250, 0}}, 250.0), 0.0);
}

TEST(FailedRatio, BaseIsRequestsArrived) {
  const e2e::Ratio r = e2e::service_failed({
      {10, 8, 1, 1, 0},  // 2 dropped
      {12, 12, 0, 0, 0},
      {6, 5, 0, 0, 1},   // 1 expired
  });
  EXPECT_EQ(r.base, 28);
  EXPECT_EQ(r.count, 3);
  EXPECT_DOUBLE_EQ(r.value(), 3.0 / 28.0);
}

TEST(FailedRatio, UnbalancedSessionCountsWhole) {
  // 10 arrived but only 7 accounted for: every request is suspect.
  const e2e::Ratio r = e2e::service_failed({{10, 6, 1, 0, 0}, {10, 10, 0, 0, 0}});
  EXPECT_FALSE((e2e::SessionCount{10, 6, 1, 0, 0}.conserved()));
  EXPECT_EQ(r.count, 10);
  EXPECT_EQ(r.base, 20);
  EXPECT_EQ(e2e::Ratio{}.value(), 0.0);
}

}  // namespace

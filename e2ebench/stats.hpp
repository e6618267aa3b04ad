// Statistics the end-to-end benchmark reports, free of rtc types so
// tests/logic_test.cpp can check each rule in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace e2e {

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it. NaN for an empty set.
[[nodiscard]] inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(p * n / 100.0));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Samples strictly beyond the nearest-rank p-th percentile of n.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n) / 100.0));
  return rank >= n ? 0 : n - rank;
}

/// A timing's tail: the highest percentile of kTailLadder with at least
/// `min_beyond` samples beyond it. With too few samples for any of them
/// the median stands in and `qualified` is false.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t samples = 0;
  bool qualified = false;
};

inline constexpr double kTailLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};

[[nodiscard]] inline Tail tail(const std::vector<double>& v,
                               std::size_t min_beyond = 10) {
  Tail t;
  t.samples = v.size();
  for (const double p : kTailLadder) {
    if (samples_beyond(v.size(), p) >= min_beyond) {
      t.percentile = p;
      t.qualified = true;
      break;
    }
  }
  t.value = percentile(v, t.percentile);
  return t;
}

/// Latency percentile over every request that arrived: a dropped request
/// never completes, so it counts as +infinity (missing any limit).
[[nodiscard]] inline double latency_percentile(std::vector<double> done,
                                               std::int64_t dropped,
                                               double p) {
  done.insert(done.end(), static_cast<std::size_t>(std::max<std::int64_t>(dropped, 0)),
              std::numeric_limits<double>::infinity());
  return percentile(std::move(done), p);
}

/// Half-open wall interval [begin, end) in nanoseconds.
struct Interval {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  [[nodiscard]] std::int64_t length() const {
    return end > begin ? end - begin : 0;
  }
};

/// Sorts and merges overlapping intervals, dropping empty ones.
[[nodiscard]] inline std::vector<Interval> merged(std::vector<Interval> v) {
  std::erase_if(v, [](const Interval& i) { return i.length() == 0; });
  std::sort(v.begin(), v.end(), [](const Interval& a, const Interval& b) {
    return a.begin < b.begin;
  });
  std::vector<Interval> out;
  for (const Interval& i : v) {
    if (!out.empty() && i.begin <= out.back().end) {
      out.back().end = std::max(out.back().end, i.end);
    } else {
      out.push_back(i);
    }
  }
  return out;
}

/// Length of the union of `children` that falls inside `parent`.
[[nodiscard]] inline std::int64_t covered(const Interval& parent,
                                          const std::vector<Interval>& children) {
  std::int64_t sum = 0;
  for (const Interval& c : merged(children)) {
    sum += Interval{std::max(parent.begin, c.begin),
                    std::min(parent.end, c.end)}
               .length();
  }
  return sum;
}

/// One layer of a traced op: the wall intervals its spans covered (they
/// may overlap, e.g. codec spans of concurrent ranks) and the index of
/// its parent layer (-1 for the op itself).
struct Layer {
  std::vector<Interval> spans;
  int parent = -1;
};

/// Self time of every layer: the union of its spans minus the part of
/// that union its child layers cover. When every child lies inside its
/// parent and siblings do not overlap, the self times add up to the
/// root's length exactly.
[[nodiscard]] inline std::vector<std::int64_t> self_times(
    const std::vector<Layer>& layers) {
  std::vector<std::int64_t> out(layers.size(), 0);
  for (std::size_t i = 0; i < layers.size(); ++i) {
    std::vector<Interval> children;
    for (const Layer& l : layers) {
      if (l.parent == static_cast<int>(i))
        children.insert(children.end(), l.spans.begin(), l.spans.end());
    }
    for (const Interval& s : merged(layers[i].spans))
      out[i] += s.length() - covered(s, children);
  }
  return out;
}

/// One rung of the offered-rate ladder.
struct LadderPoint {
  double rate = 0.0;    ///< offered requests/s
  double p90_ms = 0.0;  ///< latency p90 over arrivals (drops = +inf)
  std::int64_t dropped = 0;
};

/// Highest ladder rate whose p90 stays under `limit_ms` with nothing
/// dropped; 0 when no rate does. Every rung is judged on its own:
/// batching can make latency dip as the rate rises, so the first
/// failing rung does not end the search.
[[nodiscard]] inline double sustained_rate(
    const std::vector<LadderPoint>& ladder, double limit_ms) {
  double best = 0.0;
  for (const LadderPoint& pt : ladder) {
    if (pt.dropped == 0 && pt.p90_ms < limit_ms) best = std::max(best, pt.rate);
  }
  return best;
}

/// A share with its base kept, so the report can state both.
struct Ratio {
  std::int64_t count = 0;
  std::int64_t base = 0;
  [[nodiscard]] double value() const {
    return base > 0 ? static_cast<double>(count) / static_cast<double>(base)
                    : 0.0;
  }
};

/// Per-session request accounting of one service run.
struct SessionCount {
  std::int64_t arrived = 0;
  std::int64_t delivered = 0;
  std::int64_t shed = 0;
  std::int64_t rejected = 0;
  std::int64_t expired = 0;
  [[nodiscard]] std::int64_t dropped() const {
    return shed + rejected + expired;
  }
  /// Every request that arrived left exactly one way.
  [[nodiscard]] bool conserved() const {
    return arrived == delivered + dropped();
  }
};

/// failed_ratio of a service run: requests shed, rejected or expired,
/// plus every request of a session whose accounting does not balance,
/// over requests arrived.
[[nodiscard]] inline Ratio service_failed(
    const std::vector<SessionCount>& sessions) {
  Ratio r;
  for (const SessionCount& s : sessions) {
    r.base += s.arrived;
    r.count += s.conserved() ? s.dropped() : s.arrived;
  }
  return r;
}

}  // namespace e2e

// Seeded synthetic traffic for the render service.
//
// TrafficGen produces an OPEN-LOOP arrival schedule on the virtual
// clock: each session emits view requests at exponential (Poisson-
// process) interarrivals around a configured mean rate, with
// occasional heavy-tailed "think time" pauses (a Pareto tail — the
// user stopped orbiting to stare at the image) stretching the gap.
// Open-loop means arrivals do not wait for service: when the pipeline
// falls behind, queues grow and the admission policy decides who pays
// — exactly the overload behavior the front end exists to manage.
//
// All randomness is hash-derived (splitmix64 over (seed, session,
// index) — the same idiom as comm::FaultPlan), so the schedule is a
// pure function of the config: byte-identical across runs, platforms,
// and worker counts, never dependent on generation order.
//
// Every session walks the same yaw orbit (yaw0 + step per request,
// wrapped to [0, 360)); sessions are offset in time, not in path, so
// nearby arrivals often ask for nearby views — the coalescing the
// RequestBatcher exploits. Priorities cycle session % classes.
#pragma once

#include <cstdint>
#include <vector>

#include "rtc/service/session.hpp"

namespace rtc::service {

struct TrafficConfig {
  int sessions = 8;
  std::int64_t requests_per_session = 16;
  double arrival_rate = 50.0;  ///< mean requests/s per session (virtual)
  std::uint64_t seed = 1;
  /// Heavy-tail think times: with probability think_prob a gap is
  /// stretched by a Pareto(alpha) pause of at least think_min seconds.
  double think_prob = 0.125;
  double think_min = 0.05;
  double think_alpha = 1.5;  ///< tail index; <= 2 = infinite variance
  /// Shared camera orbit: session s's request k asks for
  /// yaw0 + step*k (mod 360) at the configured pitch.
  double yaw0_deg = 0.0;
  double yaw_step_deg = 5.0;
  double pitch_deg = 15.0;
  /// Sessions cycle through this many priority classes (s % classes).
  int priority_classes = 1;
};

class TrafficGen {
 public:
  explicit TrafficGen(const TrafficConfig& cfg) : cfg_(cfg) {}

  /// The full arrival schedule, sorted by (arrival, session, seq) —
  /// a deterministic function of the config alone.
  [[nodiscard]] std::vector<Request> generate() const;

  /// Priority class of session `s` (s % priority_classes).
  [[nodiscard]] int priority_of(int session) const {
    return session % (cfg_.priority_classes >= 1 ? cfg_.priority_classes : 1);
  }

  [[nodiscard]] const TrafficConfig& config() const { return cfg_; }

 private:
  TrafficConfig cfg_;
};

}  // namespace rtc::service

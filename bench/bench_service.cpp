// Render-service bench: N concurrent sessions of seeded synthetic
// traffic over one P-rank world, in exact virtual time.
//
// Drives service::run_service at a deliberately overloaded operating
// point (open-loop arrivals faster than the pipeline drains), so the
// admission policy, the batcher and the latency distribution all do
// real work. Before writing anything the bench *asserts* the service
// invariants: the run is byte-identical at one and at four worker
// threads (virtual time never depends on host scheduling), the
// overload actually shed requests, and the batcher coalesced shared
// views. Exit 1 if any fails.
//
// Golden: bench/golden/service_p32.json (P=32, 48^3 engine, 128x128,
// 8 sessions x 6 requests @ 200/s, shed-oldest @ cap 2, depth 2,
// rt_n/3/trle — byte-identical across runs and worker counts).
#include "bench_common.hpp"

#include "rtc/service/service.hpp"

int main(int argc, char** argv) {
  using namespace rtc;
  bench::BenchOptions defaults;
  defaults.ranks = 32;
  defaults.volume_n = 48;
  defaults.image_size = 128;
  const bench::BenchOptions o = bench::parse_options(argc, argv, defaults);
  bench::print_header("render service: admission + batching under load", o);

  service::ServiceConfig sc;
  sc.dataset = o.dataset;
  sc.ranks = o.ranks;
  sc.volume_n = o.volume_n;
  sc.image_size = o.image_size;
  sc.max_in_flight = 2;
  sc.traffic.sessions = 8;
  sc.traffic.requests_per_session = 6;
  sc.traffic.arrival_rate = 200.0;  // open-loop overload
  sc.traffic.seed = 1;
  sc.traffic.yaw_step_deg = 5.0;
  sc.queue_cap = 2;
  sc.admission = service::AdmissionPolicy::kShedOldest;
  sc.quant_deg = 1.0;
  sc.comp.method = "rt_n";
  sc.comp.initial_blocks = 3;
  sc.comp.codec = "trle";
  sc.comp.net = o.net;
  sc.comp.group_size = o.group_size;

  // Worker-count determinism: the virtual timeline must not depend on
  // how ranks are scheduled onto host threads.
  sc.comp.executor.workers = 1;
  const service::ServiceResult res = service::run_service(sc);
  service::ServiceConfig other = sc;
  other.comp.executor.workers = 4;
  const service::ServiceResult res2 = service::run_service(other);

  service::print_service(std::cout, sc, res);

  if (res.makespan != res2.makespan ||
      res.deliveries.size() != res2.deliveries.size() ||
      res.latency_percentile(95.0) != res2.latency_percentile(95.0)) {
    std::cerr << "FAIL: --workers 1 and --workers 4 disagree on the "
                 "virtual timeline\n";
    return 1;
  }
  if (res.stats.total_session_sheds() <= 0) {
    std::cerr << "FAIL: overloaded service shed nothing — admission "
                 "control never engaged\n";
    return 1;
  }
  if (res.stats.total_batches_joined() <= 0) {
    std::cerr << "FAIL: no requests coalesced on a shared orbit\n";
    return 1;
  }

  if (!o.json_out.empty()) {
    bench::write_golden_json(
        o.json_out, "service", o,
        {{"makespan_s", res.makespan},
         {"deliveries", static_cast<double>(res.deliveries.size())},
         {"submissions", static_cast<double>(res.submissions.size())},
         {"coalesced",
          static_cast<double>(res.stats.total_batches_joined())},
         {"shed", static_cast<double>(res.stats.total_session_sheds())},
         {"latency_mean_s", res.latency_mean()},
         {"latency_p95_s", res.latency_percentile(95.0)},
         {"latency_max_s", res.latency_max()},
         {"pipeline_queue_wait_s", res.total_queue_wait},
         {"deliveries_per_s", res.delivered_per_second()}});
  }
  return 0;
}

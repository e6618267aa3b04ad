// End-to-end benchmark program: one workload per process, both clocks.
//
//   rtc_e2ebench --workload NAME --seed N --seconds S --trace 0|1
//                [--trace-out FILE]
//
// Workloads (README.md in this directory says why each was chosen):
//   frame_p32_raw       one op = render_scene + run_composition, P=32,
//                       512^2, 96^3 engine, rt_2n N=4, no codec, gather
//   composite_p64_trle  one op = run_composition over 64 partials
//                       rendered in set-up, rt_2n N=4, TRLE, gather
//   service_p8          one op = run_service over a seeded open-loop
//                       trace, P=8, 256^2, 64^3, 8 sessions, rt_n N=3
//
// The benchmark only calls the library's public functions and times
// them from outside. --trace 0 reports the end-to-end metrics from
// untraced ops. --trace 1 alternates traced and untraced ops of the
// same input, reports the per-layer metrics from the traced ones (the
// program's own record_spans plus this file's spans around each call),
// and the overhead of tracing from the difference.
//
// Every op's output is checked; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"} and the exit
// code is non-zero when any check failed.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "rtc/comm/executor.hpp"
#include "rtc/common/flags.hpp"
#include "rtc/compositing/wire.hpp"
#include "rtc/harness/experiment.hpp"
#include "rtc/harness/scene.hpp"
#include "rtc/image/ops.hpp"
#include "rtc/image/serialize.hpp"
#include "rtc/obs/metrics.hpp"
#include "rtc/service/service.hpp"
#include "rtc/service/traffic.hpp"
#include "rtc/simd/dispatch.hpp"
#include "stats.hpp"

namespace {

using namespace rtc;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

double median(std::vector<double> v) { return e2e::percentile(std::move(v), 50.0); }

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------
// Options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "rtc_e2ebench: " << why
            << "\nusage: rtc_e2ebench --workload frame_p32_raw|"
               "composite_p64_trle|service_p8 --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      const auto v = flags::parse_int(value);
      if (!v || *v < 0) usage("--seed expects a non-negative integer");
      o.seed = static_cast<std::uint64_t>(*v);
    } else if (flag == "--seconds") {
      const auto v = flags::parse_double(value);
      if (!v || !(*v > 0.0)) usage("--seconds expects a positive number");
      o.seconds = *v;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace expects 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

// ---------------------------------------------------------------------
// Report: every metric by name with its unit, then the JSON result line.

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string note;
};

struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;

  void e2e(std::string name, std::string unit, double v, std::string note = {}) {
    end_to_end.push_back({std::move(name), std::move(unit), v, std::move(note)});
  }
  void layer(std::string name, std::string unit, double v, std::string note = {}) {
    per_layer.push_back({std::move(name), std::move(unit), v, std::move(note)});
  }
  /// Records one op's checks: a failed op counts once however many of
  /// its checks failed, and the first few messages are kept.
  void op_checked(const std::vector<std::string>& problems) {
    ++attempted;
    if (problems.empty()) return;
    ++failed;
    for (const std::string& p : problems)
      if (failures.size() < 8) failures.push_back(p);
  }
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::cout << title << "\n";
  for (const Metric& m : metrics) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "  %-28s %16.6f %-12s", m.name.c_str(),
                  m.value, m.unit.c_str());
    std::cout << buf << (m.note.empty() ? "" : "  " + m.note) << "\n";
  }
}

int finish(const Options& o, const Report& r) {
  print_table("end-to-end (untraced ops):", r.end_to_end);
  if (o.trace) print_table("per-layer (traced ops):", r.per_layer);
  for (const std::string& f : r.failures) std::cout << "FAILED CHECK: " << f << "\n";
  const bool correct = r.failed == 0 && r.attempted > 0;
  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  const auto& metrics = o.trace ? r.per_layer : r.end_to_end;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    js << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------
// Run conditions: every knob that silently moves wall numbers.

void print_conditions(const Options& o, int ranks) {
  const char* blend_env = std::getenv("RTC_BLEND_THREADS");
  const char* simd_env = std::getenv("RTC_SIMD");
  const comm::ExecutorConfig exec;
#ifdef RTC_OBS_DISABLED
  const char* obs = "OFF";
#else
  const char* obs = "ON";
#endif
  std::cout << "workload=" << o.workload << " seed=" << o.seed
            << " seconds=" << o.seconds << " trace=" << (o.trace ? 1 : 0)
            << "\nconditions: build=" << E2E_BUILD_TYPE
            << " simd=" << simd::to_string(simd::active_level())
            << " (RTC_SIMD=" << (simd_env ? simd_env : "unset")
            << ", detected " << simd::to_string(simd::detected_level()) << ")"
            << " executor=" << comm::to_string(exec.kind)
            << " workers=" << comm::default_pool_workers(ranks)
            << " blend_threads=" << img::blend_threads()
            << " (RTC_BLEND_THREADS=" << (blend_env ? blend_env : "unset") << ")"
            << " RTC_OBS=" << obs
            << " nproc=" << std::thread::hardware_concurrency() << "\n";
}

/// Peak resident memory per timed op. Before the loop, malloc_trim(0)
/// hands freed heap pages back to the kernel. Before each untraced op,
/// begin() resets the process's high-water mark (VmHWM) to its current
/// RSS; right after the op, end() reads the mark back. The metric is
/// the median over ops: the mark of the whole loop is its single worst
/// op, and that one moves with how glibc's per-thread arenas happen to
/// retain memory. Set-up, warm-up, checks and the ladder do not count.
class PeakRss {
 public:
  PeakRss() { malloc_trim(0); }

  void begin() {
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    reset_ = reset_ && static_cast<bool>(clear);
  }

  void end() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
      if (line.rfind("VmHWM:", 0) == 0) {
        mb_.push_back(std::stod(line.substr(6)) / 1024.0);  // kB
        return;
      }
  }

  [[nodiscard]] double median_mb() const { return mb_.empty() ? 0.0 : median(mb_); }

  [[nodiscard]] std::string note() const {
    return reset_ ? "median over " + std::to_string(mb_.size()) + " ops of the op's high-water mark"
                  : "high-water mark NOT reset: includes set-up and warm-up";
  }

 private:
  bool reset_ = true;
  std::vector<double> mb_;
};

// ---------------------------------------------------------------------
// Checks

std::uint64_t digest(const img::Image& im, std::uint64_t h = 1469598103934665603ull) {
  for (const img::GrayA8& p : im.pixels()) {
    h = (h ^ p.v) * 1099511628211ull;
    h = (h ^ p.a) * 1099511628211ull;
  }
  return h;
}

/// Depth-scaled rounding tolerance against the sequential reference:
/// "over" re-associated across a log2(P)-deep merge tree rounds at most
/// once per level (measured 4 at P=32 and P=64); capped at the 8 the
/// repo's rendered-scene test allows.
int reference_tolerance(int ranks) {
  const int depth = static_cast<int>(std::ceil(std::log2(static_cast<double>(ranks))));
  return std::min(depth + 1, 8);
}

// ---------------------------------------------------------------------
// Spans recorded by this file around each public call, and the layer
// tree that turns them (plus the program's own codec spans) into
// per-layer self times.

struct BenchSpan {
  std::string layer;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  int op = 0;
};

std::vector<std::vector<obs::Span>> per_rank_spans(const comm::RunStats& st) {
  std::vector<std::vector<obs::Span>> out;
  for (const comm::RankStats& r : st.ranks) out.push_back(r.spans);
  return out;
}

bool is_codec(obs::SpanKind k) {
  return k == obs::SpanKind::kEncode || k == obs::SpanKind::kDecode ||
         k == obs::SpanKind::kDecodeBlend;
}

std::vector<e2e::Interval> codec_intervals(const comm::RunStats& st) {
  std::vector<e2e::Interval> out;
  for (const comm::RankStats& r : st.ranks)
    for (const obs::Span& s : r.spans)
      if (is_codec(s.kind)) out.push_back({s.wall_begin_ns, s.wall_end_ns});
  return out;
}

/// Layers of the self-time table, in report order. A workload leaves
/// the layers it does not have empty.
enum LayerId { kBench, kService, kRender, kCompositing, kCompress, kLayers };
constexpr const char* kLayerName[kLayers] = {"bench", "service", "render",
                                             "compositing", "compress"};

/// Accumulates per-op self times. The root row is the op minus its
/// children, so the rows add up to the op's wall time by construction;
/// what the table tells is where the time went, and the root row's
/// share is the part of the op no layer span covers.
struct SelfTimes {
  std::vector<double> sum_ms = std::vector<double>(kLayers, 0.0);
  std::vector<double> op_ms;
  std::vector<double> unattributed;  ///< root row / op, per traced op

  /// `layers[0]` is the op itself (reported as the "bench" row or, for
  /// the service, the "service" row); ids maps each layer to its row.
  void add(const std::vector<e2e::Layer>& layers, const std::vector<LayerId>& ids) {
    const std::vector<std::int64_t> self = e2e::self_times(layers);
    const double op = ns_to_ms(layers[0].spans.front().length());
    for (std::size_t i = 0; i < self.size(); ++i) sum_ms[ids[i]] += ns_to_ms(self[i]);
    op_ms.push_back(op);
    unattributed.push_back(op > 0.0 ? ns_to_ms(self[0]) / op : 0.0);
  }
};

void report_self_times(Report& r, const SelfTimes& st) {
  const auto n = static_cast<double>(std::max<std::size_t>(st.op_ms.size(), 1));
  for (int l = 0; l < kLayers; ++l)
    r.layer(std::string("self_ms.") + kLayerName[l], "ms",
            st.sum_ms[static_cast<std::size_t>(l)] / n, "mean per traced op");
  r.layer("traced.wall_ms.mean", "ms", mean(st.op_ms),
          "rows above add up to this by construction");
  r.layer("trace.unattributed_ratio", "ratio", mean(st.unattributed),
          "root row / op: the share no layer span below the op covers");
}

/// Trace file: this file's spans plus the last traced op's per-rank
/// program spans, as Chrome trace-event JSON on the wall clock (µs from
/// the first span). Load it in ui.perfetto.dev.
void write_trace(const std::string& path, const std::vector<BenchSpan>& bench,
                 const comm::RunStats* program) {
  if (path.empty()) return;
  std::ofstream os(path);
  if (!os) {
    std::cerr << "rtc_e2ebench: cannot write " << path << "\n";
    return;
  }
  std::int64_t t0 = bench.empty() ? 0 : bench.front().begin;
  for (const BenchSpan& s : bench) t0 = std::min(t0, s.begin);
  const auto us = [&](std::int64_t ns) {
    return json_number(static_cast<double>(ns - t0) * 1e-3);
  };
  os << "{\"traceEvents\": [\n";
  bool first = true;
  const auto event = [&](const std::string& name, int tid, std::int64_t b,
                         std::int64_t e, const std::string& args) {
    os << (first ? "" : ",\n") << "{\"name\": \"" << name
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << tid
       << ", \"ts\": " << us(b) << ", \"dur\": " << json_number(static_cast<double>(e - b) * 1e-3)
       << ", \"args\": {" << args << "}}";
    first = false;
  };
  for (const BenchSpan& s : bench)
    event(s.layer, 0, s.begin, s.end, "\"op\": " + std::to_string(s.op));
  if (program != nullptr) {
    for (std::size_t r = 0; r < program->ranks.size(); ++r)
      for (const obs::Span& s : program->ranks[r].spans)
        if (s.wall_end_ns > s.wall_begin_ns)
          event(obs::span_name(s.kind), static_cast<int>(r) + 1, s.wall_begin_ns,
                s.wall_end_ns,
                "\"step\": " + std::to_string(s.step) +
                    ", \"frame\": " + std::to_string(s.frame));
  }
  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

// ---------------------------------------------------------------------
// Counters the program exposes, turned into per-layer metrics.

constexpr double kBlendBytesPerPixel = 3.0 * static_cast<double>(img::kBytesPerPixel);

struct Counters {
  double messages = 0, bytes = 0, max_msgs = 0, retransmits = 0;
  double send_vs = 0, recv_wait_vs = 0, blend_vs = 0, codec_vs = 0;
  double gather_bytes = 0, gather_raw = 0, gather_encoded = 0;
  double raw_bytes = 0, encoded_bytes = 0, blank_px = 0, blend_px = 0;
  double encode_wall_ms = 0, decode_wall_ms = 0;
  double coherence_hits = 0, coherence_misses = 0, coherence_saved = 0;

  void add(const comm::RunStats& st) {
    messages += static_cast<double>(st.total_messages());
    bytes += static_cast<double>(st.total_bytes_sent());
    max_msgs = std::max(max_msgs, static_cast<double>(st.max_messages_sent_by_rank()));
    retransmits += static_cast<double>(st.total_retransmits());
    coherence_hits += static_cast<double>(st.total_coherence_hits());
    coherence_misses += static_cast<double>(st.total_coherence_misses());
    coherence_saved += static_cast<double>(st.total_coherence_bytes_saved());
    for (const obs::StepMetrics& m : obs::aggregate_steps(per_rank_spans(st))) {
      send_vs += m.send_s;
      recv_wait_vs += m.recv_wait_s;
      blend_vs += m.blend_s;
      codec_vs += m.codec_s;
      raw_bytes += static_cast<double>(m.raw_bytes);
      encoded_bytes += static_cast<double>(m.encoded_bytes);
      blank_px += static_cast<double>(m.blank_pixels_skipped);
      blend_px += static_cast<double>(m.blend_pixels);
      if (m.step >= compositing::kGatherTag) {
        gather_bytes += static_cast<double>(m.wire_bytes);
        gather_raw += static_cast<double>(m.raw_bytes);
        gather_encoded += static_cast<double>(m.encoded_bytes);
      }
    }
    for (const comm::RankStats& r : st.ranks)
      for (const obs::Span& s : r.spans) {
        const double ms = ns_to_ms(s.wall_end_ns - s.wall_begin_ns);
        if (s.kind == obs::SpanKind::kEncode) encode_wall_ms += ms;
        if (s.kind == obs::SpanKind::kDecode || s.kind == obs::SpanKind::kDecodeBlend)
          decode_wall_ms += ms;
      }
  }

  /// Reports the counters divided by `ops` (1 unless several distinct
  /// inputs were summed).
  void report(Report& r, double ops) const {
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 1.0; };
    r.layer("compositing.blend_vs", "s_virtual", blend_vs / ops, "summed over ranks");
    r.layer("compositing.codec_vs", "s_virtual", codec_vs / ops, "summed over ranks");
    r.layer("comm.messages", "count", messages / ops);
    r.layer("comm.bytes", "B", bytes / ops);
    r.layer("comm.max_msgs_per_rank", "count", max_msgs);
    r.layer("comm.send_vs", "s_virtual", send_vs / ops, "summed over ranks");
    r.layer("comm.recv_wait_vs", "s_virtual", recv_wait_vs / ops,
            "summed over ranks: waiting on other ranks");
    r.layer("comm.retransmits", "count", retransmits / ops, "must stay 0");
    r.layer("gather.bytes", "B", gather_bytes / ops);
    r.layer("gather.ratio", "ratio", ratio(gather_raw, gather_encoded),
            "raw / encoded bytes of the gather step");
    r.layer("compress.raw_bytes", "B", raw_bytes / ops);
    r.layer("compress.encoded_bytes", "B", encoded_bytes / ops);
    r.layer("compress.ratio", "ratio", ratio(raw_bytes, encoded_bytes),
            "raw / encoded bytes, all steps");
    r.layer("compress.blank_px_skipped", "count", blank_px / ops);
    r.layer("compress.encode_wall_ms", "ms", encode_wall_ms / ops, "summed over ranks");
    r.layer("compress.decode_wall_ms", "ms", decode_wall_ms / ops,
            "decode + fused decode_blend, summed over ranks");
    r.layer("blend.pixels", "count", blend_px / ops);
    r.layer("blend.computed_mb", "MB", blend_px * kBlendBytesPerPixel / ops / 1e6,
            "computed: 2 reads + 1 write of 2 B per blended pixel");
    r.layer("coherence.hit_ratio", "ratio",
            coherence_hits + coherence_misses > 0
                ? coherence_hits / (coherence_hits + coherence_misses)
                : 0.0,
            "0 where no coherence cache runs");
    r.layer("coherence.bytes_saved", "B", coherence_saved / ops);
  }
};

double nonblank_ratio(const std::vector<img::Image>& partials) {
  double px = 0.0, nonblank = 0.0;
  for (const img::Image& p : partials) {
    px += static_cast<double>(p.pixel_count());
    nonblank += static_cast<double>(img::count_non_blank(p.pixels()));
  }
  return px > 0 ? nonblank / px : 0.0;
}

// ---------------------------------------------------------------------
// The timed loop shared by every workload.

/// Runs `op(index, traced)` until `seconds` have passed and at least
/// `min_ops` ops ran. With tracing, ops come in pairs over the same
/// input, one traced and one not, alternating which goes first so
/// drift cancels. `op` returns the op's wall time in ms (its check is
/// timed separately).
std::vector<std::pair<double, bool>> timed_loop(
    const Options& o, int min_ops, const std::function<double(int, bool)>& op) {
  std::vector<std::pair<double, bool>> out;
  const auto start = Clock::now();
  const auto limit = std::chrono::duration<double>(o.seconds);
  for (int i = 0;; ++i) {
    const bool pair_start = !o.trace || i % 2 == 0;
    if (pair_start && static_cast<int>(out.size()) >= min_ops &&
        Clock::now() - start >= limit)
      break;
    const int input = o.trace ? i / 2 : i;
    const bool traced = o.trace && ((i % 2 == 0) == (input % 2 == 0));
    out.emplace_back(op(input, traced), traced);
  }
  return out;
}

void report_wall(Report& r, const std::vector<std::pair<double, bool>>& ops) {
  std::vector<double> plain, traced;
  for (const auto& [ms, t] : ops) (t ? traced : plain).push_back(ms);
  const e2e::Tail t = e2e::tail(plain);
  char note[160];
  std::snprintf(note, sizeof note, "p%g of %zu ops%s", t.percentile, t.samples,
                t.qualified ? "" : " (fewer than 10 beyond any higher percentile)");
  char tail_note[192];
  std::snprintf(tail_note, sizeof tail_note, "%zu ops; tail %.3f ms at %s", plain.size(),
                t.value, note);
  r.e2e("wall_ms.p50", "ms", median(plain), tail_note);
  // Per-layer, not end-to-end: on a shared VM the ops beyond p99 are the
  // ones hypervisor steal hit, so the tail spreads too much between runs
  // to gate (README.md, "Noise").
  r.layer("wall_ms.tail", "ms", t.value, note);
  if (!traced.empty()) {
    r.layer("obs.overhead_ratio", "ratio", median(traced) / median(plain) - 1.0,
            "traced p50 / untraced p50 - 1, " + std::to_string(traced.size()) +
                " op pairs");
  } else {
    r.layer("obs.overhead_ratio", "ratio", 0.0, "untraced run");
  }
}

/// Set-up repeats until it has run kSetupMinReps times and for
/// kSetupMinSeconds, at most kSetupMaxReps times; the median is
/// reported, so a short set-up gets enough repeats to be steady.
constexpr int kSetupMinReps = 3;
constexpr int kSetupMaxReps = 200;
constexpr double kSetupMinSeconds = 1.0;

template <class Fn>
std::pair<double, int> median_setup_s(Fn&& fn) {
  std::vector<double> s;
  double total = 0.0;
  while (static_cast<int>(s.size()) < kSetupMinReps ||
         (total < kSetupMinSeconds && static_cast<int>(s.size()) < kSetupMaxReps)) {
    const auto t0 = Clock::now();
    fn();
    s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    total += s.back();
  }
  return {median(s), static_cast<int>(s.size())};
}

/// Virtual latency limit on the p90 for sustained_rps. It sits between
/// the p90 bands of the service ladder's 4 and 8 req/s rungs (measured
/// 130-230 ms and 330-510 ms over seeds), so the seed does not flip
/// which rung passes.
constexpr double kLatencyLimitMs = 275.0;

void report_single_frame_latency(Report& r, double latency_ms) {
  r.e2e("latency_ms.p50", "ms_virtual", latency_ms, "one request per op");
  r.e2e("latency_ms.p90", "ms_virtual", latency_ms, "one request per op");
  r.e2e("sustained_rps", "1/s_virtual",
        latency_ms < kLatencyLimitMs ? 1000.0 / latency_ms : 0.0,
        "frames/s of back-to-back requests under the limit");
}

/// Per-layer metrics of the frames and service modules, which only
/// the service workload runs.
struct ServiceLayers {
  double queue_wait_vs = 0, render_vs = 0, composite_vs = 0;
  double shed = 0, rejected = 0, expired = 0, submissions = 0;
  double riders = 0, delivered = 0, queue_peak = 0;

  void report(Report& r, double ops) const {
    const char* note = submissions > 0 ? "summed over submissions" : "not run here";
    r.layer("frames.queue_wait_vs", "s_virtual", queue_wait_vs / ops, note);
    r.layer("frames.render_vs", "s_virtual", render_vs / ops, note);
    r.layer("frames.composite_vs", "s_virtual", composite_vs / ops, note);
    r.layer("admission.shed", "count", shed / ops);
    r.layer("admission.rejected", "count", rejected / ops);
    r.layer("admission.expired", "count", expired / ops);
    r.layer("service.submissions", "count", submissions / ops);
    r.layer("service.riders_ratio", "ratio", delivered > 0 ? riders / delivered : 0.0,
            "coalesced riders / delivered requests");
    r.layer("service.queue_peak", "count", queue_peak, "deepest session queue");
  }
};

// ---------------------------------------------------------------------
// frame_p32_raw and composite_p64_trle

/// Spans per rank ring when traced. The library default (65536) costs
/// more to allocate per op than the op itself; ops here record a few
/// hundred per rank, and a check rejects any op that overflows.
constexpr std::size_t kTraceCapacity = std::size_t{1} << 10;

std::uint64_t dropped_spans(const comm::RunStats& st) {
  std::uint64_t n = 0;
  for (const comm::RankStats& r : st.ranks) n += r.spans_dropped;
  return n;
}

constexpr int kFrameRanks = 32;
constexpr int kCompositeRanks = 64;
constexpr int kImage = 512;
constexpr int kVolume = 96;

harness::CompositionConfig rt2n_config(const std::string& codec) {
  harness::CompositionConfig cfg;
  cfg.method = "rt_2n";
  cfg.initial_blocks = 4;
  cfg.codec = codec;
  cfg.gather = true;
  cfg.trace_capacity = kTraceCapacity;
  return cfg;
}

/// The other codec's composite of the same partials must match byte for
/// byte (TRLE is lossless); the sequential reference must agree within
/// the rounding tolerance. Returns the reference error.
int verify_against_references(const std::vector<img::Image>& partials,
                              const img::Image& image, const std::string& codec,
                              std::vector<std::string>& problems) {
  const std::string other = codec == "trle" ? "" : "trle";
  const harness::CompositionRun alt = harness::run_composition(rt2n_config(other), partials);
  if (!(alt.image == image))
    problems.push_back("TRLE and raw composites of the same partials differ");
  const int err = img::max_channel_diff(image, img::composite_reference(partials));
  if (err > reference_tolerance(static_cast<int>(partials.size())))
    problems.push_back("composite differs from the sequential reference by " +
                       std::to_string(err));
  return err;
}

int run_frame_or_composite(const Options& o, bool frame) {
  const int ranks = frame ? kFrameRanks : kCompositeRanks;
  const std::string codec = frame ? "" : "trle";
  print_conditions(o, ranks);
  Report r;
  std::vector<BenchSpan> spans;

  std::optional<harness::Scene> scene;
  harness::RenderedScene pre;  // composite: partials rendered in set-up
  std::vector<double> scene_ms, render_setup_ms;
  const auto [setup_s, setup_reps] = median_setup_s([&] {
    auto t0 = Clock::now();
    scene.emplace(harness::make_scene("engine", kVolume, kImage));
    scene_ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    if (!frame) {
      pre = {};  // never hold two sets of 64 partials at once
      t0 = Clock::now();
      pre = harness::render_scene(*scene, ranks, harness::PartitionKind::kSlab1D);
      render_setup_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    }
  });

  // Warm-up op: not timed; its output is verified against both
  // references, and every later op must reproduce it exactly.
  harness::CompositionConfig cfg = rt2n_config(codec);
  std::optional<harness::RenderedScene> warm;
  if (frame) warm = harness::render_scene(*scene, ranks, harness::PartitionKind::kSlab1D);
  const auto& warm_partials = frame ? warm->partials : pre.partials;
  const harness::CompositionRun first = harness::run_composition(cfg, warm_partials);
  std::vector<std::string> problems;
  const auto tc0 = Clock::now();
  const int max_err = verify_against_references(warm_partials, first.image, codec, problems);
  const double verify_ms = std::chrono::duration<double, std::milli>(Clock::now() - tc0).count();
  const std::uint64_t want = digest(first.image);
  const double render_vs = frame ? harness::render_stage_time(*warm) : 0.0;
  const double nonblank = nonblank_ratio(warm_partials);
  warm.reset();
  r.op_checked(problems);

  std::vector<double> render_ms, comp_ms, check_ms;
  SelfTimes self;
  Counters counters;
  comm::RunStats last_traced;
  PeakRss rss;
  const auto ops = timed_loop(o, 1, [&](int index, bool traced) {
    cfg.record_spans = traced;
    std::vector<std::string> bad;
    if (!traced) rss.begin();
    const std::int64_t b = now_ns();
    harness::RenderedScene rs;
    if (frame) rs = harness::render_scene(*scene, ranks, harness::PartitionKind::kSlab1D);
    const std::int64_t m = now_ns();
    const auto& partials = frame ? rs.partials : pre.partials;
    harness::CompositionRun run = harness::run_composition(cfg, partials);
    const std::int64_t e = now_ns();
    if (!traced) rss.end();
    const e2e::Interval render_iv{b, m}, comp_iv{m, e};

    // Check, timed apart from the op.
    const std::int64_t c0 = now_ns();
    if (digest(run.image) != want) bad.push_back("op image differs from the verified first op");
    if (run.time != first.time) bad.push_back("virtual makespan differs between ops");
    if (frame && img::max_channel_diff(run.image, img::composite_reference(partials)) >
                     reference_tolerance(ranks))
      bad.push_back("composite differs from the sequential reference");
    if (run.degraded) bad.push_back("composition degraded on a fault-free run");
    if (dropped_spans(run.stats) > 0) bad.push_back("trace ring overflowed");
    check_ms.push_back(ns_to_ms(now_ns() - c0));
    r.op_checked(bad);

    if (traced) {
      spans.push_back({"op", b, e, index});
      if (frame) spans.push_back({"render", b, m, index});
      spans.push_back({"compositing", m, e, index});
      render_ms.push_back(ns_to_ms(render_iv.length()));
      comp_ms.push_back(ns_to_ms(comp_iv.length()));
      std::vector<e2e::Layer> layers = {{{{b, e}}, -1}};
      std::vector<LayerId> ids = {kBench};
      if (frame) {
        layers.push_back({{render_iv}, 0});
        ids.push_back(kRender);
      }
      layers.push_back({{comp_iv}, 0});
      ids.push_back(kCompositing);
      layers.push_back({codec_intervals(run.stats), static_cast<int>(layers.size()) - 1});
      ids.push_back(kCompress);
      self.add(layers, ids);
      if (counters.messages == 0) counters.add(run.stats);
      last_traced = std::move(run.stats);
    }
    return ns_to_ms(e - b);
  });

  // End-to-end.
  r.e2e("setup_s", "s", setup_s,
        "median of " + std::to_string(setup_reps) +
            (frame ? ": scene build" : ": scene build + 64 partials rendered"));
  report_wall(r, ops);
  r.e2e("virtual_ms", "ms_virtual", first.time * 1e3, "LogGP makespan incl. gather");
  r.e2e("peak_rss_mb", "MB", rss.median_mb(), rss.note());
  report_single_frame_latency(r, (render_vs + first.delivery_time) * 1e3);

  // Per-layer.
  r.layer("scene.wall_ms", "ms", median(scene_ms), "median of set-up builds");
  r.layer("render.wall_ms", "ms", frame ? mean(render_ms) : median(render_setup_ms),
          frame ? "mean per traced op" : "set-up only (median of set-up runs)");
  r.layer("render.nonblank_ratio", "ratio", nonblank, "non-blank px / partial px");
  r.layer("compositing.wall_ms", "ms", mean(comp_ms), "mean per traced op");
  r.layer("check.wall_ms", "ms", median(check_ms),
          "median per op; first-op cross-codec verification took " +
              std::to_string(verify_ms) + " ms");
  counters.report(r, 1.0);
  ServiceLayers{}.report(r, 1.0);
  report_self_times(r, self);
  r.layer("max_px_err", "level", max_err, "vs composite_reference; tolerance " +
                                              std::to_string(reference_tolerance(ranks)));
  r.layer("failed_ratio", "ratio", e2e::Ratio{r.failed, r.attempted}.value(),
          "base: " + std::to_string(r.attempted) + " ops");
  write_trace(o.trace_out, spans, o.trace ? &last_traced : nullptr);
  return finish(o, r);
}

// ---------------------------------------------------------------------
// service_p8

constexpr int kServiceRanks = 8;
constexpr int kSessions = 8;
/// Short traces keep an op near 0.7 s, so a run times about 40 ops and
/// a burst of host contention moves few of them. The medians of ten
/// 2.7 s ops of 8 x 12 requests spread past the wall bound between runs
/// (README.md, "Noise").
constexpr int kRequestsPerSession = 3;
/// Distinct seeded traces per run: op i replays trace i % kTraces, and
/// the latency metrics pool the first run of each, so one unlucky
/// heavy-tail draw cannot swing a run's percentiles.
constexpr int kTraces = 32;
/// Nominal offered rate per session (requests/s): well below the
/// shedding onset, so nothing drops; the median request is served
/// without waiting and the p90 one waits behind other sessions.
constexpr double kNominalRate = 1.0;
/// Offered-rate ladder for sustained_rps (per session), each rung over
/// kLadderTraces traces of kLadderRequestsPerSession requests: a
/// backlog needs longer traces than the timed ops replay. One pass
/// suffices: virtual time is deterministic.
constexpr double kLadder[] = {1.0, 2.0, 4.0, 8.0};
constexpr int kLadderTraces = 2;
constexpr int kLadderRequestsPerSession = 12;

std::uint64_t trace_seed(std::uint64_t seed, int trace) {
  std::uint64_t z = seed * 0x100 + static_cast<std::uint64_t>(trace) + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

service::ServiceConfig service_config(double rate, std::uint64_t seed,
                                      int requests_per_session = kRequestsPerSession) {
  service::ServiceConfig sc;
  sc.dataset = "engine";
  sc.ranks = kServiceRanks;
  sc.volume_n = 64;
  sc.image_size = 256;
  sc.traffic.sessions = kSessions;
  sc.traffic.requests_per_session = requests_per_session;
  sc.traffic.arrival_rate = rate;
  sc.traffic.seed = seed;
  sc.admission = service::AdmissionPolicy::kShedOldest;
  sc.queue_cap = 8;
  sc.coherence = true;
  sc.comp.method = "rt_n";
  sc.comp.initial_blocks = 3;
  sc.comp.codec = "trle";
  sc.comp.gather = true;
  sc.comp.trace_capacity = kTraceCapacity;
  return sc;
}

/// Per-session arrivals the trace generator emits, for the
/// conservation check.
std::vector<std::int64_t> arrivals_per_session(const service::ServiceConfig& sc) {
  std::vector<std::int64_t> n(static_cast<std::size_t>(sc.traffic.sessions), 0);
  for (const service::Request& q : service::TrafficGen(sc.traffic).generate())
    ++n[static_cast<std::size_t>(q.session)];
  return n;
}

/// What one service run delivered, reduced to what the report needs.
struct ServiceOutcome {
  std::uint64_t digest = 0;  ///< images + delivery timeline
  double makespan = 0.0;
  std::vector<double> latencies_ms;
  std::vector<double> composite_s;  ///< per submission (virtual)
  std::vector<double> yaw_deg;      ///< per submission, for the render replay
  std::vector<img::Image> images;   ///< per submission, kept for trace 0 only
  std::vector<e2e::SessionCount> sessions;
  std::int64_t dropped = 0;
};

/// `nominal`: the run is at the nominal rate, where nothing may drop.
ServiceOutcome check_service(const service::ServiceResult& res,
                             const std::vector<std::int64_t>& arrivals, bool nominal,
                             std::vector<std::string>& bad) {
  ServiceOutcome out;
  out.makespan = res.makespan;
  std::uint64_t h = 1469598103934665603ull;
  for (const service::Submission& s : res.submissions) {
    h = digest(s.image, h);
    out.composite_s.push_back(s.composite_time);
    out.yaw_deg.push_back(s.yaw_deg);
    if (s.degraded) bad.push_back("a fault-free submission degraded");
  }
  for (const service::Delivery& d : res.deliveries) {
    out.latencies_ms.push_back(d.latency() * 1e3);
    h = (h ^ static_cast<std::uint64_t>(d.latency() * 1e12)) * 1099511628211ull;
  }
  out.digest = h;
  if (dropped_spans(res.stats) > 0) bad.push_back("trace ring overflowed");
  if (res.stats.sessions.size() != arrivals.size()) bad.push_back("session count differs");
  for (const comm::SessionStats& s : res.stats.sessions) {
    const e2e::SessionCount c{s.arrivals, s.delivered, s.shed, s.rejected, s.expired};
    out.sessions.push_back(c);
    out.dropped += c.dropped();
    if (!c.conserved())
      bad.push_back("session " + std::to_string(s.session) +
                    ": arrived != delivered + shed + rejected + expired");
    if (static_cast<std::size_t>(s.session) < arrivals.size() &&
        s.arrivals != arrivals[static_cast<std::size_t>(s.session)])
      bad.push_back("session " + std::to_string(s.session) + " saw a different trace");
    if (s.degraded != 0) bad.push_back("a delivery was degraded");
  }
  if (nominal && out.dropped > 0)
    bad.push_back("the nominal rate dropped requests: it must stay below shedding");
  return out;
}

/// Compositing envelope of each submission: from its ranks' first span
/// to their last, on the wall clock.
std::vector<e2e::Interval> submission_envelopes(const comm::RunStats& st) {
  std::map<int, e2e::Interval> env;
  for (const comm::RankStats& r : st.ranks)
    for (const obs::Span& s : r.spans) {
      if (s.wall_end_ns <= 0) continue;
      auto [it, fresh] = env.try_emplace(s.frame, e2e::Interval{s.wall_begin_ns, s.wall_end_ns});
      if (!fresh) {
        it->second.begin = std::min(it->second.begin, s.wall_begin_ns);
        it->second.end = std::max(it->second.end, s.wall_end_ns);
      }
    }
  std::vector<e2e::Interval> out;
  for (const auto& [frame, iv] : env) out.push_back(iv);
  return out;
}

int run_service_workload(const Options& o) {
  print_conditions(o, kServiceRanks);
  Report r;
  std::vector<BenchSpan> spans;

  std::vector<service::ServiceConfig> cfgs;
  std::vector<std::vector<std::int64_t>> arrivals;
  std::vector<double> scene_ms;
  const auto [setup_s, setup_reps] = median_setup_s([&] {
    const auto t0 = Clock::now();
    const harness::Scene scene = harness::make_scene("engine", 64, 256);
    scene_ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    cfgs.clear();
    arrivals.clear();
    for (int t = 0; t < kTraces; ++t) {
      cfgs.push_back(service_config(kNominalRate, trace_seed(o.seed, t)));
      arrivals.push_back(arrivals_per_session(cfgs.back()));
    }
  });

  std::vector<std::optional<ServiceOutcome>> first(kTraces);
  std::vector<bool> counted(kTraces, false);
  std::vector<double> check_ms, comp_ms;
  SelfTimes self;
  Counters counters;
  ServiceLayers layers;
  comm::RunStats last_traced;
  const int min_ops = o.trace ? 2 * kTraces : kTraces;
  PeakRss rss;
  const auto ops = timed_loop(o, min_ops, [&](int index, bool traced) {
    const int t = index % kTraces;
    cfgs[static_cast<std::size_t>(t)].comp.record_spans = traced;
    if (!traced) rss.begin();
    const std::int64_t b = now_ns();
    service::ServiceResult res = service::run_service(cfgs[static_cast<std::size_t>(t)]);
    const std::int64_t e = now_ns();
    if (!traced) rss.end();

    const std::int64_t c0 = now_ns();
    std::vector<std::string> bad;
    ServiceOutcome out = check_service(res, arrivals[static_cast<std::size_t>(t)], true, bad);
    auto& ref = first[static_cast<std::size_t>(t)];
    if (ref && (ref->digest != out.digest || ref->makespan != out.makespan))
      bad.push_back("replaying a trace changed its images or timeline");
    check_ms.push_back(ns_to_ms(now_ns() - c0));
    r.op_checked(bad);
    if (!ref) {
      if (t == 0)
        for (const service::Submission& s : res.submissions) out.images.push_back(s.image);
      ref = std::move(out);
    }

    if (traced) {
      spans.push_back({"service", b, e, index});
      const std::vector<e2e::Interval> env = submission_envelopes(res.stats);
      comp_ms.push_back(ns_to_ms(e2e::covered({b, e}, env)));
      self.add({{{{b, e}}, -1}, {env, 0}, {codec_intervals(res.stats), 1}},
               {kService, kCompositing, kCompress});
      if (!counted[static_cast<std::size_t>(t)]) {
        counted[static_cast<std::size_t>(t)] = true;
        counters.add(res.stats);
        for (const service::Submission& s : res.submissions) {
          layers.queue_wait_vs += s.timing.queue_wait();
          layers.render_vs += s.render_time;
          layers.composite_vs += s.composite_time;
          layers.riders += s.riders;
        }
        layers.submissions += static_cast<double>(res.submissions.size());
        for (const comm::SessionStats& s : res.stats.sessions) {
          layers.shed += static_cast<double>(s.shed);
          layers.rejected += static_cast<double>(s.rejected);
          layers.expired += static_cast<double>(s.expired);
          layers.delivered += static_cast<double>(s.delivered);
          layers.queue_peak = std::max(layers.queue_peak, static_cast<double>(s.queue_peak));
        }
      }
      last_traced = std::move(res.stats);
    }
    return ns_to_ms(e - b);
  });

  // Latency at the nominal rate, pooled over the first run of every
  // trace; a dropped request counts as +infinity.
  std::vector<double> lat;
  std::vector<e2e::SessionCount> sessions;
  std::int64_t dropped = 0;
  std::vector<double> composite_s;
  for (const auto& f : first) {
    lat.insert(lat.end(), f->latencies_ms.begin(), f->latencies_ms.end());
    composite_s.insert(composite_s.end(), f->composite_s.begin(), f->composite_s.end());
    sessions.insert(sessions.end(), f->sessions.begin(), f->sessions.end());
    dropped += f->dropped;
  }
  const e2e::Ratio failed = e2e::service_failed(sessions);

  // Offered-rate ladder (untraced runs only: sustained_rps is an
  // end-to-end metric).
  double sustained = 0.0;
  if (!o.trace) {
    std::vector<e2e::LadderPoint> ladder;
    std::cout << "ladder (per-session rate, p90 over " << kLadderTraces << " traces of "
              << kSessions << " x " << kLadderRequestsPerSession << " requests, limit "
              << kLatencyLimitMs << " ms):\n";
    for (const double rate : kLadder) {
      std::vector<double> l;
      std::int64_t drops = 0;
      for (int t = 0; t < kLadderTraces; ++t) {
        const service::ServiceConfig sc =
            service_config(rate, trace_seed(o.seed, t), kLadderRequestsPerSession);
        std::vector<std::string> bad;
        const ServiceOutcome out =
            check_service(service::run_service(sc), arrivals_per_session(sc), false, bad);
        r.op_checked(bad);
        l.insert(l.end(), out.latencies_ms.begin(), out.latencies_ms.end());
        drops += out.dropped;
      }
      const double p90 = e2e::latency_percentile(l, drops, 90.0);
      ladder.push_back({rate, p90, drops});
      std::cout << "  " << rate << " req/s/session: p90 " << p90 << " ms, dropped " << drops
                << "\n";
    }
    sustained = e2e::sustained_rate(ladder, kLatencyLimitMs) * kSessions;
  }

  const double p50 = e2e::latency_percentile(lat, dropped, 50.0);
  const double p90 = e2e::latency_percentile(lat, dropped, 90.0);
  const std::string base = std::to_string(lat.size() + static_cast<std::size_t>(dropped)) +
                           " requests over " + std::to_string(kTraces) + " traces";
  r.e2e("setup_s", "s", setup_s,
        "median of " + std::to_string(setup_reps) +
            ": scene build (run_service rebuilds it per submission) + trace generation");
  report_wall(r, ops);
  r.e2e("virtual_ms", "ms_virtual", mean(composite_s) * 1e3,
        "mean composition makespan per submission, " + std::to_string(composite_s.size()) +
            " submissions over " + std::to_string(kTraces) + " traces");
  r.e2e("peak_rss_mb", "MB", rss.median_mb(), rss.note());
  r.e2e("latency_ms.p50", "ms_virtual", p50, "arrival to delivery, " + base);
  r.e2e("latency_ms.p90", "ms_virtual", p90, "arrival to delivery, " + base);
  r.e2e("sustained_rps", "1/s_virtual", sustained,
        o.trace ? "ladder runs only untraced" : "total offered rate, all sessions");

  r.layer("scene.wall_ms", "ms", median(scene_ms), "median of set-up builds");
  // The render stage runs inside run_service, where no wall span covers
  // it: replay trace 0's renders from outside, and check each delivered
  // image against the sequential reference of the replayed partials.
  double render_ms = 0.0, nonblank = 0.0;
  int max_err = 0;
  const ServiceOutcome& trace0 = *first[0];
  const service::ServiceConfig& sc = cfgs[0];
  std::vector<std::string> bad;
  for (std::size_t i = 0; i < trace0.images.size(); ++i) {
    frames::ViewSpec view;
    view.dataset = sc.dataset;
    view.volume_n = sc.volume_n;
    view.image_size = sc.image_size;
    view.yaw_deg = trace0.yaw_deg[i];
    view.pitch_deg = sc.traffic.pitch_deg;
    int axis = 0;
    const auto t0 = Clock::now();
    const harness::RenderedScene rs = frames::render_view(view, sc.ranks, axis);
    render_ms += std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    nonblank += nonblank_ratio(rs.partials) / static_cast<double>(trace0.images.size());
    max_err = std::max(max_err, img::max_channel_diff(trace0.images[i],
                                                      img::composite_reference(rs.partials)));
  }
  if (max_err > reference_tolerance(kServiceRanks))
    bad.push_back("a delivered image differs from the sequential reference by " +
                  std::to_string(max_err));
  r.op_checked(bad);
  r.layer("render.wall_ms", "ms", render_ms, "trace 0's submissions re-rendered outside the op");
  r.layer("render.nonblank_ratio", "ratio", nonblank, "non-blank px / partial px, trace 0");
  r.layer("compositing.wall_ms", "ms", mean(comp_ms),
          "wall covered by submissions' rank spans, mean per traced op");
  r.layer("check.wall_ms", "ms", median(check_ms), "median per op");
  counters.report(r, kTraces);
  layers.report(r, kTraces);
  report_self_times(r, self);
  r.layer("max_px_err", "level", max_err,
          "trace 0's deliveries vs composite_reference of re-rendered partials; tolerance " +
              std::to_string(reference_tolerance(kServiceRanks)));
  r.layer("failed_ratio", "ratio", failed.value(),
          "dropped / arrived, base: " + std::to_string(failed.base) + " requests");
  write_trace(o.trace_out, spans, o.trace ? &last_traced : nullptr);
  return finish(o, r);
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::cerr << "rtc_e2ebench: refusing to report from an unoptimised build\n";
  return 3;
#endif
  const Options o = parse_options(argc, argv);
  try {
    if (o.workload == "frame_p32_raw") return run_frame_or_composite(o, true);
    if (o.workload == "composite_p64_trle") return run_frame_or_composite(o, false);
    if (o.workload == "service_p8") return run_service_workload(o);
  } catch (const std::exception& ex) {
    std::cerr << "rtc_e2ebench: " << ex.what() << "\n";
    return 1;
  }
  usage("unknown workload " + o.workload);
}

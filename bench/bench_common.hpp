// Shared setup for the figure/table reproduction benches.
//
// Every bench accepts:  [--dataset engine|brain|head] [--ranks P]
//                       [--volume N] [--image S] [--paper-net]
//                       [--topology flat|sp2|paper|fat-tree|dragonfly|cloud]
//                       [--group-size G] [--simd auto|scalar|avx2]
// plus observability outputs (see docs/observability.md):
//                       [--json golden.json]      virtual-time numbers,
//                         17 significant digits — the CI golden gate
//                         bit-compares this file (check_bench_golden.sh)
//                       [--trace-out trace.json]  Perfetto span trace
//                       [--metrics-out m.txt]     per-step metrics table
// Defaults reproduce the paper's operating point: 32 processors,
// 512x512 gray images, SP2-calibrated network constants.
#pragma once

#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rtc/comm/network_model.hpp"
#include "rtc/common/flags.hpp"
#include "rtc/simd/dispatch.hpp"
#include "rtc/harness/experiment.hpp"
#include "rtc/harness/metrics.hpp"
#include "rtc/harness/scene.hpp"
#include "rtc/harness/table.hpp"
#include "rtc/harness/trace.hpp"

namespace rtc::bench {

struct BenchOptions {
  std::string dataset = "engine";
  int ranks = 32;
  int volume_n = 96;
  int image_size = 512;
  comm::NetworkModel net = comm::sp2_hps_model();
  bool paper_net = false;
  std::string topology;  ///< preset name when --topology was given
  int group_size = 0;       ///< "hier" ranks per group (0 = ceil(sqrt P))
  std::string json_out;     ///< golden virtual-time JSON (--json)
  std::string trace_out;    ///< Perfetto span trace (--trace-out)
  std::string metrics_out;  ///< per-step metrics table (--metrics-out)
};

/// `defaults` lets a bench pin its own operating point (e.g. the frame
/// pipeline's P=16 golden) while keeping every flag overridable.
inline BenchOptions parse_options(int argc, char** argv,
                                  BenchOptions defaults = BenchOptions{}) {
  BenchOptions o = std::move(defaults);
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << a << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    // Strict whole-string parse: "--ranks 12x" or "--ranks abc" is a
    // usage error naming the flag, not an unhandled std::stoi throw.
    auto next_int = [&]() -> int {
      const std::string v = next();
      const auto parsed = flags::parse_int(v);
      if (!parsed || *parsed < INT_MIN || *parsed > INT_MAX) {
        std::cerr << "bad value for " << a << ": '" << v
                  << "' (expected an integer)\n";
        std::exit(2);
      }
      return static_cast<int>(*parsed);
    };
    if (a == "--dataset") {
      o.dataset = next();
    } else if (a == "--ranks") {
      o.ranks = next_int();
    } else if (a == "--volume") {
      o.volume_n = next_int();
    } else if (a == "--image") {
      o.image_size = next_int();
    } else if (a == "--topology") {
      o.topology = next();
      if (!comm::topology_preset(o.topology.c_str(), &o.net)) {
        std::cerr << "unknown --topology: " << o.topology
                  << " (expected flat, sp2, paper, fat-tree, dragonfly "
                     "or cloud)\n";
        std::exit(2);
      }
    } else if (a == "--group-size") {
      o.group_size = next_int();
    } else if (a == "--simd") {
      // Dispatch level for the wall-clock pixel kernels. Virtual-time
      // results are identical at every level (the golden gate pins
      // that); this knob only moves wall-clock numbers.
      const std::string v = next();
      if (!simd::request_level(v)) {
        std::cerr << "unknown --simd: " << v
                  << " (expected auto, scalar or avx2)\n";
        std::exit(2);
      }
    } else if (a == "--paper-net") {
      o.net = comm::paper_example_model();
      o.paper_net = true;
    } else if (a == "--json") {
      o.json_out = next();
    } else if (a == "--trace-out") {
      o.trace_out = next();
    } else if (a == "--metrics-out") {
      o.metrics_out = next();
    } else {
      std::cerr << "unknown option " << a << "\n";
      std::exit(2);
    }
  }
  return o;
}

/// Renders the per-rank partial images once (slab partition along the
/// principal view axis, as rank order = depth order requires).
inline std::vector<img::Image> bench_partials(const BenchOptions& o) {
  const harness::Scene scene =
      harness::make_scene(o.dataset, o.volume_n, o.image_size);
  return harness::render_partials(scene, o.ranks,
                                  harness::PartitionKind::kSlab1D);
}

inline double run_time(const BenchOptions& o, const std::string& method,
                       int blocks, const std::string& codec,
                       const std::vector<img::Image>& partials) {
  harness::CompositionConfig cfg;
  cfg.method = method;
  cfg.initial_blocks = blocks;
  cfg.codec = codec;
  cfg.net = o.net;
  cfg.group_size = o.group_size;
  cfg.gather = false;
  return harness::run_composition(cfg, partials).time;
}

/// Writes virtual-time numbers as a stable-format JSON object for the
/// CI golden gate: fixed key order, 17 significant digits (enough to
/// round-trip any double), one key per line. Virtual times depend only
/// on the message DAG, so two runs of the same build — or of any
/// correct build — produce byte-identical files; the gate can cmp(1)
/// them instead of parsing.
inline void write_golden_json(
    const std::string& path, const std::string& bench,
    const BenchOptions& o,
    const std::vector<std::pair<std::string, double>>& values) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\n  \"bench\": \"" << bench << "\",\n  \"dataset\": \""
     << o.dataset << "\",\n  \"ranks\": " << o.ranks
     << ",\n  \"image\": " << o.image_size << ",\n  \"volume\": "
     << o.volume_n << ",\n  \"values\": {";
  for (std::size_t i = 0; i < values.size(); ++i) {
    os << (i ? "," : "") << "\n    \"" << values[i].first
       << "\": " << values[i].second;
  }
  os << "\n  }\n}\n";
  std::ofstream out(path);
  out << os.str();
  if (!out.good()) {
    std::cerr << "cannot write " << path << "\n";
    std::exit(1);
  }
  std::cout << "wrote " << path << "\n";
}

/// Shared --trace-out/--metrics-out handling: rerun one traced
/// configuration and export its spans. The traced run's virtual times
/// are identical to the untraced measurements above it.
inline void write_observability(const BenchOptions& o,
                                const harness::CompositionConfig& cfg,
                                const std::vector<img::Image>& partials) {
  if (o.trace_out.empty() && o.metrics_out.empty()) return;
  harness::CompositionConfig traced = cfg;
  traced.record_spans = true;
  const harness::CompositionRun run =
      harness::run_composition(traced, partials);
  if (!o.trace_out.empty()) {
    harness::write_perfetto_trace(run.stats, o.trace_out);
    std::cout << "wrote " << o.trace_out << "\n";
  }
  if (!o.metrics_out.empty()) {
    harness::write_metrics_file(run.stats, o.metrics_out);
    std::cout << "wrote " << o.metrics_out << "\n";
  }
}

inline void print_header(const std::string& what, const BenchOptions& o) {
  std::cout << "== " << what << " ==\n"
            << "dataset=" << o.dataset << " P=" << o.ranks
            << " image=" << o.image_size << "x" << o.image_size
            << " volume=" << o.volume_n << "^3"
            << " net="
            << (!o.topology.empty()
                    ? o.topology
                    : (o.paper_net ? "paper-example" : "sp2-hps"))
            << " (Ts=" << o.net.ts << " Tp=" << o.net.tp_byte
            << " To=" << o.net.to_pixel << ")\n\n";
}

}  // namespace rtc::bench

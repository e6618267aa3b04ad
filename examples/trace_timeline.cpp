// Exports a trace-event (chrome://tracing / Perfetto) timeline of one
// composition run: per-rank tracks of obs spans — send startups,
// receive waits, blends and codec stages — with step markers. Handy for
// *seeing* why rotate-tiling beats binary-swap — the receive-wait gaps
// shrink as blocks pipeline.
//
//   ./trace_timeline [method] [ranks] [blocks] [out.json]
#include <iostream>
#include <string>

#include "example_args.hpp"
#include "rtc/harness/experiment.hpp"
#include "rtc/harness/scene.hpp"
#include "rtc/harness/table.hpp"
#include "rtc/harness/trace.hpp"

int main(int argc, char** argv) {
  using namespace rtc;
  const std::string method = argc > 1 ? argv[1] : "rt_2n";
  const int ranks = examples::arg_int(argc, argv, 2, "ranks", 8);
  const int blocks = examples::arg_int(argc, argv, 3, "blocks", 4);
  const std::string out = argc > 4 ? argv[4] : "timeline.json";

  const harness::Scene scene = harness::make_scene("engine", 64, 256);
  const auto partials = harness::render_partials(
      scene, ranks, harness::PartitionKind::kSlab1D);

  harness::CompositionConfig cfg;
  cfg.method = method;
  cfg.initial_blocks = blocks;
  cfg.record_spans = true;
  const harness::CompositionRun run =
      harness::run_composition(cfg, partials);
  harness::write_perfetto_trace(run.stats, out);

  // Per-rank time budget: where does the virtual time go?
  harness::Table t({"rank", "send [s]", "recv-wait [s]", "over [s]",
                    "final clock [s]"});
  for (std::size_t r = 0; r < run.stats.ranks.size(); ++r) {
    double send = 0, wait = 0, over = 0;
    for (const obs::Span& s : run.stats.ranks[r].spans) {
      switch (s.kind) {
        case obs::SpanKind::kSend:
          send += s.v_duration();
          break;
        case obs::SpanKind::kRecvWait:
          wait += s.v_duration();
          break;
        case obs::SpanKind::kBlend:
          over += s.v_duration();
          break;
        default:
          break;
      }
    }
    t.add_row({std::to_string(r), harness::Table::num(send, 4),
               harness::Table::num(wait, 4), harness::Table::num(over, 4),
               harness::Table::num(run.stats.ranks[r].clock, 4)});
  }
  std::cout << method << " on " << ranks << " ranks, " << blocks
            << " initial blocks — composition " << run.time << " s\n\n";
  t.print(std::cout);
  std::cout << "\nwrote " << out << " (load in chrome://tracing or ui.perfetto.dev)\n";
  return 0;
}

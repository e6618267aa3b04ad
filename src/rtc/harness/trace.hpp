// Trace-event export of a composition run's spans.
//
// Arm span recording (CompositionConfig::record_spans or
// World::set_trace), run, then write the stats here and load the JSON
// in chrome://tracing / ui.perfetto.dev: one track per rank.
#pragma once

#include <string>

#include "rtc/comm/stats.hpp"

namespace rtc::harness {

/// Writes RunStats::spans plus per-rank step marks as trace-event JSON
/// that chrome://tracing and ui.perfetto.dev load directly. Spans carry
/// step attribution, codec byte counts, fault recoveries, and
/// wall-clock durations in args.
void write_perfetto_trace(const comm::RunStats& stats,
                          const std::string& path);

}  // namespace rtc::harness

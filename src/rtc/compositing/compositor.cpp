// Recovery driver shared by every composition method.
//
// kRecompose turns rank death from a permanent hole into a one-pass
// blip: after each composition pass the survivors agree on a new
// membership epoch (comm/membership.hpp) and, if it moved, re-run the
// *same* schedule over the survivor view — P' = |survivors|, virtual
// ranks renumbered by Comm::set_group, depth order preserved because
// members stay in ascending physical order. The pass keeps the blanks
// it already absorbed only as wire history; the recomposition pass
// rebuilds the image from the original partials, so a crash-only plan
// converges to the exact survivors-only image.
#include "rtc/compositing/compositor.hpp"

#include <bit>

#include "rtc/comm/membership.hpp"
#include "rtc/common/check.hpp"
#include "rtc/simd/dispatch.hpp"

namespace rtc::compositing {

std::string any_p_method(const std::string& method, int ranks) {
  const bool pow2 = std::has_single_bit(static_cast<unsigned>(ranks));
  if (method == "bswap" && !pow2) return "bswap_any";
  if (method == "rt_n" && ranks % 2 != 0 && ranks != 1) return "rt";
  return method;
}

img::Image Compositor::run(comm::Comm& comm, const img::Image& partial,
                           const Options& opt) const {
  // Tag the trace with the SIMD dispatch level the pixel kernels run
  // at (aux = SimdLevel). Instant span: never advances the virtual
  // clock, free when tracing is disarmed.
  comm.note_span(obs::SpanKind::kKernelDispatch, /*step=*/-1, /*bytes=*/0,
                 static_cast<std::int64_t>(simd::active_level()));
  if (opt.resilience.on_peer_loss !=
          comm::ResiliencePolicy::PeerLoss::kRecompose ||
      comm.crash_budget() == 0) {
    // Not recomposing (or membership provably cannot change): exactly
    // one pass, zero extra traffic — bit-identical to the pre-driver
    // behavior.
    return run_core(comm, partial, opt);
  }

  RTC_CHECK_MSG(comm.group() == nullptr,
                "recovery driver cannot nest inside a group view");
  const int world_n = comm.size();
  comm::MembershipView view = comm::MembershipView::full(world_n);
  for (int pass = 0;; ++pass) {
    // Each recomposition removes at least one member, so the crash
    // budget bounds the loop.
    RTC_CHECK(pass <= comm.crash_budget());
    const bool grouped = view.size() < world_n;
    if (grouped) comm.set_group(&view);
    img::Image img = run_core(comm, partial, opt);
    if (grouped) comm.set_group(nullptr);
    // Detect quiet deaths first (a crashed rank nobody received from
    // leaves no trace in the pass traffic), then drain the failure
    // detector to a fixpoint: evidence observed *during* a flood seeds
    // the next call, so keep calling until the membership stops
    // moving. Every survivor runs the same number of calls (each
    // call's outcome is identical at all survivors).
    comm::probe_liveness(comm, view);
    bool changed = false;
    while (comm::advance_epoch(comm, view)) changed = true;
    if (!changed) return img;
    comm.note_recompose(view.epoch);
    comm.note_span(obs::SpanKind::kRecompose,
                   static_cast<int>(view.epoch), 0, view.size());
  }
}

}  // namespace rtc::compositing

#include "rtc/core/rt_compositor.hpp"

#include <algorithm>
#include <map>

#include "rtc/common/check.hpp"
#include "rtc/common/wire.hpp"
#include "rtc/compositing/wire.hpp"
#include "rtc/frames/coherence.hpp"
#include "rtc/image/ops.hpp"
#include "rtc/image/tiling.hpp"

namespace rtc::core {

std::string RtCompositor::name() const {
  switch (variant_) {
    case RtVariant::kNrt:
      return "rt_n";
    case RtVariant::kTwoNrt:
      return "rt_2n";
    case RtVariant::kGeneralized:
      return "rt";
  }
  return "rt";
}

img::Image RtCompositor::run_core(comm::Comm& comm, const img::Image& partial,
                             const compositing::Options& opt) const {
  const int p = comm.size();
  const int r = comm.rank();
  RtVariant variant = variant_;
  if (comm.group() != nullptr &&
      compositing::any_p_method(name(), p) == "rt") {
    // Recomposition over survivors: an odd survivor count breaks the
    // N_RT even-P applicability rule, so run the generalized schedule
    // (same family, any P). Direct (ungrouped) use keeps the strict
    // check, as binary_swap does.
    variant = RtVariant::kGeneralized;
  }
  const RtSchedule sched =
      build_rt_schedule(p, opt.initial_blocks, variant);
  const img::Tiling tiling(partial.pixel_count(), opt.initial_blocks);

  img::Image buf = partial;
  frames::RankCoherence* cache =
      opt.coherence != nullptr ? &opt.coherence->rank(r) : nullptr;
  const bool coherent = opt.coherence != nullptr;
  std::vector<img::GrayA8> scratch;  // decode_blend fallback, reused

  for (std::size_t s = 0; s < sched.steps.size(); ++s) {
    const RtStep& step = sched.steps[s];
    const int tag = static_cast<int>(s) + 1;

    // Issue every send first so transmissions pipeline behind the
    // receive/composite loop (the "tiling" payoff). With
    // aggregate_messages, blocks bound for the same receiver ride in
    // one message — the batching visible in the paper's Figure 1,
    // where P1 ships blocks 0 and 3 to P0 as a single send. Both sides
    // walk the schedule in the same order, so grouping is implicit.
    if (opt.aggregate_messages) {
      std::map<int, std::vector<const Merge*>> outgoing;  // by receiver
      std::map<int, std::vector<const Merge*>> incoming_by_sender;
      for (const Merge& m : step.merges) {
        if (m.sender == r) outgoing[m.receiver].push_back(&m);
        if (m.receiver == r) incoming_by_sender[m.sender].push_back(&m);
      }
      for (const auto& [receiver, merges] : outgoing) {
        std::vector<std::byte> payload = comm.pool().acquire();
        for (const Merge* m : merges) {
          const img::PixelSpan span = tiling.block(step.depth, m->block);
          const compress::BlockGeometry geom{partial.width(), span.begin};
          compositing::append_block(comm, tag, payload, buf.view(span),
                                    geom, opt.codec, cache, receiver);
        }
        comm.send(receiver, tag, std::move(payload));
      }
      const bool blank_on_loss = opt.resilience.degrade_on_loss();
      for (const auto& [sender, merges] : incoming_by_sender) {
        std::vector<std::byte> payload;
        if (blank_on_loss) {
          std::optional<std::vector<std::byte>> got =
              comm.try_recv(sender, tag);
          if (!got) {
            // The whole aggregated message is gone: every block it
            // carried degrades to blank (identity — no blend, no To).
            for (const Merge* m : merges) {
              const img::PixelSpan span =
                  tiling.block(step.depth, m->block);
              comm.note_loss(m->block, span.size());
            }
            continue;
          }
          payload = std::move(*got);
        } else {
          payload = comm.recv(sender, tag);
        }
        if (comm.last_recv_stale()) {
          // The whole aggregated message was substituted from last
          // frame: every block it carries is one frame old.
          for (const Merge* m : merges) {
            const img::PixelSpan span = tiling.block(step.depth, m->block);
            comm.note_stale(m->block, span.size());
          }
        }
        std::span<const std::byte> rest(payload);
        std::size_t done = 0;
        try {
          for (const Merge* m : merges) {
            const img::PixelSpan span = tiling.block(step.depth, m->block);
            const compress::BlockGeometry geom{partial.width(),
                                               span.begin};
            compositing::take_block_blend(comm, tag, rest, buf.view(span),
                                          geom, opt.codec, opt.blend,
                                          m->sender_front, scratch,
                                          coherent,
                                          opt.approx_saturation);
            ++done;
          }
          wire::require(rest.empty(), wire::DecodeError::Kind::kTrailing,
                        "trailing bytes in aggregated message");
        } catch (const wire::DecodeError&) {
          if (!blank_on_loss) throw;
          // Malformed aggregate: blocks not yet consumed degrade to
          // losses, same as if the message never arrived.
          for (std::size_t i = done; i < merges.size(); ++i) {
            const img::PixelSpan span =
                tiling.block(step.depth, merges[i]->block);
            comm.note_loss(merges[i]->block, span.size());
          }
        }
        comm.pool().release(std::move(payload));
      }
      comm.mark(tag);
      continue;
    }

    // Per-merge messages (the paper's per-message cost accounting).
    for (const Merge& m : step.merges) {
      if (m.sender != r) continue;
      const img::PixelSpan span = tiling.block(step.depth, m.block);
      const compress::BlockGeometry geom{partial.width(), span.begin};
      compositing::send_block(comm, m.receiver, tag, buf.view(span), geom,
                              opt.codec, cache);
    }
    for (const Merge& m : step.merges) {
      if (m.receiver != r) continue;
      const img::PixelSpan span = tiling.block(step.depth, m.block);
      const compress::BlockGeometry geom{partial.width(), span.begin};
      compositing::recv_block_blend(comm, m.sender, tag, buf.view(span),
                                    geom, opt.codec, opt.blend,
                                    m.sender_front, opt.resilience,
                                    m.block, scratch, coherent,
                                    opt.approx_saturation);
    }
    comm.mark(tag);
  }

  if (!opt.gather) return img::Image{};
  const std::vector<std::pair<int, std::int64_t>> owned =
      sched.owned_blocks(r);
  return compositing::gather_fragments(comm, buf, tiling, owned, opt.root,
                                       partial.width(), partial.height(),
                                       opt.sink, opt.frame_id);
}

std::unique_ptr<compositing::Compositor> make_rt_compositor(
    RtVariant variant) {
  return std::make_unique<RtCompositor>(variant);
}

}  // namespace rtc::core

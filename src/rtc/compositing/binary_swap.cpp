// Binary-swap composition (Ma, Painter, Hansen, Krogh [16, 17]).
//
// log2(P) steps; at step k each rank pairs with the rank differing in
// bit k-1, keeps one half of its live block and swaps the other half.
// Pairing low bit first keeps every merge *depth-adjacent*: after step
// k a rank's block covers the contiguous rank interval that matches its
// high bits, so the non-commutative "over" is applied in correct
// front-to-back order throughout. "bswap" requires P to be a power of
// two — the restriction the RT method removes.
//
// "bswap_any" lifts it with a fold phase, as practitioners do: with
// m = 2^floor(log2 P), the first 2*(P-m) ranks pre-merge in adjacent
// pairs (an extra full-image exchange-free step), producing m
// contiguous-coverage units that then run standard binary-swap; the
// fold's passive partners go idle. Costs one extra step of A-sized
// traffic for the folded ranks — the inefficiency RT avoids, shown in
// bench_scaling/bench_ablation at odd P. At a power-of-two P the fold
// is empty and both names run the same exchanges, so "bswap" is this
// one schedule plus its power-of-two check.
#include <bit>

#include "rtc/common/check.hpp"
#include "rtc/compositing/builtin.hpp"
#include "rtc/compositing/compositor.hpp"
#include "rtc/compositing/wire.hpp"
#include "rtc/frames/coherence.hpp"
#include "rtc/image/ops.hpp"
#include "rtc/image/tiling.hpp"

namespace rtc::compositing {

namespace {

class BinarySwap final : public Compositor {
 public:
  explicit BinarySwap(bool any_p) : any_p_(any_p) {}

  [[nodiscard]] std::string name() const override {
    return any_p_ ? "bswap_any" : "bswap";
  }

  [[nodiscard]] img::Image run_core(comm::Comm& comm, const img::Image& partial,
                               const Options& opt) const override {
    const int p = comm.size();
    const int r = comm.rank();
    // Recomposition over survivors (a group view) rarely leaves a
    // power of two, so there the fold runs; direct use of "bswap"
    // keeps the strict check.
    RTC_CHECK_MSG(
        comm.group() != nullptr || any_p_method(name(), p) == name(),
        "binary-swap needs a power-of-two processor count");
    const int m = p <= 1 ? 1 : (1 << (std::bit_width(
                                          static_cast<unsigned>(p)) -
                                      1));
    const int folded = p - m;  // ranks that merge away in the fold

    // Fold: the first 2*folded ranks pair up (2i, 2i+1); the odd one
    // sends its whole partial to the even one, which pre-composites.
    // Units afterwards: unit u < folded is rank 2u covering
    // {2u, 2u+1}; unit u >= folded is rank u + folded covering itself.
    img::Image buf = partial;
    const img::PixelSpan whole{0, partial.pixel_count()};
    const compress::BlockGeometry geom{partial.width(), 0};
    bool active = true;
    int unit = r;
    frames::RankCoherence* cache =
        opt.coherence != nullptr ? &opt.coherence->rank(r) : nullptr;
    const bool coherent = opt.coherence != nullptr;
    std::vector<img::GrayA8> scratch;  // decode_blend fallback, reused
    if (r < 2 * folded) {
      if (r % 2 == 1) {
        send_block(comm, r - 1, /*tag=*/0, partial.view(whole), geom,
                   opt.codec, cache);
        active = false;
      } else {
        recv_block_blend(comm, r + 1, /*tag=*/0, buf.pixels(), geom,
                         opt.codec, opt.blend, /*src_front=*/false,
                         opt.resilience, /*block_id=*/r + 1, scratch,
                         coherent, opt.approx_saturation);
        unit = r / 2;
      }
    } else {
      unit = r - folded;
    }

    // Standard binary-swap among the m unit owners (low bit first so
    // merges stay depth-adjacent). Unit u's owner rank:
    auto owner_of = [&](int u) {
      return u < folded ? 2 * u : u + folded;
    };

    const img::Tiling tiling(partial.pixel_count(), 1);
    const int steps =
        m <= 1 ? 0 : std::countr_zero(static_cast<unsigned>(m));
    std::int64_t index = 0;  // live block is (depth=k, index) after step k
    if (active) {
      for (int k = 1; k <= steps; ++k) {
        const int bit = (unit >> (k - 1)) & 1;
        const int partner_unit = unit ^ (1 << (k - 1));
        const int partner = owner_of(partner_unit);
        const std::int64_t keep = index * 2 + bit;
        const std::int64_t give = index * 2 + (1 - bit);
        const img::PixelSpan keep_span = tiling.block(k, keep);
        const img::PixelSpan give_span = tiling.block(k, give);
        // Sends are buffered/non-blocking, so both partners send first
        // and the exchange's two directions overlap on the full-duplex
        // links — one step costs Ts + size*Tp, as Table 1 charges it.
        const compress::BlockGeometry gg{partial.width(), give_span.begin};
        const compress::BlockGeometry kg{partial.width(), keep_span.begin};
        send_block(comm, partner, k, buf.view(give_span), gg, opt.codec,
                   cache);
        // Partner covers the adjacent unit interval; in front iff
        // smaller. The fused receive composites decoded runs straight
        // into the kept half — no intermediate image; a lost partner
        // contribution is skipped (blank is the identity).
        recv_block_blend(comm, partner, k, buf.view(keep_span), kg,
                         opt.codec, opt.blend,
                         /*src_front=*/partner_unit < unit,
                         opt.resilience, keep, scratch, coherent,
                         opt.approx_saturation);
        comm.mark(k);
        index = keep;
      }
    }

    if (!opt.gather) return img::Image{};
    std::vector<std::pair<int, std::int64_t>> owned;
    if (active) owned.emplace_back(steps, index);
    return gather_fragments(comm, buf, tiling, owned, opt.root,
                            partial.width(), partial.height(), opt.sink,
                            opt.frame_id);
  }

 private:
  bool any_p_;
};

}  // namespace

std::unique_ptr<Compositor> make_binary_swap() {
  return std::make_unique<BinarySwap>(/*any_p=*/false);
}

std::unique_ptr<Compositor> make_binary_swap_any() {
  return std::make_unique<BinarySwap>(/*any_p=*/true);
}

}  // namespace rtc::compositing

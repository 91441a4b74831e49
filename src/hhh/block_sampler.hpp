// BlockSampler: stage 1 of the lattice update -- the level draws of a block
// of packets, compacted to the survivors -- and SampledUpdate, the record
// that carries one survivor to wherever it is applied.
//
// This is the library's single RHHH draw site. LatticeHhh::update_batch
// draws through it and applies in place; the engine's producers and the
// distributed switch (paper Section 5.2 / Fig. 8) draw at the packet
// source and ship only the survivors, which the measurement side applies
// with LatticeHhh::apply. One seed therefore gives one draw sequence on
// every path.
//
//   kRhhh        r draws per packet, each uniform in [0, V); a draw d < H
//                survives as an update of lattice node d (H/V of packets
//                survive at r = 1; 10-RHHH keeps ~1 in 10).
//   kSampledMst  one draw per packet; a survivor updates every node.
//   kMst         no draws; every packet updates every node.
//
// Draws are consumed in packet order (r per packet), so the generator
// state after a block equals that of n per-packet draws.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/key128.hpp"
#include "util/random.hpp"

namespace rhhh {

enum class LatticeMode : std::uint8_t { kRhhh, kMst, kSampledMst };

[[nodiscard]] constexpr std::string_view to_string(LatticeMode m) noexcept {
  switch (m) {
    case LatticeMode::kRhhh: return "RHHH";
    case LatticeMode::kMst: return "MST";
    case LatticeMode::kSampledMst: return "Sampled-MST";
  }
  return "?";
}

/// One sampled update in transport: apply `key` at lattice node `node`, or
/// at every node the applier covers when node == BlockSampler::kAllNodes.
/// `packets` is the stream length the record accounts for (the packet it
/// came from plus the sampled-out packets before it); LatticeHhh::apply
/// ignores it and the transport folds it into N. A record with node ==
/// kNoNode carries packets only.
struct SampledUpdate {
  Key128 key;
  std::uint32_t node;
  std::uint32_t packets;
};

class BlockSampler {
 public:
  /// Node value of a survivor that updates every lattice node (MST and
  /// Sampled-MST). Never a real node: LatticeHhh requires H < 2^16.
  static constexpr std::uint32_t kAllNodes = 0xffff;
  /// Node value of a SampledUpdate that updates nothing.
  static constexpr std::uint32_t kNoNode = 0xffffffffu;

  /// `V` is the resolved performance parameter (V >= H), `r` the draws per
  /// packet (RHHH only). The seed drives the draw stream.
  BlockSampler(LatticeMode mode, std::uint32_t V, std::uint32_t H, std::uint32_t r,
               std::uint64_t seed) noexcept
      : mode_(mode), V_(V), H_(H), r_(r), rng_(seed) {}

  /// Draws for packets [0, n) of a block and returns the survivor count m:
  /// picks()[0, m) hold the survivors in packet order, each packing the
  /// packet index and the node (see packet_of / node_of). The loop is
  /// branchless: a draw is a Lemire reduction, a blind store and a flag
  /// add, so the random survivor pattern costs no mispredicts and the
  /// serial generator chain is the only latency bound.
  std::size_t draw(std::size_t n) {
    std::size_t m = 0;
    const std::uint64_t v = V_;
    switch (mode_) {
      case LatticeMode::kRhhh: {
        picks_.resize(n * r_);
        std::uint64_t* pk = picks_.data();
        // Dead entries (d >= H) are overwritten by the next iteration; only
        // pk[0, m) is read, and those all carry d < H.
        if (r_ == 1) {
          for (std::size_t i = 0; i < n; ++i) {
            const auto d = static_cast<std::uint32_t>(((rng_() >> 32) * v) >> 32);
            pk[m] = (static_cast<std::uint64_t>(i) << 16) | d;
            m += d < H_ ? 1 : 0;
          }
        } else {
          for (std::size_t i = 0; i < n; ++i) {
            for (std::uint32_t j = 0; j < r_; ++j) {
              const auto d = static_cast<std::uint32_t>(((rng_() >> 32) * v) >> 32);
              pk[m] = (static_cast<std::uint64_t>(i) << 16) | d;
              m += d < H_ ? 1 : 0;
            }
          }
        }
        break;
      }
      case LatticeMode::kSampledMst: {
        picks_.resize(n);
        std::uint64_t* pk = picks_.data();
        for (std::size_t i = 0; i < n; ++i) {
          const auto d = static_cast<std::uint32_t>(((rng_() >> 32) * v) >> 32);
          pk[m] = (static_cast<std::uint64_t>(i) << 16) | kAllNodes;
          m += d < H_ ? 1 : 0;
        }
        break;
      }
      case LatticeMode::kMst: {
        picks_.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
          picks_[i] = (static_cast<std::uint64_t>(i) << 16) | kAllNodes;
        }
        m = n;
        break;
      }
    }
    return m;
  }

  /// The survivors of the last draw() (valid until the next call).
  [[nodiscard]] const std::uint64_t* picks() const noexcept { return picks_.data(); }
  [[nodiscard]] static std::size_t packet_of(std::uint64_t pick) noexcept {
    return static_cast<std::size_t>(pick >> 16);
  }
  [[nodiscard]] static std::uint32_t node_of(std::uint64_t pick) noexcept {
    return static_cast<std::uint32_t>(pick & 0xffff);
  }

  /// One draw in [0, V) from the same stream: the per-packet update path.
  std::uint32_t draw_one() noexcept { return rng_.bounded(V_); }

  /// Restart the draw stream from `seed`.
  void reseed(std::uint64_t seed) noexcept { rng_ = Xoroshiro128(seed); }

 private:
  LatticeMode mode_;
  std::uint32_t V_;
  std::uint32_t H_;
  std::uint32_t r_;
  Xoroshiro128 rng_;
  std::vector<std::uint64_t> picks_;
};

}  // namespace rhhh

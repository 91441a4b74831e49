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
//   kRhhh        r trials per packet; a trial survives with probability
//                H/V as an update of a lattice node drawn uniformly from
//                [0, H) (10-RHHH keeps ~1 trial in 10).
//   kSampledMst  one trial per packet; a survivor updates every node.
//   kMst         no draws; every packet updates every node.
//
// Two draw disciplines give that distribution:
//
//   V == H  every trial survives: one draw uniform in [0, H) per trial is
//           its node (the generator stream every pinned golden digest was
//           recorded with).
//   V >  H  geometric skip: the sampler draws the number of sampled-out
//           trials before the next survivor, an exact Geometric(H/V) gap
//           (GapTable below), then -- RHHH only -- the survivor's node
//           uniformly from [0, H). A sampled-out trial costs one decrement
//           and no generator step, so a block of n packets costs
//           O(survivors), about n*r*H/V, instead of n*r draws.
//
// Trials are consumed in packet order (r per packet) and the pending gap
// carries across calls, so draw() over any split of a stream into blocks
// and draw_one() once per trial leave the same survivors and the same
// generator state: the per-packet, batched, engine and switch paths stay
// byte-identical for every V and r.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/key128.hpp"
#include "util/random.hpp"
#include "util/scratch_vector.hpp"

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

/// Inverse CDF of the gap G ~ Geometric(H/V) between surviving trials, in
/// integer arithmetic only (no libm, no 128-bit types), so every platform
/// draws the same gaps from the same seed.
///
/// With q = (V-H)/V, the thresholds are S_0 = 2^64 and
/// S_k = floor(S_{k-1} * (V-H) / V), exact in 64 bits by splitting
/// S = a*V + b. One uniform 64-bit draw u gives G = #{k >= 1 : u < S_k},
/// so P(G >= k) = S_k / 2^64 = q^k up to the 2^-64 grid. The thresholds
/// stop at S_cap, the first below 2^56 (or at kMaxCap for very sparse
/// sampling); a draw u < S_cap means G >= cap, and because the geometric
/// law is memoryless the sampler then adds cap and draws again. guide[b]
/// is G at the largest u whose top byte is b, the start of a short upward
/// search for any u in that byte.
///
/// Tables are immutable and shared per (V, H) for the life of the process
/// (gap_table()), so constructing or copying a sampler never builds one.
struct GapTable {
  static constexpr std::uint32_t kMaxCap = 1024;

  std::uint64_t tail = 0;          ///< S_cap: u < tail means G >= cap
  std::uint32_t cap = 0;           ///< thresholds kept, 1 <= cap <= kMaxCap
  std::array<std::uint16_t, 256> guide{};
  std::vector<std::uint64_t> thr;  ///< thr[k] = S_k for 1 <= k <= cap (thr[0] unused)

  /// Builds the table for survival probability H/V; requires 0 < H < V.
  GapTable(std::uint32_t V, std::uint32_t H);

  /// The table's scalars by value, for hot loops: stores through other
  /// 64-bit pointers (the pick buffer) then cannot force their reloads.
  struct Reader {
    std::uint64_t tail;
    std::uint32_t cap;
    const std::uint16_t* guide;
    const std::uint64_t* thr;

    /// The gap before the next survivor, drawing 64-bit words from `rng`.
    template <class Rng>
    [[nodiscard]] std::uint64_t draw(Rng& rng) const noexcept {
      std::uint64_t skipped = 0;
      for (;;) {
        const std::uint64_t u = rng();
        if (u >= tail) [[likely]] {
          std::uint32_t k = guide[u >> 56];
          while (u < thr[k + 1]) ++k;  // stops by k = cap - 1: u >= thr[cap]
          return skipped + k;
        }
        skipped += cap;  // G >= cap: redraw the remainder (memoryless)
      }
    }
  };
  [[nodiscard]] Reader reader() const noexcept {
    return Reader{tail, cap, guide.data(), thr.data()};
  }
  template <class Rng>
  [[nodiscard]] std::uint64_t draw(Rng& rng) const noexcept {
    return reader().draw(rng);
  }
};

/// The shared table for (V, H), built on first use (thread-safe).
[[nodiscard]] const GapTable& gap_table(std::uint32_t V, std::uint32_t H);

class BlockSampler {
 public:
  /// Node value of a survivor that updates every lattice node (MST and
  /// Sampled-MST). Never a real node: LatticeHhh requires H < 2^16.
  static constexpr std::uint32_t kAllNodes = 0xffff;
  /// Node value of a SampledUpdate that updates nothing.
  static constexpr std::uint32_t kNoNode = 0xffffffffu;

  /// `V` is the resolved performance parameter (V >= H), `r` the trials
  /// per packet (RHHH only). The seed drives the draw stream.
  BlockSampler(LatticeMode mode, std::uint32_t V, std::uint32_t H, std::uint32_t r,
               std::uint64_t seed)
      : mode_(mode),
        V_(V),
        H_(H),
        r_(r),
        rng_(seed),
        gaps_(mode != LatticeMode::kMst && V > H ? &gap_table(V, H) : nullptr) {
    arm();
  }

  /// Draws for packets [0, n) of a block and returns the survivor count m:
  /// picks()[0, m) hold the survivors in packet order, each packing the
  /// packet index and the node (see packet_of / node_of).
  ///
  /// At V == H every trial survives: a Lemire reduction and a store per
  /// trial, so the serial generator chain bounds the loop. At V > H it
  /// walks survivors only: each costs a node draw (RHHH), a gap draw and a
  /// store, and the trials between them cost nothing.
  std::size_t draw(std::size_t n) {
    std::size_t m = 0;
    const std::size_t trials = mode_ == LatticeMode::kRhhh ? n * r_ : n;
    std::uint64_t* pk = picks_.room(trials);
    if (mode_ == LatticeMode::kMst) {
      for (std::size_t i = 0; i < n; ++i) {
        pk[i] = (static_cast<std::uint64_t>(i) << 16) | kAllNodes;
      }
      return n;
    }
    // The generator lives in a register for the loop: the pick stores
    // cannot alias it.
    Xoroshiro128 rng = rng_;
    if (gaps_ != nullptr) {
      const GapTable::Reader gaps = gaps_->reader();
      const bool rhhh = mode_ == LatticeMode::kRhhh;
      const std::uint32_t H = H_;
      const std::uint32_t r = rhhh ? r_ : 1;
      std::uint64_t t = gap_;  // trial index of the next survivor
      while (t < trials) {
        const std::uint64_t pkt = r == 1 ? t : t / r;
        const std::uint32_t d = rhhh ? rng.bounded(H) : kAllNodes;
        pk[m++] = (pkt << 16) | d;
        t += 1 + gaps.draw(rng);
      }
      gap_ = t - trials;
    } else if (mode_ == LatticeMode::kSampledMst) {
      // V == H: every trial survives, but still consumes its draw.
      for (std::size_t i = 0; i < n; ++i) {
        (void)rng.bounded(V_);
        pk[i] = (static_cast<std::uint64_t>(i) << 16) | kAllNodes;
      }
      m = n;
    } else if (r_ == 1) {
      for (std::size_t i = 0; i < n; ++i) {
        pk[i] = (static_cast<std::uint64_t>(i) << 16) | rng.bounded(V_);
      }
      m = n;
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        for (std::uint32_t j = 0; j < r_; ++j) {
          pk[m++] = (static_cast<std::uint64_t>(i) << 16) | rng.bounded(V_);
        }
      }
    }
    rng_ = rng;
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

  /// One trial from the same stream: the per-packet update path. A result
  /// d < H is a survivor at node d (Sampled-MST: some d < H); a result
  /// >= H is a sampled-out trial.
  std::uint32_t draw_one() noexcept {
    if (gaps_ == nullptr) return rng_.bounded(V_);
    if (gap_ != 0) {
      --gap_;
      return H_;
    }
    const std::uint32_t d = mode_ == LatticeMode::kRhhh ? rng_.bounded(H_) : 0;
    gap_ = gaps_->draw(rng_);
    return d;
  }

  /// Restart the draw stream from `seed`.
  void reseed(std::uint64_t seed) noexcept {
    rng_ = Xoroshiro128(seed);
    arm();
  }

 private:
  /// Draw the gap before the stream's first survivor.
  void arm() noexcept { gap_ = gaps_ != nullptr ? gaps_->draw(rng_) : 0; }

  LatticeMode mode_;
  std::uint32_t V_;
  std::uint32_t H_;
  std::uint32_t r_;
  Xoroshiro128 rng_;
  const GapTable* gaps_;  ///< null: V == H (or MST), one draw per trial
  std::uint64_t gap_ = 0;  ///< sampled-out trials before the next survivor
  ScratchVector<std::uint64_t> picks_;  ///< the last draw()'s survivors
};

}  // namespace rhhh

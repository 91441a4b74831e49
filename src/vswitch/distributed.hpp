// Distributed measurement deployment (paper Section 5.2 / Figure 8): the
// switch dataplane performs only RHHH's random level selection and forwards
// sampled records over a lock-free ring to a separate measurement thread
// (the paper's measurement VM). With V > H only a H/V fraction of packets
// crosses the ring, which is why throughput grows with V in Figure 8.
//
// The switch draws in blocks of kBlock packets through the library's one
// RHHH draw site (BlockSampler) and the measurement thread applies the
// survivors with LatticeHhh::apply -- the same split the multi-core engine
// runs between its producers and workers.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "hhh/block_sampler.hpp"
#include "hhh/lattice_hhh.hpp"
#include "util/spsc_ring.hpp"
#include "vswitch/datapath.hpp"

namespace rhhh {

class DistributedMeasurement final : public MeasurementHook {
 public:
  /// The hierarchy/params configure the consumer-side RHHH instance; the
  /// producer side only needs V and H. Ring overflow drops the sample (a
  /// saturated forwarding port) and is counted.
  DistributedMeasurement(const Hierarchy& h, LatticeParams params,
                         std::size_t ring_capacity = 1 << 16);
  ~DistributedMeasurement() override;

  DistributedMeasurement(const DistributedMeasurement&) = delete;
  DistributedMeasurement& operator=(const DistributedMeasurement&) = delete;

  /// Spawns the measurement thread. Must be called before feeding packets.
  void start();
  /// Stops and joins the measurement thread, applies the switch's partial
  /// block and whatever the ring still holds, and folds the observed stream
  /// length into the consumer-side instance. Call from the datapath's
  /// controlling thread once the datapath has quiesced.
  void stop();

  // -- producer side (datapath thread) --------------------------------------
  void on_packet(const PacketRecord& p) override {
    // order: relaxed -- single-writer counter on the per-packet fast path
    // (a plain store, no read-modify-write); stop() reads it only after the
    // datapath has quiesced.
    offered_.store(++offered_local_, std::memory_order_relaxed);
    block_[fill_] = key_of(p);
    if (++fill_ == kBlock) forward_block();
  }
  [[nodiscard]] std::string_view name() const override { return name_; }

  // -- results (valid after stop()) -----------------------------------------
  [[nodiscard]] HhhSet output(double theta) const { return rhhh_.output(theta); }
  [[nodiscard]] const RhhhSpaceSaving& algorithm() const noexcept { return rhhh_; }

  /// Forwarding-path accounting. `drop_rate` is the share of ring-bound
  /// samples lost to a full ring: drops / (forwarded + drops).
  struct Stats {
    std::uint64_t offered = 0;    ///< packets seen at the switch
    std::uint64_t forwarded = 0;  ///< samples delivered to the measurement thread
    std::uint64_t drops = 0;      ///< samples lost to a full ring
    double drop_rate = 0.0;
  };
  /// The counters are exact once stop() returned; before that, up to one
  /// block of offered packets has not been drawn yet.
  [[nodiscard]] Stats stats() const noexcept {
    Stats s;
    // order: relaxed x3 -- individually-consistent live counters; exact
    // totals only after stop() (thread join is the happens-before edge).
    s.offered = offered_.load(std::memory_order_relaxed);
    s.forwarded = forwarded_.load(std::memory_order_relaxed);
    s.drops = drops_.load(std::memory_order_relaxed);
    const std::uint64_t bound = s.forwarded + s.drops;
    s.drop_rate = bound == 0 ? 0.0
                             : static_cast<double>(s.drops) /
                                   static_cast<double>(bound);
    return s;
  }

  [[nodiscard]] std::uint64_t offered() const noexcept {
    // order: relaxed -- live counter (see stats()).
    return offered_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t forwarded() const noexcept {
    // order: relaxed -- live counter (see stats()).
    return forwarded_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t drops() const noexcept {
    // order: relaxed -- live counter (see stats()).
    return drops_.load(std::memory_order_relaxed);
  }

 private:
  /// Packets per draw block: one BlockSampler::draw and one ring push each.
  static constexpr std::size_t kBlock = 64;

  [[nodiscard]] Key128 key_of(const PacketRecord& p) const noexcept {
    return rhhh_.hierarchy().key_of(p);
  }
  /// Draws the pending block into out_; returns the survivor count.
  std::size_t sample_block();
  /// Draws the pending block and pushes its survivors (a full ring drops
  /// the unpushed tail and counts it).
  void forward_block();
  /// Applies everything the ring holds; returns the records applied.
  std::size_t drain();
  void consume();

  RhhhSpaceSaving rhhh_;  // consumer-side instance; sampling done by producer
  SpscRing<SampledUpdate> ring_;
  BlockSampler sampler_;
  std::array<Key128, kBlock> block_{};  ///< packets awaiting their draws
  std::size_t fill_ = 0;
  std::vector<SampledUpdate> out_;      ///< the last block's survivors
  std::vector<SampledUpdate> in_;       ///< consumer-side pop batch
  std::uint64_t offered_local_ = 0;     ///< datapath-thread copy of offered_
  std::thread consumer_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> offered_{0};
  std::atomic<std::uint64_t> forwarded_{0};
  std::atomic<std::uint64_t> drops_{0};
  std::string name_;
};

}  // namespace rhhh

#include "vswitch/distributed.hpp"

namespace rhhh {

DistributedMeasurement::DistributedMeasurement(const Hierarchy& h,
                                               LatticeParams params,
                                               std::size_t ring_capacity)
    : rhhh_(h, LatticeMode::kRhhh, params),
      ring_(ring_capacity),
      sampler_(LatticeMode::kRhhh, rhhh_.V(), rhhh_.H(), params.r,
               mix64(params.seed ^ 0xd15717b07ed0ULL)),
      out_(kBlock * params.r),
      in_(128),
      name_("distributed-" + std::string(rhhh_.name())) {}

DistributedMeasurement::~DistributedMeasurement() { stop(); }

void DistributedMeasurement::start() {
  // order: acq_rel -- the winner of a start/start race proceeds to spawn;
  // release publishes construction to any thread polling running_, acquire
  // keeps a restart from being reordered before a previous stop()'s join.
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  consumer_ = std::thread([this] { consume(); });
}

void DistributedMeasurement::stop() {
  // order: acq_rel -- release publishes the flip to the consumer's acquire
  // load (it exits after one final drain); acquire pairs with start()'s
  // release so the winning stop() observes the spawned thread it joins.
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  if (consumer_.joinable()) consumer_.join();
  // The consumer is gone, so this thread owns both ring ends and the
  // instance: drain what the consumer's last pass missed, then apply the
  // partial block the switch never forwarded.
  drain();
  const std::size_t m = sample_block();
  rhhh_.advance_stream(0, rhhh_.apply(out_.data(), m));
  // order: relaxed -- counter; the caller reads it after stop() returns.
  forwarded_.fetch_add(m, std::memory_order_relaxed);
  // Fold the full stream length in. The caller quiesces the datapath
  // before stop() (the hook contract), so offered_ is final.
  // order: relaxed -- see above; the join ordered the consumer's writes and
  // this read has no payload of its own.
  rhhh_.advance_stream(offered_.load(std::memory_order_relaxed));
}

std::size_t DistributedMeasurement::sample_block() {
  const std::size_t m = sampler_.draw(fill_);
  const std::uint64_t* pk = sampler_.picks();
  for (std::size_t j = 0; j < m; ++j) {
    out_[j] = SampledUpdate{block_[BlockSampler::packet_of(pk[j])],
                            BlockSampler::node_of(pk[j]), 0};
  }
  fill_ = 0;
  return m;
}

void DistributedMeasurement::forward_block() {
  const std::size_t m = sample_block();
  const std::size_t sent = ring_.try_push_n(out_.data(), m);
  if (sent != m) {
    // order: relaxed -- drop counter; exact only once the datapath stopped.
    drops_.fetch_add(m - sent, std::memory_order_relaxed);
  }
}

std::size_t DistributedMeasurement::drain() {
  // Batched consumption (SpscRing::try_pop_n): one acquire reload and one
  // release store cover up to a whole batch, so the measurement thread's
  // ring overhead amortizes the same way the engine workers' does.
  std::size_t total = 0;
  for (std::size_t n; (n = ring_.try_pop_n(in_.data(), in_.size())) != 0;) {
    rhhh_.advance_stream(0, rhhh_.apply(in_.data(), n));
    // order: relaxed -- forwarded counter; sample visibility came from the
    // ring's acquire/release pair, not this statistic.
    forwarded_.fetch_add(n, std::memory_order_relaxed);
    total += n;
  }
  return total;
}

void DistributedMeasurement::consume() {
  // order: acquire -- pairs with stop()'s acq_rel exchange: once the flip is
  // observed, every sample pushed before it is visible to the final drain.
  while (running_.load(std::memory_order_acquire)) {
    if (drain() == 0) std::this_thread::yield();
  }
  drain();
}

}  // namespace rhhh

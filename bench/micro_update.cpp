// Micro-benchmarks (google-benchmark): the cost decomposition of a single
// RHHH update (Theorem 6.18's O(1) pieces -- bounded RNG draw, mask, one
// Space-Saving increment) against MST's O(H) loop and the trie update, per
// hierarchy. Complements Figure 5's end-to-end throughput numbers.
//
// The BM_SpaceSavingSteady* panels split one steady-state increment: a
// 401-counter Space-Saving (RHHH's per-node size at eps 0.005) is filled
// with one lattice node's masked sanjose14 keys until its roster is full
// and evicting, then timed on a probe-only pass (upper()) and on the full
// increment_hashed() as the batched apply loop issues it (index slot
// prefetched 8 keys ahead, counter cell 4 ahead).
#include <benchmark/benchmark.h>

#include <vector>

#include "hh/space_saving.hpp"
#include "hhh/lattice_hhh.hpp"
#include "hhh/trie_hhh.hpp"
#include "trace/trace_gen.hpp"
#include "util/random.hpp"

namespace rhhh {
namespace {

const std::vector<Key128>& keys_2d() {
  static const std::vector<Key128> keys = [] {
    TraceGenerator gen(trace_preset("chicago16"));
    const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
    std::vector<Key128> out;
    out.reserve(1 << 18);
    for (int i = 0; i < (1 << 18); ++i) out.push_back(h.key_of(gen.next()));
    return out;
  }();
  return keys;
}

Hierarchy hierarchy_for(int h_size) {
  switch (h_size) {
    case 5: return Hierarchy::ipv4_1d(Granularity::kByte);
    case 25: return Hierarchy::ipv4_2d(Granularity::kByte);
    case 33: return Hierarchy::ipv4_1d(Granularity::kBit);
    default: return Hierarchy::ipv4_2d(Granularity::kByte);
  }
}

void BM_RngBoundedDraw(benchmark::State& state) {
  Xoroshiro128 rng(1);
  std::uint32_t sink = 0;
  for (auto _ : state) {
    sink += rng.bounded(250);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_RngBoundedDraw);

void BM_MaskKey(benchmark::State& state) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  const auto& keys = keys_2d();
  std::size_t i = 0;
  Key128 sink{};
  for (auto _ : state) {
    sink = sink ^ h.mask_key(7, keys[i++ & (keys.size() - 1)]);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_MaskKey);

void BM_SpaceSavingIncrement(benchmark::State& state) {
  SpaceSaving<Key128> ss(static_cast<std::size_t>(state.range(0)));
  const auto& keys = keys_2d();
  std::size_t i = 0;
  for (auto _ : state) {
    ss.increment(keys[i++ & (keys.size() - 1)]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SpaceSavingIncrement)->Arg(64)->Arg(1024)->Arg(16384);

constexpr std::size_t kSteadyCounters = 401;
constexpr std::size_t kSteadyKeys = std::size_t{1} << 20;

/// kSteadyKeys sanjose14 keys masked to lattice node `node` of the 2D byte
/// hierarchy (node 0 is the fully specified pair, the most diverse).
const std::vector<Key128>& steady_keys(std::uint32_t node) {
  static std::vector<std::vector<Key128>> by_node(25);
  std::vector<Key128>& out = by_node.at(node);
  if (out.empty()) {
    TraceGenerator gen(trace_preset("sanjose14"));
    const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
    out.reserve(kSteadyKeys);
    for (std::size_t i = 0; i < kSteadyKeys; ++i) {
      out.push_back(h.mask_key(node, h.key_of(gen.next())));
    }
  }
  return out;
}

/// A roster that has seen one full pass of the node's keys: full, evicting.
SpaceSaving<Key128> steady_roster(const std::vector<Key128>& keys) {
  SpaceSaving<Key128> ss(kSteadyCounters);
  for (const Key128& k : keys) ss.increment(k);
  return ss;
}

void BM_SpaceSavingSteadyProbe(benchmark::State& state) {
  const auto& keys = steady_keys(static_cast<std::uint32_t>(state.range(0)));
  const SpaceSaving<Key128> ss = steady_roster(keys);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ss.upper(keys[i++ & (kSteadyKeys - 1)]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SpaceSavingSteadyProbe)->ArgName("node")->Arg(0)->Arg(6)->Arg(12);

void BM_SpaceSavingSteadyIncrement(benchmark::State& state) {
  const auto& keys = steady_keys(static_cast<std::uint32_t>(state.range(0)));
  SpaceSaving<Key128> ss = steady_roster(keys);
  std::vector<std::uint64_t> hashes(kSteadyKeys);
  for (std::size_t j = 0; j < kSteadyKeys; ++j) hashes[j] = ss.hash_of(keys[j]);
  constexpr std::size_t kFar = 8;
  constexpr std::size_t kNear = 4;
  constexpr std::size_t kMask = kSteadyKeys - 1;
  const std::uint64_t evictions0 = ss.evictions();
  std::size_t i = 0;
  for (auto _ : state) {
    ss.prefetch(hashes[(i + kFar) & kMask]);
    const std::size_t n = (i + kNear) & kMask;
    ss.prefetch_counter(keys[n], hashes[n]);
    const std::size_t j = i++ & kMask;
    ss.increment_hashed(keys[j], hashes[j], 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["evictions_per_update"] = benchmark::Counter(
      static_cast<double>(ss.evictions() - evictions0) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_SpaceSavingSteadyIncrement)->ArgName("node")->Arg(0)->Arg(6)->Arg(12);

template <LatticeMode Mode>
void BM_LatticeUpdate(benchmark::State& state) {
  const Hierarchy h = hierarchy_for(static_cast<int>(state.range(0)));
  LatticeParams lp;
  lp.eps = 0.001;
  lp.delta = 0.001;
  if (Mode == LatticeMode::kRhhh && state.range(1) > 1) {
    lp.V = static_cast<std::uint32_t>(state.range(1)) *
           static_cast<std::uint32_t>(h.size());
  }
  LatticeHhh<SpaceSaving<Key128>> alg(h, Mode, lp);
  const auto& keys = keys_2d();
  std::size_t i = 0;
  for (auto _ : state) {
    alg.update(keys[i++ & (keys.size() - 1)]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("H=" + std::to_string(h.size()));
}
BENCHMARK_TEMPLATE(BM_LatticeUpdate, LatticeMode::kRhhh)
    ->Args({5, 1})
    ->Args({25, 1})
    ->Args({33, 1})
    ->Args({25, 10});
BENCHMARK_TEMPLATE(BM_LatticeUpdate, LatticeMode::kMst)
    ->Args({5, 1})
    ->Args({25, 1})
    ->Args({33, 1});

/// The engine hot path: whole batches through the staged update_batch
/// pipeline (block-RNG, survivor compaction, prefetched apply). Args are
/// {H, V-multiplier, batch size}; items processed counts packets, so
/// items/s is directly comparable to BM_LatticeUpdate.
template <LatticeMode Mode>
void BM_LatticeUpdateBatch(benchmark::State& state) {
  const Hierarchy h = hierarchy_for(static_cast<int>(state.range(0)));
  LatticeParams lp;
  lp.eps = 0.001;
  lp.delta = 0.001;
  if (Mode == LatticeMode::kRhhh && state.range(1) > 1) {
    lp.V = static_cast<std::uint32_t>(state.range(1)) *
           static_cast<std::uint32_t>(h.size());
  }
  LatticeHhh<SpaceSaving<Key128>> alg(h, Mode, lp);
  const auto& keys = keys_2d();
  const auto batch = static_cast<std::size_t>(state.range(2));
  std::size_t i = 0;
  for (auto _ : state) {
    if (i + batch > keys.size()) i = 0;
    alg.update_batch(keys.data() + i, batch);
    i += batch;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
  state.SetLabel("H=" + std::to_string(h.size()) +
                 " batch=" + std::to_string(batch));
}
BENCHMARK_TEMPLATE(BM_LatticeUpdateBatch, LatticeMode::kRhhh)
    ->Args({25, 1, 2048})
    ->Args({25, 10, 256})
    ->Args({25, 10, 2048})
    ->Args({33, 10, 2048});
BENCHMARK_TEMPLATE(BM_LatticeUpdateBatch, LatticeMode::kMst)->Args({25, 1, 2048});

void BM_TrieUpdate(benchmark::State& state) {
  const Hierarchy h = hierarchy_for(static_cast<int>(state.range(0)));
  TrieHhh alg(h, state.range(1) == 0 ? AncestryMode::kPartial : AncestryMode::kFull,
              0.001);
  const auto& keys = keys_2d();
  std::size_t i = 0;
  for (auto _ : state) {
    alg.update(keys[i++ & (keys.size() - 1)]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TrieUpdate)->Args({25, 0})->Args({25, 1})->Args({33, 0});

void BM_Output(benchmark::State& state) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  LatticeParams lp;
  lp.eps = 0.01;
  lp.delta = 0.001;
  LatticeHhh<SpaceSaving<Key128>> alg(h, LatticeMode::kRhhh, lp);
  const auto& keys = keys_2d();
  for (const Key128& k : keys) alg.update(k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(alg.output(0.02));
  }
}
BENCHMARK(BM_Output);

}  // namespace
}  // namespace rhhh

BENCHMARK_MAIN();

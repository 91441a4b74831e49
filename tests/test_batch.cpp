// Equivalence suite for the batched hot-path update pipeline: feeding a
// stream through HhhAlgorithm::update_batch must leave every algorithm in
// state byte-identical to n per-packet update() calls -- same RNG draw
// sequence, same rotation packets, same counter rosters, same output() and
// estimate() values -- for every lattice mode x backend and for arbitrary
// batch split points. This pins the determinism contract the engine's
// golden digests (test_engine.cpp) rely on.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/windowed.hpp"
#include "hh/count_min.hpp"
#include "hh/count_sketch.hpp"
#include "hh/space_saving.hpp"
#include "hhh/lattice_hhh.hpp"
#include "hhh/trie_hhh.hpp"
#include "net/ipv4.hpp"
#include "trace/trace_gen.hpp"
#include "util/random.hpp"

namespace rhhh {
namespace {

std::uint64_t fnv1a(std::uint64_t h, const char* s) {
  for (; *s != '\0'; ++s) {
    h ^= static_cast<unsigned char>(*s);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// In-order digest of an HHH set: pins candidate iteration order and
/// full-precision numbers, not just set membership.
std::uint64_t digest_set_ordered(const Hierarchy& h, const HhhSet& s) {
  std::uint64_t d = 0xcbf29ce484222325ULL;
  for (const HhhCandidate& c : s) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s|%.17g|%.17g|%.17g|%.17g",
                  h.format(c.prefix).c_str(), c.f_est, c.f_lo, c.f_hi, c.c_hat);
    d = fnv1a(d, buf);
  }
  return d;
}

/// Digest of every per-node backend roster in iteration order (for backends
/// exposing for_each) -- byte-identical internal state, not just identical
/// query answers.
template <class Backend>
std::uint64_t digest_nodes(const LatticeHhh<Backend>& alg, std::uint32_t nodes) {
  std::uint64_t d = 0xcbf29ce484222325ULL;
  if constexpr (requires(const Backend& b) {
                  b.for_each([](const Key128&, std::uint64_t, std::uint64_t) {});
                }) {
    for (std::uint32_t v = 0; v < nodes; ++v) {
      alg.instance(v).for_each([&](const Key128& k, std::uint64_t up, std::uint64_t lo) {
        char buf[120];
        std::snprintf(buf, sizeof buf, "%u|%016llx%016llx|%llu|%llu", v,
                      static_cast<unsigned long long>(k.hi),
                      static_cast<unsigned long long>(k.lo),
                      static_cast<unsigned long long>(up),
                      static_cast<unsigned long long>(lo));
        d = fnv1a(d, buf);
      });
    }
  }
  return d;
}

/// A skewed key stream with enough distinct keys to force evictions in the
/// Space-Saving rosters (the order-sensitive backend path).
std::vector<Key128> make_stream(std::size_t n, std::uint64_t seed) {
  std::vector<Key128> keys;
  keys.reserve(n);
  Xoroshiro128 rng(seed);
  ZipfDistribution zipf(50000, 1.1);
  for (std::size_t i = 0; i < n; ++i) {
    const auto z = static_cast<std::uint32_t>(zipf(rng));
    keys.push_back(Key128::from_u32(0x0a000000u + z));
  }
  return keys;
}

/// Feed `keys` through update_batch in randomly sized chunks (including
/// empty and single-record batches) -- fuzzes the split points the engine /
/// windowed monitor would produce.
template <class Alg>
void feed_batched(Alg& alg, const std::vector<Key128>& keys, std::uint64_t seed) {
  Xoroshiro128 rng(seed);
  std::size_t i = 0;
  while (i < keys.size()) {
    std::size_t take = rng.bounded(257);  // 0..256: exercises the n == 0 edge
    if (take > keys.size() - i) take = keys.size() - i;
    alg.update_batch(keys.data() + i, take);
    i += take;
  }
}

template <class Backend>
void expect_equivalent(LatticeMode mode, std::uint64_t chunk_seed) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  LatticeParams lp;
  lp.eps = 0.01;
  lp.delta = 0.05;
  lp.V = 10 * static_cast<std::uint32_t>(h.size());  // 10-RHHH flavor
  lp.seed = 99;
  LatticeHhh<Backend> serial(h, mode, lp);
  LatticeHhh<Backend> batched(h, mode, lp);

  const std::vector<Key128> keys = make_stream(60000, 1234);
  for (const Key128& k : keys) serial.update(k);
  feed_batched(batched, keys, chunk_seed);

  const auto nodes = static_cast<std::uint32_t>(h.size());
  EXPECT_EQ(serial.stream_length(), batched.stream_length());
  EXPECT_EQ(serial.updates_performed(), batched.updates_performed());
  EXPECT_EQ(digest_nodes(serial, nodes), digest_nodes(batched, nodes));
  for (const double theta : {0.001, 0.01, 0.1}) {
    EXPECT_EQ(digest_set_ordered(h, serial.output(theta)),
              digest_set_ordered(h, batched.output(theta)))
        << to_string(mode) << " theta=" << theta;
  }
  // estimate() spot checks on hot and cold prefixes at every lattice level.
  for (std::uint32_t node = 0; node < nodes; ++node) {
    for (const std::uint32_t ip : {0x0a000001u, 0x0a0000ffu, 0x0b010203u}) {
      const Prefix p{node, h.mask_key(node, Key128::from_u32(ip))};
      EXPECT_EQ(serial.estimate(p), batched.estimate(p));
    }
  }
}

TEST(BatchEquivalence, SpaceSavingAllModes) {
  expect_equivalent<SpaceSaving<Key128>>(LatticeMode::kRhhh, 7);
  expect_equivalent<SpaceSaving<Key128>>(LatticeMode::kMst, 8);
  expect_equivalent<SpaceSaving<Key128>>(LatticeMode::kSampledMst, 9);
}

TEST(BatchEquivalence, CountMinAllModes) {
  expect_equivalent<CountMinHh<Key128>>(LatticeMode::kRhhh, 17);
  expect_equivalent<CountMinHh<Key128>>(LatticeMode::kMst, 18);
  expect_equivalent<CountMinHh<Key128>>(LatticeMode::kSampledMst, 19);
}

TEST(BatchEquivalence, CountSketchAllModes) {
  expect_equivalent<CountSketchHh<Key128>>(LatticeMode::kRhhh, 27);
  expect_equivalent<CountSketchHh<Key128>>(LatticeMode::kMst, 28);
  expect_equivalent<CountSketchHh<Key128>>(LatticeMode::kSampledMst, 29);
}

TEST(BatchEquivalence, MultiUpdateFactorRhhh) {
  // r > 1 consumes r draws per packet; batch draw order must still match.
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  LatticeParams lp;
  lp.eps = 0.02;
  lp.delta = 0.05;
  lp.V = 4 * static_cast<std::uint32_t>(h.size());
  lp.r = 3;
  lp.seed = 5;
  RhhhSpaceSaving serial(h, LatticeMode::kRhhh, lp);
  RhhhSpaceSaving batched(h, LatticeMode::kRhhh, lp);
  const std::vector<Key128> keys = make_stream(30000, 77);
  for (const Key128& k : keys) serial.update(k);
  feed_batched(batched, keys, 42);
  EXPECT_EQ(serial.updates_performed(), batched.updates_performed());
  EXPECT_EQ(digest_nodes(serial, static_cast<std::uint32_t>(h.size())),
            digest_nodes(batched, static_cast<std::uint32_t>(h.size())));
  EXPECT_EQ(digest_set_ordered(h, serial.output(0.01)),
            digest_set_ordered(h, batched.output(0.01)));
}

/// The engine / switch split of update_batch: BlockSampler::draw at the
/// packet source, SampledUpdate records in transport, LatticeHhh::apply at
/// the lattice -- once over all nodes, and once split between two owners of
/// disjoint node sets applied one after the other (the engine's workers).
/// Both must leave the lattice byte-identical to update_batch.
void expect_sample_apply_equivalent(LatticeMode mode, std::uint32_t v_mult,
                                    std::uint32_t r) {
  SCOPED_TRACE(::testing::Message() << to_string(mode) << " V=" << v_mult
                                    << "H r=" << r);
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  const auto H = static_cast<std::uint32_t>(h.size());
  LatticeParams lp;
  lp.eps = 0.02;
  lp.delta = 0.05;
  lp.V = v_mult * H;
  lp.r = r;
  lp.seed = 31;
  RhhhSpaceSaving batched(h, mode, lp);
  RhhhSpaceSaving split(h, mode, lp);
  RhhhSpaceSaving owned(h, mode, lp);
  const std::vector<Key128> keys = make_stream(40000, 88);
  feed_batched(batched, keys, 9);

  // Two owners: even nodes and odd nodes.
  std::vector<std::uint32_t> nodes[2];
  for (std::uint32_t d = 0; d < H; ++d) nodes[d % 2].push_back(d);
  BlockSampler sampler = split.make_sampler();
  std::vector<SampledUpdate> records;
  std::vector<SampledUpdate> per_owner[2];
  Xoroshiro128 rng(9);  // the same chunking feed_batched used
  for (std::size_t i = 0; i < keys.size();) {
    std::size_t take = rng.bounded(257);
    if (take > keys.size() - i) take = keys.size() - i;
    const std::size_t m = sampler.draw(take);
    records.clear();
    per_owner[0].clear();
    per_owner[1].clear();
    for (std::size_t j = 0; j < m; ++j) {
      const std::uint64_t pick = sampler.picks()[j];
      const SampledUpdate u{keys[i + BlockSampler::packet_of(pick)],
                            BlockSampler::node_of(pick), 0};
      records.push_back(u);
      if (u.node == BlockSampler::kAllNodes) {
        per_owner[0].push_back(u);
        per_owner[1].push_back(u);
      } else {
        per_owner[u.node % 2].push_back(u);
      }
    }
    split.advance_stream(take, split.apply(records.data(), records.size()));
    std::uint64_t applied = 0;
    for (int w = 0; w < 2; ++w) {
      applied += owned.apply(per_owner[w].data(), per_owner[w].size(), nodes[w]);
    }
    owned.advance_stream(take, applied);
    i += take;
  }
  for (const RhhhSpaceSaving* alg : {&split, &owned}) {
    EXPECT_EQ(alg->stream_length(), batched.stream_length());
    EXPECT_EQ(alg->updates_performed(), batched.updates_performed());
    EXPECT_EQ(digest_nodes(*alg, H), digest_nodes(batched, H));
    EXPECT_EQ(digest_set_ordered(h, alg->output(0.01)),
              digest_set_ordered(h, batched.output(0.01)));
  }
}

TEST(BatchEquivalence, SampleThenApplyMatchesUpdateBatch) {
  for (const std::uint32_t r : {1u, 2u}) {
    expect_sample_apply_equivalent(LatticeMode::kRhhh, 1, r);   // V = H
    expect_sample_apply_equivalent(LatticeMode::kRhhh, 10, r);  // V = 10H
  }
  expect_sample_apply_equivalent(LatticeMode::kSampledMst, 10, 1);
  expect_sample_apply_equivalent(LatticeMode::kMst, 1, 1);
}

TEST(BatchEquivalence, PrefetchDistanceNeverChangesResults) {
  // prefetch_distance is a pure performance knob: every setting (off, tiny,
  // default, huge) must produce the identical roster digest.
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  const std::vector<Key128> keys = make_stream(40000, 9);
  std::uint64_t reference = 0;
  bool first = true;
  for (const std::uint32_t dist : {0u, 1u, 4u, 8u, 16u, 64u}) {
    LatticeParams lp;
    lp.eps = 0.01;
    lp.delta = 0.05;
    lp.V = 10 * static_cast<std::uint32_t>(h.size());
    lp.seed = 31;
    lp.prefetch_distance = dist;
    RhhhSpaceSaving alg(h, LatticeMode::kRhhh, lp);
    feed_batched(alg, keys, 55);
    const std::uint64_t d =
        digest_nodes(alg, static_cast<std::uint32_t>(h.size())) ^
        digest_set_ordered(h, alg.output(0.01));
    if (first) {
      reference = d;
      first = false;
    } else {
      EXPECT_EQ(d, reference) << "prefetch_distance=" << dist;
    }
  }
}

TEST(BatchEquivalence, BaseClassFallbackLoop) {
  // Algorithms that do not override update_batch get the base-class loop;
  // it must be exactly n update() calls.
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  TrieHhh serial(h, AncestryMode::kFull, 0.01);
  TrieHhh batched(h, AncestryMode::kFull, 0.01);
  const std::vector<Key128> keys = make_stream(20000, 3);
  for (const Key128& k : keys) serial.update(k);
  HhhAlgorithm& base = batched;  // dispatch through the virtual
  feed_batched(base, keys, 11);
  EXPECT_EQ(serial.stream_length(), batched.stream_length());
  EXPECT_EQ(digest_set_ordered(h, serial.output(0.01)),
            digest_set_ordered(h, batched.output(0.01)));
}

TEST(BatchEquivalence, WindowedMonitorRotatesOnTheSamePacket) {
  // Batches that straddle epoch boundaries must rotate on exactly the same
  // packet as the per-packet path: epochs_completed, the live partial epoch,
  // and every sealed window digest must agree.
  MonitorConfig cfg;
  cfg.hierarchy = HierarchyKind::kIpv4OneDimBytes;
  cfg.eps = 0.05;
  cfg.delta = 0.1;
  cfg.seed = 7;
  WindowedHhhMonitor serial(cfg, 2000, 3);
  WindowedHhhMonitor batched(cfg, 2000, 3);
  const std::vector<Key128> keys = make_stream(13777, 21);  // partial last epoch
  for (const Key128& k : keys) serial.update(k);
  feed_batched(batched, keys, 67);
  EXPECT_EQ(serial.epochs_completed(), batched.epochs_completed());
  EXPECT_EQ(serial.packets_in_epoch(), batched.packets_in_epoch());
  const Hierarchy& h = serial.hierarchy();
  EXPECT_EQ(digest_set_ordered(h, serial.current(0.01)),
            digest_set_ordered(h, batched.current(0.01)));
  EXPECT_EQ(digest_set_ordered(h, serial.previous(0.01)),
            digest_set_ordered(h, batched.previous(0.01)));
  const Prefix hot{h.bottom(), Key128::from_u32(0x0a000001u)};
  const auto ts = serial.trend(hot);
  const auto tb = batched.trend(hot);
  ASSERT_EQ(ts.size(), tb.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(ts[i].stream_length, tb[i].stream_length);
    EXPECT_EQ(ts[i].estimate, tb[i].estimate);
  }
}

TEST(BatchEquivalence, WeightedUpdatesInterleaveWithBatches) {
  // update_weighted stays consistent when interleaved with batched ingest:
  // both orderings consume the same draw sequence.
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  LatticeParams lp;
  lp.eps = 0.01;
  lp.delta = 0.05;
  lp.V = 10 * static_cast<std::uint32_t>(h.size());
  lp.seed = 13;
  RhhhSpaceSaving serial(h, LatticeMode::kRhhh, lp);
  RhhhSpaceSaving batched(h, LatticeMode::kRhhh, lp);
  const std::vector<Key128> keys = make_stream(8000, 31);
  const Key128 heavy = Key128::from_u32(0x0a000002u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    serial.update(keys[i]);
    if (i % 1000 == 999) serial.update_weighted(heavy, 5);
  }
  for (std::size_t i = 0; i < keys.size(); i += 1000) {
    batched.update_batch(keys.data() + i, 1000);
    batched.update_weighted(heavy, 5);
  }
  EXPECT_EQ(serial.stream_length(), batched.stream_length());
  EXPECT_EQ(digest_nodes(serial, static_cast<std::uint32_t>(h.size())),
            digest_nodes(batched, static_cast<std::uint32_t>(h.size())));
}

TEST(BatchEquivalence, CopyAfterLargeBatchAnswersLikeTheOriginal) {
  // A lattice last fed one large batch holds a work list that large; its
  // copies start without it and must answer -- and keep answering as
  // updates continue -- byte-identically to the original.
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  const auto H = static_cast<std::uint32_t>(h.size());
  const std::vector<Key128> first = make_stream(200000, 4242);
  const std::vector<Key128> more = make_stream(30000, 4343);
  for (const std::uint32_t v_mult : {1u, 10u}) {
    LatticeParams lp;
    lp.eps = 0.01;
    lp.delta = 0.05;
    lp.V = v_mult * H;
    lp.seed = 17;
    RhhhSpaceSaving orig(h, LatticeMode::kRhhh, lp);
    orig.update_batch(first.data(), first.size());
    RhhhSpaceSaving copy(orig);
    RhhhSpaceSaving assigned(h, LatticeMode::kRhhh, lp);
    assigned.update_batch(more.data(), 16);
    assigned = orig;
    const auto expect_same = [&](const char* at) {
      for (const RhhhSpaceSaving* c : {&copy, &assigned}) {
        EXPECT_EQ(c->stream_length(), orig.stream_length()) << at;
        EXPECT_EQ(c->updates_performed(), orig.updates_performed()) << at;
        EXPECT_EQ(digest_nodes(*c, H), digest_nodes(orig, H)) << at;
        EXPECT_EQ(digest_set_ordered(h, c->output(0.01)),
                  digest_set_ordered(h, orig.output(0.01)))
            << at;
      }
    };
    expect_same("copied");
    for (RhhhSpaceSaving* alg : {&orig, &copy, &assigned}) {
      feed_batched(*alg, more, 5);
      for (const Key128& k : more) alg->update(k);
    }
    expect_same("updated");
    for (RhhhSpaceSaving* alg : {&orig, &copy, &assigned}) {
      alg->update_batch(first.data(), first.size());
    }
    expect_same("refed");
  }
}

TEST(BatchEquivalence, PrefetchableBackendRoster) {
  // The hash/probe split must be detected for the three pipelined backends
  // (and drive the prefetching apply loop), and its absence tolerated.
  static_assert(LatticeHhh<SpaceSaving<Key128>>::backend_prefetchable());
  static_assert(LatticeHhh<CountMinHh<Key128>>::backend_prefetchable());
  static_assert(LatticeHhh<CountSketchHh<Key128>>::backend_prefetchable());
}

}  // namespace
}  // namespace rhhh

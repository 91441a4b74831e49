// Unit and property tests for the utility substrate: bit helpers, the RNG,
// Key128, FlatHashMap (including randomized differential tests against
// std::unordered_map) and the SPSC ring (including a producer/consumer
// thread test).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/bits.hpp"
#include "util/flat_hash_map.hpp"
#include "util/key128.hpp"
#include "util/random.hpp"
#include "util/scratch_vector.hpp"
#include "util/spsc_ring.hpp"

namespace rhhh {
namespace {

// ---------------------------------------------------------------- bits ----

TEST(Bits, NextPow2) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(4), 4u);
  EXPECT_EQ(next_pow2(1000), 1024u);
  EXPECT_EQ(next_pow2((1ull << 40) + 1), 1ull << 41);
}

TEST(Bits, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(65));
}

TEST(Bits, HighBitsMask) {
  EXPECT_EQ(high_bits_mask64(0), 0u);
  EXPECT_EQ(high_bits_mask64(1), 0x8000000000000000ull);
  EXPECT_EQ(high_bits_mask64(8), 0xff00000000000000ull);
  EXPECT_EQ(high_bits_mask64(64), ~0ull);
}

TEST(Bits, LowBitsMask) {
  EXPECT_EQ(low_bits_mask64(0), 0u);
  EXPECT_EQ(low_bits_mask64(4), 0xfull);
  EXPECT_EQ(low_bits_mask64(64), ~0ull);
}

TEST(Bits, MaskComplement) {
  for (int b = 0; b <= 64; ++b) {
    EXPECT_EQ(high_bits_mask64(b), ~low_bits_mask64(64 - b)) << b;
  }
}

TEST(Bits, Mix64IsInjectiveOnSample) {
  std::unordered_map<std::uint64_t, std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    const auto m = mix64(i);
    auto [it, inserted] = seen.try_emplace(m, i);
    EXPECT_TRUE(inserted) << "collision between " << i << " and " << it->second;
  }
}

// ------------------------------------------------------------- random ----

TEST(Random, DeterministicPerSeed) {
  Xoroshiro128 a(42);
  Xoroshiro128 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Random, DifferentSeedsDiffer) {
  Xoroshiro128 a(1);
  Xoroshiro128 b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LE(equal, 1);
}

TEST(Random, BoundedStaysInRange) {
  Xoroshiro128 rng(7);
  for (std::uint32_t n : {1u, 2u, 5u, 33u, 250u, 1u << 20}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.bounded(n), n);
  }
}

TEST(Random, BoundedOneIsAlwaysZero) {
  Xoroshiro128 rng(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.bounded(1), 0u);
}

TEST(Random, Uniform01Range) {
  Xoroshiro128 rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

/// Chi-square uniformity check for bounded(): the RHHH level selection
/// depends on each level being picked with probability 1/V.
TEST(Random, BoundedUniformityChiSquare) {
  constexpr std::uint32_t kBuckets = 25;
  constexpr int kDraws = 250000;
  Xoroshiro128 rng(1234);
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.bounded(kBuckets)];
  const double expected = static_cast<double>(kDraws) / kBuckets;
  double chi2 = 0;
  for (int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  // 24 dof: 99.9th percentile is ~51.2; a healthy generator sits far below.
  EXPECT_LT(chi2, 51.2);
}

// ------------------------------------------------------------- Key128 ----

TEST(Key128Test, PackingHelpers) {
  const Key128 k = Key128::from_pair(0x0A0B0C0Du, 0x01020304u);
  EXPECT_EQ(k.hi, 0u);
  EXPECT_EQ(k.lo, 0x0A0B0C0D01020304ull);
  EXPECT_EQ(Key128::from_u32(7).lo, 7u);
  EXPECT_EQ(Key128::from_u64(1ull << 40).lo, 1ull << 40);
}

TEST(Key128Test, BitwiseOps) {
  const Key128 a{0xF0F0, 0x1234};
  const Key128 b{0x0FF0, 0xFF00};
  EXPECT_EQ((a & b), (Key128{0x00F0, 0x1200}));
  EXPECT_EQ((a | b), (Key128{0xFFF0, 0xFF34}));
  EXPECT_EQ((a ^ a), (Key128{}));
  EXPECT_EQ((~Key128{}), (Key128{~0ull, ~0ull}));
}

TEST(Key128Test, HashSeparatesHiLo) {
  const Key128 a{1, 0};
  const Key128 b{0, 1};
  EXPECT_NE(Key128Hash{}(a), Key128Hash{}(b));
}

TEST(Key128Test, Ordering) {
  EXPECT_LT((Key128{0, 5}), (Key128{1, 0}));
  EXPECT_LT((Key128{1, 0}), (Key128{1, 1}));
}

// -------------------------------------------------------- FlatHashMap ----

TEST(FlatHashMap, InsertFindBasic) {
  FlatHashMap<std::uint64_t, std::uint64_t> m;
  EXPECT_TRUE(m.empty());
  m.insert_or_assign(1, 10);
  m.insert_or_assign(2, 20);
  ASSERT_NE(m.find(1), nullptr);
  EXPECT_EQ(*m.find(1), 10u);
  EXPECT_EQ(*m.find(2), 20u);
  EXPECT_EQ(m.find(3), nullptr);
  EXPECT_EQ(m.size(), 2u);
}

TEST(FlatHashMap, InsertOrAssignOverwrites) {
  FlatHashMap<std::uint64_t, int> m;
  m.insert_or_assign(5, 1);
  m.insert_or_assign(5, 2);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(*m.find(5), 2);
}

TEST(FlatHashMap, TryEmplaceReportsExisting) {
  FlatHashMap<std::uint64_t, int> m;
  auto [p1, in1] = m.try_emplace(9, 1);
  EXPECT_TRUE(in1);
  auto [p2, in2] = m.try_emplace(9, 2);
  EXPECT_FALSE(in2);
  EXPECT_EQ(*p2, 1);
  EXPECT_EQ(p1, p2);
}

TEST(FlatHashMap, OperatorBracketDefaultInserts) {
  FlatHashMap<std::uint64_t, std::uint64_t> m;
  EXPECT_EQ(m[77], 0u);
  m[77] += 5;
  EXPECT_EQ(*m.find(77), 5u);
}

TEST(FlatHashMap, EraseBasic) {
  FlatHashMap<std::uint64_t, int> m;
  for (std::uint64_t i = 0; i < 100; ++i) m.insert_or_assign(i, int(i));
  for (std::uint64_t i = 0; i < 100; i += 2) EXPECT_TRUE(m.erase(i));
  EXPECT_FALSE(m.erase(0));
  EXPECT_EQ(m.size(), 50u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(m.find(i), nullptr) << i;
    } else {
      ASSERT_NE(m.find(i), nullptr) << i;
      EXPECT_EQ(*m.find(i), int(i));
    }
  }
}

TEST(FlatHashMap, GrowsThroughRehash) {
  FlatHashMap<std::uint64_t, std::uint64_t> m(8);
  for (std::uint64_t i = 0; i < 10000; ++i) m.insert_or_assign(i * 7919, i);
  EXPECT_EQ(m.size(), 10000u);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    ASSERT_NE(m.find(i * 7919), nullptr);
    EXPECT_EQ(*m.find(i * 7919), i);
  }
}

TEST(FlatHashMap, ClearResets) {
  FlatHashMap<std::uint64_t, int> m;
  for (std::uint64_t i = 0; i < 64; ++i) m.insert_or_assign(i, 1);
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(1), nullptr);
  m.insert_or_assign(1, 2);
  EXPECT_EQ(*m.find(1), 2);
}

TEST(FlatHashMap, ForEachVisitsEverything) {
  FlatHashMap<std::uint64_t, std::uint64_t> m;
  std::uint64_t expected_sum = 0;
  for (std::uint64_t i = 1; i <= 500; ++i) {
    m.insert_or_assign(i, i);
    expected_sum += i;
  }
  std::uint64_t sum = 0;
  std::size_t n = 0;
  m.for_each([&](const std::uint64_t&, const std::uint64_t& v) {
    sum += v;
    ++n;
  });
  EXPECT_EQ(sum, expected_sum);
  EXPECT_EQ(n, 500u);
}

TEST(FlatHashMap, ForEachCanMutateValues) {
  FlatHashMap<std::uint64_t, std::uint64_t> m;
  for (std::uint64_t i = 0; i < 50; ++i) m.insert_or_assign(i, i);
  m.for_each([](const std::uint64_t&, std::uint64_t& v) { v *= 2; });
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(*m.find(i), 2 * i);
}

TEST(FlatHashMap, Key128Keys) {
  FlatHashMap<Key128, std::uint64_t> m;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    m.insert_or_assign(Key128{i, ~i}, i);
  }
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ASSERT_NE(m.find(Key128{i, ~i}), nullptr);
    EXPECT_EQ(*m.find(Key128{i, ~i}), i);
  }
  EXPECT_EQ(m.find(Key128{1, 1}), nullptr);
}

/// Differential fuzz: random insert/erase/find mirrored against
/// std::unordered_map.
class FlatHashMapFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlatHashMapFuzz, MatchesStdUnorderedMap) {
  Xoroshiro128 rng(GetParam());
  FlatHashMap<std::uint64_t, std::uint64_t> m(8);
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t key = rng.bounded(512);  // dense keyspace: collisions
    switch (rng.bounded(4)) {
      case 0:
      case 1: {  // insert/overwrite
        const std::uint64_t v = rng();
        m.insert_or_assign(key, v);
        ref[key] = v;
        break;
      }
      case 2: {  // erase
        EXPECT_EQ(m.erase(key), ref.erase(key) > 0);
        break;
      }
      case 3: {  // find
        const auto* p = m.find(key);
        const auto it = ref.find(key);
        if (it == ref.end()) {
          EXPECT_EQ(p, nullptr);
        } else {
          ASSERT_NE(p, nullptr);
          EXPECT_EQ(*p, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(m.size(), ref.size());
  }
  // Final full comparison.
  std::size_t visited = 0;
  m.for_each([&](const std::uint64_t& k, const std::uint64_t& v) {
    auto it = ref.find(k);
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(v, it->second);
    ++visited;
  });
  EXPECT_EQ(visited, ref.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatHashMapFuzz,
                         ::testing::Values(1, 2, 3, 42, 1337, 0xdeadbeef));

// ----------------------------------------------------------- SpscRing ----

TEST(SpscRing, CapacityRounding) {
  SpscRing<int> r(100);
  EXPECT_EQ(r.capacity(), 128u);
}

TEST(SpscRing, PushPopSingleThread) {
  SpscRing<int> r(8);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 7; ++i) EXPECT_TRUE(r.try_push(i)) << i;
    EXPECT_FALSE(r.try_push(99)) << "ring should be full (one slot reserved)";
    int v = -1;
    for (int i = 0; i < 7; ++i) {
      ASSERT_TRUE(r.try_pop(v));
      EXPECT_EQ(v, i);
    }
    EXPECT_FALSE(r.try_pop(v));
  }
}

TEST(SpscRing, SizeApprox) {
  SpscRing<int> r(16);
  EXPECT_EQ(r.size_approx(), 0u);
  for (int i = 0; i < 5; ++i) r.try_push(i);
  EXPECT_EQ(r.size_approx(), 5u);
  int v;
  r.try_pop(v);
  EXPECT_EQ(r.size_approx(), 4u);
}

TEST(SpscRing, WrapAroundPreservesFifo) {
  SpscRing<std::uint64_t> r(4);
  std::uint64_t next_pop = 0;
  std::uint64_t next_push = 0;
  for (int i = 0; i < 1000; ++i) {
    if (r.try_push(next_push)) ++next_push;
    std::uint64_t v;
    if (r.try_pop(v)) {
      EXPECT_EQ(v, next_pop);
      ++next_pop;
    }
  }
  EXPECT_GT(next_pop, 400u);
}

TEST(SpscRing, BatchPushPopRoundTrip) {
  SpscRing<int> r(16);
  int in[10];
  for (int i = 0; i < 10; ++i) in[i] = i;
  EXPECT_EQ(r.try_push_n(in, 10), 10u);
  EXPECT_EQ(r.size_approx(), 10u);
  int out[16] = {};
  EXPECT_EQ(r.try_pop_n(out, 16), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[i], i);
  EXPECT_EQ(r.try_pop_n(out, 16), 0u);
}

TEST(SpscRing, BatchPushAcceptsPrefixWhenNearlyFull) {
  SpscRing<int> r(8);  // usable capacity 7
  int in[10];
  for (int i = 0; i < 10; ++i) in[i] = i;
  EXPECT_EQ(r.try_push_n(in, 10), 7u) << "accepts the prefix that fits";
  EXPECT_EQ(r.try_push_n(in, 1), 0u) << "full ring rejects outright";
  int out[8];
  ASSERT_EQ(r.try_pop_n(out, 8), 7u);
  for (int i = 0; i < 7; ++i) EXPECT_EQ(out[i], i);
}

TEST(SpscRing, BatchPopHonorsMax) {
  SpscRing<int> r(16);
  int in[12];
  for (int i = 0; i < 12; ++i) in[i] = 100 + i;
  ASSERT_EQ(r.try_push_n(in, 12), 12u);
  int out[4];
  EXPECT_EQ(r.try_pop_n(out, 4), 4u);
  EXPECT_EQ(out[0], 100);
  EXPECT_EQ(out[3], 103);
  EXPECT_EQ(r.size_approx(), 8u);
}

TEST(SpscRing, BatchWrapAroundPreservesFifo) {
  SpscRing<std::uint64_t> r(8);
  std::uint64_t next_push = 0;
  std::uint64_t next_pop = 0;
  std::uint64_t in[5];
  std::uint64_t out[5];
  for (int round = 0; round < 500; ++round) {
    for (std::size_t i = 0; i < 5; ++i) in[i] = next_push + i;
    next_push += r.try_push_n(in, 5);
    const std::size_t got = r.try_pop_n(out, 5);
    for (std::size_t i = 0; i < got; ++i) {
      ASSERT_EQ(out[i], next_pop);
      ++next_pop;
    }
  }
  EXPECT_EQ(next_pop, next_push);
  EXPECT_GT(next_pop, 1000u);
}

TEST(SpscRing, BatchMixesWithSingleOps) {
  SpscRing<int> r(16);
  int in[3] = {1, 2, 3};
  ASSERT_EQ(r.try_push_n(in, 3), 3u);
  ASSERT_TRUE(r.try_push(4));
  int v = 0;
  ASSERT_TRUE(r.try_pop(v));
  EXPECT_EQ(v, 1);
  int out[8];
  ASSERT_EQ(r.try_pop_n(out, 8), 3u);
  EXPECT_EQ(out[0], 2);
  EXPECT_EQ(out[2], 4);
}

TEST(SpscRing, ProducerConsumerThreads) {
  constexpr std::uint64_t kCount = 200000;
  SpscRing<std::uint64_t> r(1024);
  std::uint64_t sum_consumed = 0;
  std::uint64_t n_consumed = 0;
  std::thread consumer([&] {
    std::uint64_t v;
    std::uint64_t expected = 0;
    while (n_consumed < kCount) {
      if (r.try_pop(v)) {
        // FIFO within SPSC: values arrive in push order.
        ASSERT_EQ(v, expected);
        ++expected;
        sum_consumed += v;
        ++n_consumed;
      }
    }
  });
  for (std::uint64_t i = 0; i < kCount; ++i) {
    while (!r.try_push(i)) std::this_thread::yield();
  }
  consumer.join();
  EXPECT_EQ(n_consumed, kCount);
  EXPECT_EQ(sum_consumed, kCount * (kCount - 1) / 2);
}

/// Threaded FIFO check for the batched API: a producer pushing in batches
/// and a consumer popping in (differently sized) batches must still observe
/// exactly the pushed sequence.
TEST(SpscRing, BatchProducerConsumerThreads) {
  constexpr std::uint64_t kCount = 200000;
  SpscRing<std::uint64_t> r(512);
  std::thread consumer([&] {
    std::uint64_t out[48];
    std::uint64_t expected = 0;
    while (expected < kCount) {
      const std::size_t got = r.try_pop_n(out, 48);
      for (std::size_t i = 0; i < got; ++i) {
        ASSERT_EQ(out[i], expected);
        ++expected;
      }
      if (got == 0) std::this_thread::yield();
    }
  });
  std::uint64_t in[32];
  std::uint64_t next = 0;
  while (next < kCount) {
    const std::size_t want =
        std::min<std::uint64_t>(32, kCount - next);
    for (std::size_t i = 0; i < want; ++i) in[i] = next + i;
    const std::size_t sent = r.try_push_n(in, want);
    next += sent;
    if (sent == 0) std::this_thread::yield();
  }
  consumer.join();
}

// ------------------------------------------------------ scratch vector ----

TEST(ScratchVector, CopiesStartWithoutTheBuffer) {
  ScratchVector<std::uint64_t> a;
  std::uint64_t* p = a.room(200000);
  p[199999] = 7;
  EXPECT_GE(a.capacity(), 200000u);
  EXPECT_EQ(a.room(10), p);  // shrinking requests reuse the buffer
  const ScratchVector<std::uint64_t> b(a);
  EXPECT_EQ(b.capacity(), 0u);
  ScratchVector<std::uint64_t> c;
  (void)c.room(4);
  c = a;  // keeps its own small buffer
  EXPECT_LT(c.capacity(), 200000u);
  const ScratchVector<std::uint64_t> moved(std::move(a));
  EXPECT_GE(moved.capacity(), 200000u);
}

}  // namespace
}  // namespace rhhh

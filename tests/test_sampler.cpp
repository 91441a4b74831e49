// BlockSampler suite: the draw stream every RHHH path shares.
//
// At V > H the sampler skips from survivor to survivor by Geometric(H/V)
// gaps (GapTable). These tests pin what that must preserve:
//   * the law: survivor rate H/V, uniform nodes, geometric gaps (including
//     the memoryless redraw past the table's cap);
//   * the stream: draw() over any block split equals one draw_one() per
//     trial, for r = 1, r = 2 and Sampled-MST, and leaves the same state;
//   * V == H: the per-trial stream the golden digests were recorded with
//     (digests below recorded before the geometric draw existed);
//   * the table: exact integer thresholds, monotone, guide consistent with
//     a brute-force count, and shared per (V, H).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "hhh/block_sampler.hpp"
#include "util/random.hpp"

namespace rhhh {
namespace {

constexpr std::uint32_t kH = 25;  // the IPv4 2D byte lattice

/// Wilson-Hilferty upper quantile of chi-square(df) at `z` normal sigmas.
double chi2_bound(double df, double z) {
  const double c = 2.0 / (9.0 * df);
  return df * std::pow(1.0 - c + z * std::sqrt(c), 3.0);
}

/// One survivor in stream coordinates.
struct Pick {
  std::uint64_t packet;
  std::uint32_t node;
  friend bool operator==(const Pick&, const Pick&) = default;
};

/// Survivors of `packets` packets drawn through draw() in 64-packet blocks.
std::vector<Pick> picks_by_block(BlockSampler& s, std::uint64_t packets,
                                 std::size_t block = 64) {
  std::vector<Pick> out;
  for (std::uint64_t base = 0; base < packets; base += block) {
    const std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(block, packets - base));
    const std::size_t m = s.draw(n);
    for (std::size_t j = 0; j < m; ++j) {
      const std::uint64_t pk = s.picks()[j];
      out.push_back(Pick{base + BlockSampler::packet_of(pk), BlockSampler::node_of(pk)});
    }
  }
  return out;
}

// ------------------------------------------------------------------ law ---

TEST(SamplerLaw, SurvivorRateWithinFiveSigma) {
  for (const std::uint32_t mult : {2u, 10u, 100u}) {
    for (const std::uint32_t r : {1u, 2u}) {
      const std::uint32_t V = mult * kH;
      BlockSampler s(LatticeMode::kRhhh, V, kH, r, 1000 + mult + r);
      const std::uint64_t packets = 10'000'000 / r + 64;  // >= 10^7 trials
      std::uint64_t survivors = 0;
      for (std::uint64_t i = 0; i < packets; i += 64) survivors += s.draw(64);
      const double trials = static_cast<double>(packets) * r;
      const double p = static_cast<double>(kH) / V;
      const double sd = std::sqrt(trials * p * (1.0 - p));
      EXPECT_LT(std::abs(static_cast<double>(survivors) - trials * p), 5.0 * sd)
          << "V=" << mult << "H r=" << r << ": " << survivors << " survivors of "
          << trials << " trials";
    }
  }
}

TEST(SamplerLaw, NodesAreUniform) {
  for (const std::uint32_t mult : {2u, 10u, 100u}) {
    BlockSampler s(LatticeMode::kRhhh, mult * kH, kH, 1, 77 + mult);
    std::vector<double> count(kH, 0.0);
    std::uint64_t total = 0;
    while (total < 500'000) {
      const std::size_t m = s.draw(256);
      for (std::size_t j = 0; j < m; ++j) {
        const std::uint32_t d = BlockSampler::node_of(s.picks()[j]);
        ASSERT_LT(d, kH);
        count[d] += 1.0;
      }
      total += m;
    }
    const double expect = static_cast<double>(total) / kH;
    double chi2 = 0.0;
    for (const double c : count) chi2 += (c - expect) * (c - expect) / expect;
    EXPECT_LT(chi2, chi2_bound(kH - 1, 5.0)) << "V=" << mult << "H";
  }
}

/// Chi-square of the gaps between consecutive survivors against
/// Geometric(H/V), in bins of `width` trials up to `bins` bins plus a tail.
double gap_chi2(std::uint32_t V, std::uint64_t seed, std::size_t gaps,
                std::uint64_t width, std::size_t bins, double& df) {
  BlockSampler s(LatticeMode::kRhhh, V, kH, 1, seed);
  std::vector<double> hist(bins + 1, 0.0);
  std::uint64_t prev = 0;
  bool have_prev = false;
  std::size_t seen = 0;
  for (std::uint64_t base = 0; seen < gaps; base += 1024) {
    const std::size_t m = s.draw(1024);
    for (std::size_t j = 0; j < m && seen < gaps; ++j) {
      const std::uint64_t t = base + BlockSampler::packet_of(s.picks()[j]);
      if (have_prev) {
        const std::uint64_t g = t - prev - 1;
        hist[std::min<std::uint64_t>(g / width, bins)] += 1.0;
        ++seen;
      }
      prev = t;
      have_prev = true;
    }
  }
  const double q = 1.0 - static_cast<double>(kH) / V;
  double chi2 = 0.0;
  for (std::size_t b = 0; b <= bins; ++b) {
    const double lo = std::pow(q, static_cast<double>(b * width));
    const double hi = b == bins ? 0.0 : std::pow(q, static_cast<double>((b + 1) * width));
    const double expect = static_cast<double>(gaps) * (lo - hi);
    chi2 += (hist[b] - expect) * (hist[b] - expect) / expect;
  }
  df = static_cast<double>(bins);
  return chi2;
}

TEST(SamplerLaw, GapsAreGeometric) {
  // V = 2H and 10H stay inside the table; V = 100H crosses its cap (552
  // thresholds) about once in 250 gaps; V = 1000H hits the hard cap and
  // redraws past it on about a third of its gaps.
  const struct {
    std::uint32_t mult;
    std::uint64_t width;
    std::size_t bins;
    std::size_t gaps;
  } points[] = {{2, 1, 14, 400'000}, {10, 2, 40, 400'000},
                {100, 25, 30, 200'000}, {1000, 250, 30, 100'000}};
  for (const auto& pt : points) {
    double df = 0.0;
    const double chi2 = gap_chi2(pt.mult * kH, 9 + pt.mult, pt.gaps, pt.width, pt.bins, df);
    EXPECT_LT(chi2, chi2_bound(df, 5.0)) << "V=" << pt.mult << "H";
  }
}

// --------------------------------------------------------------- stream ---

/// Survivors of `packets` packets drawn one trial at a time.
std::vector<Pick> picks_by_trial(BlockSampler& s, LatticeMode mode, std::uint32_t r,
                                 std::uint64_t packets) {
  std::vector<Pick> out;
  for (std::uint64_t i = 0; i < packets; ++i) {
    for (std::uint32_t j = 0; j < r; ++j) {
      const std::uint32_t d = s.draw_one();
      if (d < kH) {
        out.push_back(Pick{i, mode == LatticeMode::kRhhh ? d : BlockSampler::kAllNodes});
      }
    }
  }
  return out;
}

TEST(SamplerStream, RandomBlockSplitsMatchPerTrialDraws) {
  const struct {
    LatticeMode mode;
    std::uint32_t mult;
    std::uint32_t r;
  } configs[] = {{LatticeMode::kRhhh, 1, 1},       {LatticeMode::kRhhh, 1, 2},
                 {LatticeMode::kRhhh, 2, 1},       {LatticeMode::kRhhh, 10, 1},
                 {LatticeMode::kRhhh, 10, 2},      {LatticeMode::kRhhh, 100, 1},
                 {LatticeMode::kSampledMst, 5, 1}, {LatticeMode::kSampledMst, 1, 1}};
  for (const auto& c : configs) {
    const std::uint32_t V = c.mult * kH;
    const std::uint64_t packets = 200'000;
    BlockSampler one(c.mode, V, kH, c.r, 4242);
    const std::vector<Pick> want = picks_by_trial(one, c.mode, c.r, packets);

    BlockSampler blk(c.mode, V, kH, c.r, 4242);
    std::vector<Pick> got;
    Xoroshiro128 split(c.mult * 31 + c.r);
    for (std::uint64_t base = 0; base < packets;) {
      // 0..300 packets: empty, single-packet and multi-survivor blocks.
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(split.bounded(301), packets - base));
      const std::size_t m = blk.draw(n);
      for (std::size_t j = 0; j < m; ++j) {
        const std::uint64_t pk = blk.picks()[j];
        got.push_back(Pick{base + BlockSampler::packet_of(pk), BlockSampler::node_of(pk)});
      }
      base += n;
    }
    ASSERT_EQ(want.size(), got.size()) << "V=" << c.mult << "H r=" << c.r;
    EXPECT_TRUE(want == got) << "V=" << c.mult << "H r=" << c.r;
    // Same generator state and pending gap afterwards: the next trials agree.
    for (int i = 0; i < 10'000; ++i) ASSERT_EQ(one.draw_one() < kH, blk.draw_one() < kH);
  }
}

TEST(SamplerStream, ReseedRestartsTheStream) {
  BlockSampler a(LatticeMode::kRhhh, 10 * kH, kH, 1, 5);
  const std::vector<Pick> first = picks_by_block(a, 50'000);
  a.reseed(5);
  EXPECT_TRUE(picks_by_block(a, 50'000) == first);
  BlockSampler b(LatticeMode::kRhhh, 10 * kH, kH, 1, 6);
  EXPECT_FALSE(picks_by_block(b, 50'000) == first);
}

std::uint64_t mix_word(std::uint64_t h, std::uint64_t w) {
  return (h ^ w) * 0x100000001b3ULL;
}

/// FNV-style digest of the first 10^5 picks drawn in 64-packet blocks.
std::uint64_t digest_picks(std::uint32_t V, std::uint32_t H, std::uint32_t r,
                           std::uint64_t seed) {
  BlockSampler s(LatticeMode::kRhhh, V, H, r, seed);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::size_t seen = 0;
  while (seen < 100'000) {
    const std::size_t m = s.draw(64);
    for (std::size_t j = 0; j < m && seen < 100'000; ++j, ++seen) {
      h = mix_word(h, s.picks()[j]);
    }
  }
  return h;
}

TEST(SamplerStream, PerTrialStreamUnchangedAtVEqualsH) {
  // Recorded with the per-trial draw that predates the geometric skip: at
  // V == H nothing about the stream may change.
  EXPECT_EQ(digest_picks(kH, kH, 1, 0x5eed), 0xfaeeb8ed5e569ff6ULL);
  EXPECT_EQ(digest_picks(kH, kH, 2, 0x5eed), 0xbcbe424855c29ff6ULL);
  EXPECT_EQ(digest_picks(4, 4, 1, 77), 0x55d65ae842ac1d38ULL);
  BlockSampler s(LatticeMode::kRhhh, kH, kH, 1, 0x5eed);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int i = 0; i < 100'000; ++i) h = mix_word(h, s.draw_one());
  EXPECT_EQ(h, 0x2a1af0ab17249ff6ULL);
}

// ---------------------------------------------------------------- table ---

/// (hi, lo) words of a * b for a 64-bit a and a 32-bit b.
std::pair<std::uint64_t, std::uint64_t> mul_wide(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t lo = (a & 0xffffffffu) * b;
  const std::uint64_t mid = (a >> 32) * b + (lo >> 32);
  return {mid >> 32, (mid << 32) | (lo & 0xffffffffu)};
}

/// A generator replaying scripted words (then all-ones: gap 0).
struct Script {
  std::vector<std::uint64_t> words;
  std::size_t at = 0;
  std::uint64_t operator()() { return at < words.size() ? words[at++] : ~std::uint64_t{0}; }
};

TEST(GapTableTest, ThresholdsAreExactAndMonotone) {
  for (const auto& [V, H] : std::vector<std::pair<std::uint32_t, std::uint32_t>>{
           {2 * kH, kH}, {10 * kH, kH}, {100 * kH, kH}, {1000 * kH, kH},
           {26, 25}, {3, 1}, {0xffffffffu, 1}, {0xffffffffu, 0xfffffffeu}}) {
    const GapTable& g = gap_table(V, H);
    ASSERT_GE(g.cap, 1u);
    ASSERT_LE(g.cap, GapTable::kMaxCap);
    ASSERT_EQ(g.thr.size(), g.cap + std::size_t{1});
    EXPECT_EQ(g.tail, g.thr[g.cap]);
    // The table stops at the first threshold below 2^56, or at the cap.
    constexpr std::uint64_t kSpan = std::uint64_t{1} << 56;
    EXPECT_TRUE(g.tail < kSpan || g.cap == GapTable::kMaxCap) << V << "/" << H;
    for (std::uint32_t k = 1; k < g.cap; ++k) EXPECT_GE(g.thr[k], kSpan);
    // S_k = floor(S_{k-1} * (V-H) / V): S_k*V <= S_{k-1}*(V-H) < (S_k+1)*V,
    // checked in 96-bit arithmetic; S_0 = 2^64.
    for (std::uint32_t k = 1; k <= g.cap; ++k) {
      const auto lhs = mul_wide(g.thr[k], V);
      const auto rhs = k == 1 ? std::pair<std::uint64_t, std::uint64_t>{V - H, 0}
                              : mul_wide(g.thr[k - 1], V - H);
      const auto next = mul_wide(g.thr[k], V);
      const std::uint64_t nlo = next.second + V;
      const std::pair<std::uint64_t, std::uint64_t> upper{next.first + (nlo < next.second ? 1 : 0),
                                                          nlo};
      EXPECT_LE(lhs, rhs) << V << "/" << H << " k=" << k;
      EXPECT_LT(rhs, upper) << V << "/" << H << " k=" << k;
      if (k > 1) {
        EXPECT_LT(g.thr[k], g.thr[k - 1]) << V << "/" << H << " k=" << k;
      }
    }
    for (std::size_t b = 1; b < 256; ++b) EXPECT_LE(g.guide[b], g.guide[b - 1]);
  }
  // Halving thresholds are exact powers of two.
  const GapTable& half = gap_table(2 * kH, kH);
  for (std::uint32_t k = 1; k <= half.cap; ++k) {
    EXPECT_EQ(half.thr[k], std::uint64_t{1} << (64 - k));
  }
}

TEST(GapTableTest, GuidedSearchMatchesBruteForce) {
  for (const std::uint32_t mult : {2u, 10u, 100u, 1000u}) {
    const GapTable& g = gap_table(mult * kH, kH);
    // G(u) = #{1 <= k < cap : u < S_k} for u >= tail.
    const auto brute = [&](std::uint64_t u) {
      std::uint64_t k = 0;
      while (k + 1 < g.cap && u < g.thr[k + 1]) ++k;
      return k;
    };
    std::vector<std::uint64_t> us;
    Xoroshiro128 rng(mult);
    for (int i = 0; i < 20'000; ++i) us.push_back(rng());
    for (std::uint32_t k = 1; k <= g.cap; ++k) {  // both sides of every threshold
      us.push_back(g.thr[k]);
      us.push_back(g.thr[k] - 1);
    }
    for (std::uint64_t b = 0; b < 256; ++b) us.push_back((b << 56) | ((std::uint64_t{1} << 56) - 1));
    us.push_back(~std::uint64_t{0});
    for (const std::uint64_t u : us) {
      if (u < g.tail) continue;
      Script s{{u}};
      ASSERT_EQ(g.draw(s), brute(u)) << "V=" << mult << "H u=" << u;
    }
  }
}

TEST(GapTableTest, TailRedrawAddsTheCap) {
  const GapTable& g = gap_table(100 * kH, kH);
  // Two draws in the tail, then one just at S_3: gap = 2 * cap + 2.
  Script s{{0, g.tail - 1, g.thr[3]}};
  EXPECT_EQ(g.draw(s), 2 * std::uint64_t{g.cap} + 2);
  EXPECT_EQ(s.at, 3u);
  Script top{{}};
  EXPECT_EQ(g.draw(top), 0u);  // u = 2^64 - 1: the next trial survives
}

TEST(GapTableTest, SharedPerRatioAndSamplerCopiesAreCheap) {
  EXPECT_EQ(&gap_table(10 * kH, kH), &gap_table(10 * kH, kH));
  EXPECT_NE(&gap_table(10 * kH, kH), &gap_table(11 * kH, kH));
  EXPECT_THROW((void)GapTable(kH, kH), std::invalid_argument);
  // A copy continues the same stream from the same point.
  BlockSampler a(LatticeMode::kRhhh, 10 * kH, kH, 1, 3);
  (void)a.draw(1000);
  BlockSampler b = a;
  EXPECT_TRUE(picks_by_block(a, 20'000) == picks_by_block(b, 20'000));
}

}  // namespace
}  // namespace rhhh

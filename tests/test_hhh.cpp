// Tests for the HHH algorithms themselves: the conditioned-frequency
// machinery (G(p|P), calcPred), the paper's worked example from Section 3.1,
// MST exactness, RHHH's randomized behaviour (update counting, psi, planted
// heavy hitters, Corollary 6.8), Sampled-MST, the ancestry tries, and
// cross-algorithm agreement.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "eval/ground_truth.hpp"
#include "hhh/conditioned.hpp"
#include "hhh/lattice_hhh.hpp"
#include "hhh/trie_hhh.hpp"
#include "net/ipv4.hpp"
#include "trace/trace_gen.hpp"
#include "util/random.hpp"

namespace rhhh {
namespace {

// ------------------------------------------------------ conditioned ----

/// Reference implementations straight from the definitions, by quadratic
/// scans: G(p|P) scans every member below p and drops those another
/// covered member generalizes; calcPred tests every third member of G
/// against each glb. ConditionedIndex must reproduce them bit for bit.
namespace scan {

std::vector<std::uint32_t> best_generalized(const Hierarchy& h, const Prefix& p,
                                            const HhhSet& P) {
  std::vector<std::uint32_t> covered;
  for (std::uint32_t nd = 0; nd < h.size(); ++nd) {
    if (nd == p.node || !h.node_generalizes(p.node, nd)) continue;
    for (std::uint32_t idx : P.at_node(nd)) {
      const Prefix& q = P[idx].prefix;
      if ((q.key & h.node(p.node).mask) == p.key) covered.push_back(idx);
    }
  }
  std::vector<std::uint32_t> maximal;
  for (std::uint32_t i : covered) {
    bool dominated = false;
    for (std::uint32_t j : covered) {
      if (i != j && h.strictly_generalizes(P[j].prefix, P[i].prefix)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) maximal.push_back(i);
  }
  return maximal;
}

double calc_pred(const Hierarchy& h, const HhhSet& P, const std::vector<std::uint32_t>& g,
                 const UpperEstimate& upper_estimate) {
  double r = 0.0;
  for (std::uint32_t i : g) r -= P[i].f_lo;
  if (h.dims() == 2 && g.size() >= 2) {
    for (std::size_t a = 0; a < g.size(); ++a) {
      for (std::size_t b = a + 1; b < g.size(); ++b) {
        const auto q = h.glb(P[g[a]].prefix, P[g[b]].prefix);
        if (!q.has_value()) continue;
        bool third_covers = false;
        for (std::size_t c = 0; c < g.size() && !third_covers; ++c) {
          third_covers = c != a && c != b && h.generalizes(P[g[c]].prefix, *q);
        }
        if (!third_covers) r += upper_estimate(*q);
      }
    }
  }
  return r;
}

}  // namespace scan

std::vector<std::uint32_t> to_vector(std::span<const std::uint32_t> g) {
  return {g.begin(), g.end()};
}

std::uint64_t bits_of(double d) { return std::bit_cast<std::uint64_t>(d); }

TEST(BestGeneralized, PaperExampleFromDefinition2) {
  // p = <142.14.*>, P = {<142.14.13.*>, <142.14.13.14>}:
  // G(p|P) contains only <142.14.13.*>.
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  ConditionedIndex P(h);
  const Key128 ip = Key128::from_u32(ipv4(142, 14, 13, 14));
  const Prefix p24{h.node_index(1), h.mask_key(h.node_index(1), ip)};
  const Prefix p32{h.node_index(0), ip};
  P.admit(HhhCandidate{p32, 5, 5, 5, 5});
  P.admit(HhhCandidate{p24, 10, 10, 10, 10});
  const Prefix p16{h.node_index(2), h.mask_key(h.node_index(2), ip)};
  const auto g = P.best_generalized(p16);
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(P.members()[g[0]].prefix, p24);
}

TEST(BestGeneralized, UnrelatedPrefixesExcluded) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  ConditionedIndex P(h);
  const Key128 other = Key128::from_u32(ipv4(10, 0, 0, 1));
  P.admit(HhhCandidate{{h.node_index(1), h.mask_key(h.node_index(1), other)}, 1, 1, 1, 1});
  const Key128 ip = Key128::from_u32(ipv4(142, 14, 13, 14));
  const Prefix p16{h.node_index(2), h.mask_key(h.node_index(2), ip)};
  EXPECT_TRUE(P.best_generalized(p16).empty());
}

TEST(BestGeneralized, AdmissionBelowTheLevelReachedThrows) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  ConditionedIndex P(h);
  const Key128 ip = Key128::from_u32(ipv4(142, 14, 13, 14));
  P.admit(HhhCandidate{{h.node_index(1), h.mask_key(h.node_index(1), ip)}, 1, 1, 1, 1});
  EXPECT_THROW(P.admit(HhhCandidate{{h.node_index(0), ip}, 1, 1, 1, 1}),
               std::logic_error);
}

TEST(CalcPred, OneDimensionSubtractsLowerBounds) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  ConditionedIndex P(h);
  const Key128 a = Key128::from_u32(ipv4(142, 14, 1, 1));
  const Key128 b = Key128::from_u32(ipv4(142, 14, 2, 2));
  P.admit(HhhCandidate{{h.node_index(1), h.mask_key(h.node_index(1), a)}, 50, 40, 50, 50});
  P.admit(HhhCandidate{{h.node_index(1), h.mask_key(h.node_index(1), b)}, 30, 25, 30, 30});
  const Prefix p16{h.node_index(2), h.mask_key(h.node_index(2), a)};
  const auto g = P.best_generalized(p16);
  ASSERT_EQ(g.size(), 2u);
  const double r = P.calc_pred(g, [](const Prefix&) { return 1e9; });
  EXPECT_DOUBLE_EQ(r, -(40.0 + 25.0));  // glb add-back never fires in 1D
}

TEST(CalcPred, TwoDimensionGlbAddBack) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  const Key128 full = Key128::from_pair(ipv4(1, 2, 3, 4), ipv4(5, 6, 7, 8));
  ConditionedIndex P(h);
  // Two overlapping members: (1.2.3.4, 5.6.7.*) and (1.2.3.*, 5.6.7.8).
  const Prefix m1{h.node_index(0, 1), h.mask_key(h.node_index(0, 1), full)};
  const Prefix m2{h.node_index(1, 0), h.mask_key(h.node_index(1, 0), full)};
  P.admit(HhhCandidate{m1, 60, 55, 60, 60});
  P.admit(HhhCandidate{m2, 40, 35, 40, 40});
  // Candidate parent (1.2.3.*, 5.6.7.*).
  const Prefix p{h.node_index(1, 1), h.mask_key(h.node_index(1, 1), full)};
  const auto g = P.best_generalized(p);
  ASSERT_EQ(g.size(), 2u);
  // glb(m1, m2) = the fully-specified pair; its upper estimate is 20.
  const double r = P.calc_pred(g, [&](const Prefix& q) {
    EXPECT_EQ(q.node, h.bottom());
    EXPECT_EQ(q.key, full);
    return 20.0;
  });
  EXPECT_DOUBLE_EQ(r, -(55.0 + 35.0) + 20.0);
}

TEST(CalcPred, ThirdElementSuppressesAddBack) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  const Key128 full = Key128::from_pair(ipv4(1, 2, 3, 4), ipv4(5, 6, 7, 8));
  ConditionedIndex P(h);
  // Three members over the same underlying pair at pairwise-incomparable
  // nodes: (0,2) = (1.2.3.4, 5.6.*), (2,0) = (1.2.*, 5.6.7.8) and
  // (1,1) = (1.2.3.*, 5.6.7.*).
  const Prefix m1{h.node_index(0, 2), h.mask_key(h.node_index(0, 2), full)};
  const Prefix m2{h.node_index(2, 0), h.mask_key(h.node_index(2, 0), full)};
  const Prefix m3{h.node_index(1, 1), h.mask_key(h.node_index(1, 1), full)};
  P.admit(HhhCandidate{m1, 60, 50, 60, 60});
  P.admit(HhhCandidate{m2, 40, 30, 40, 40});
  P.admit(HhhCandidate{m3, 20, 10, 20, 20});
  const Prefix p{h.node_index(2, 2), h.mask_key(h.node_index(2, 2), full)};
  const auto g = P.best_generalized(p);
  ASSERT_EQ(g.size(), 3u);
  // glb(m1,m2) = the fully-specified pair, which m3 generalizes -> that pair's
  // add-back is suppressed (Algorithm 3 line 8). glb(m1,m3) = (1.2.3.4,
  // 5.6.7.*) is not generalized by m2; glb(m2,m3) = (1.2.3.*, 5.6.7.8) is not
  // generalized by m1 -> both add back.
  std::vector<Prefix> added;
  const double r = P.calc_pred(g, [&](const Prefix& q) {
    added.push_back(q);
    return 5.0;
  });
  EXPECT_DOUBLE_EQ(r, -(50.0 + 30.0 + 10.0) + 2 * 5.0);
  ASSERT_EQ(added.size(), 2u);
  for (const Prefix& q : added) {
    EXPECT_NE(q, Prefix(h.bottom(), full)) << "suppressed glb was added back";
  }
}

// -------------------------------------- conditioned: differential oracle ----

struct OracleHierarchy {
  const char* name;
  Hierarchy (*make)();
};

const OracleHierarchy kOracleHierarchies[] = {
    {"ipv4_1d_byte", [] { return Hierarchy::ipv4_1d(Granularity::kByte); }},
    {"ipv4_1d_bit", [] { return Hierarchy::ipv4_1d(Granularity::kBit); }},
    {"ipv4_2d_byte", [] { return Hierarchy::ipv4_2d(Granularity::kByte); }},
    {"ipv4_2d_nibble", [] { return Hierarchy::ipv4_2d(Granularity::kNibble); }},
    {"ipv6_1d_nibble", [] { return Hierarchy::ipv6_1d(Granularity::kNibble); }},
};

/// Keys clustered around a few random bases: each shares the prefix of a
/// random node with its base and is random below it, so prefixes at every
/// level overlap -- deep G sets, shadowed members and glb pairs.
class ClusteredKeys {
 public:
  ClusteredKeys(const Hierarchy& h, std::uint64_t seed, int bases) : h_(h), rng_(seed) {
    for (int i = 0; i < bases; ++i) bases_.push_back(random_full());
  }
  Key128 next() {
    const Key128 base = bases_[rng_.bounded(static_cast<std::uint32_t>(bases_.size()))];
    const Key128 keep = h_.node(rng_.bounded(static_cast<std::uint32_t>(h_.size()))).mask;
    return (base & keep) | (random_full() & ~keep);
  }

 private:
  Key128 random_full() {
    return Key128{rng_(), rng_()} & h_.node(h_.bottom()).mask;
  }
  const Hierarchy& h_;
  Xoroshiro128 rng_;
  std::vector<Key128> bases_;
};

/// Deterministic stand-in for a backend's upper estimate.
double fake_upper(const Prefix& q) {
  return static_cast<double>(PrefixHash{}(q) % 100000) / 7.0;
}

/// Random member sets, admitted in level order with a probe of G and
/// calcPred before each admission and at random prefixes of every level in
/// between: same G in the same order, bitwise-equal calcPred, and the same
/// upper-estimate calls in the same order.
TEST(ConditionedOracle, RandomMemberSetsMatchScan) {
  for (const OracleHierarchy& oh : kOracleHierarchies) {
    SCOPED_TRACE(oh.name);
    const Hierarchy h = oh.make();
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      ClusteredKeys keys(h, seed, 3);
      Xoroshiro128 rng(seed * 77);
      std::vector<Prefix> cands;
      FlatHashMap<Prefix, std::uint32_t, PrefixHash> seen(64);
      for (int i = 0; i < 600; ++i) {
        const std::uint32_t node = rng.bounded(static_cast<std::uint32_t>(h.size()));
        const Prefix p{node, h.mask_key(node, keys.next())};
        if (seen.try_emplace(p, 0).second) cands.push_back(p);
      }
      std::stable_sort(cands.begin(), cands.end(), [&](const Prefix& a, const Prefix& b) {
        return h.node(a.node).level < h.node(b.node).level;
      });

      ConditionedIndex index(h);
      HhhSet ref(h.size());
      std::size_t compared = 0;
      std::size_t nonempty = 0;
      const auto check = [&](const Prefix& p) {
        const auto g_ref = scan::best_generalized(h, p, ref);
        const auto g = to_vector(index.best_generalized(p));
        ASSERT_EQ(g, g_ref) << h.format(p);
        std::vector<Prefix> calls_ref;
        std::vector<Prefix> calls;
        const double r_ref = scan::calc_pred(h, ref, g_ref, [&](const Prefix& q) {
          calls_ref.push_back(q);
          return fake_upper(q);
        });
        const double r = index.calc_pred(g, [&](const Prefix& q) {
          calls.push_back(q);
          return fake_upper(q);
        });
        ASSERT_EQ(bits_of(r), bits_of(r_ref)) << h.format(p);
        ASSERT_EQ(calls, calls_ref) << h.format(p);
        ++compared;
        if (g.size() >= 2) ++nonempty;
      };
      for (const Prefix& p : cands) {
        check(p);
        // A probe at a random node, repeated after the admission: a member
        // admitted below an already-queried node must show up in (or
        // shadow members of) that node's next answer.
        const std::uint32_t node = rng.bounded(static_cast<std::uint32_t>(h.size()));
        const Prefix probe{node, h.mask_key(node, keys.next())};
        check(probe);
        if (rng.bounded(10) < 7) {
          const double f = static_cast<double>(rng.bounded(1000000)) / 3.0;
          const HhhCandidate c{p, f, f / 2.0, f, f};
          index.admit(c);
          ref.add(c);
          check(probe);
        }
      }
      ASSERT_EQ(index.members().size(), ref.size());
      EXPECT_GT(nonempty, compared / 20) << "stream too sparse to exercise G";
    }
  }
}

/// Replays Output (Algorithm 1) over an algorithm's candidates in the
/// order output() visits them, with the scans in place of the index.
template <class Visit>
HhhSet scan_output(const Hierarchy& h, double thresh, double corr,
                   const UpperEstimate& upper, Visit&& visit_node) {
  HhhSet P(h.size());
  for (int level = 0; level < h.num_levels(); ++level) {
    for (const std::uint32_t node : h.nodes_at_level(level)) {
      visit_node(node, [&](const Prefix& p, double f_hi, double f_lo) {
        if (f_hi + corr < thresh) return;
        const auto g = scan::best_generalized(h, p, P);
        const double c_hat = f_hi + scan::calc_pred(h, P, g, upper) + corr;
        if (c_hat >= thresh) P.add(HhhCandidate{p, f_hi, f_lo, f_hi, c_hat});
      });
    }
  }
  return P;
}

void expect_bitwise_equal(const Hierarchy& h, const HhhSet& got, const HhhSet& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].prefix, want[i].prefix) << "member " << i;
    ASSERT_EQ(bits_of(got[i].f_est), bits_of(want[i].f_est)) << h.format(got[i].prefix);
    ASSERT_EQ(bits_of(got[i].f_lo), bits_of(want[i].f_lo)) << h.format(got[i].prefix);
    ASSERT_EQ(bits_of(got[i].f_hi), bits_of(want[i].f_hi)) << h.format(got[i].prefix);
    ASSERT_EQ(bits_of(got[i].c_hat), bits_of(want[i].c_hat)) << h.format(got[i].prefix);
  }
}

/// Full LatticeHhh outputs before convergence (N < psi): the sampling slack
/// exceeds theta*N, so every counter is a candidate and nearly every one is
/// admitted -- the regime where Output's cost is largest.
TEST(ConditionedOracle, LatticeOutputBelowPsiMatchesScan) {
  for (const OracleHierarchy& oh : kOracleHierarchies) {
    SCOPED_TRACE(oh.name);
    const Hierarchy h = oh.make();
    LatticeParams lp;
    lp.eps = h.size() > 40 ? 0.1 : 0.05;
    lp.seed = 5;
    RhhhSpaceSaving alg(h, LatticeMode::kRhhh, lp);
    ClusteredKeys keys(h, 11, 4);
    const double n = std::min(60000.0, alg.psi() / 2.0);
    for (int i = 0; i < n; ++i) alg.update(keys.next());
    ASSERT_LT(static_cast<double>(alg.stream_length()), alg.psi());
    const double theta = 0.05;
    const HhhSet got = alg.output(theta);
    const HhhSet want = scan_output(
        h, theta * static_cast<double>(alg.stream_length()), alg.correction(),
        [&](const Prefix& q) { return alg.estimate(q); },
        [&](std::uint32_t node, const auto& visit) {
          alg.instance(node).for_each([&](const Key128& k, std::uint64_t up, std::uint64_t lo) {
            visit(Prefix{node, k}, alg.scale() * static_cast<double>(up),
                  alg.scale() * static_cast<double>(lo));
          });
        });
    EXPECT_GT(want.size(), 100u);
    expect_bitwise_equal(h, got, want);
  }
}

/// The same bar on a trace stream: ipv4_2d byte at the benchmark's own
/// windowed setting (RHHH, eps 0.02, theta 0.05) one quarter into a window.
TEST(ConditionedOracle, LatticeOutputOnTraceBelowPsiMatchesScan) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  LatticeParams lp;
  lp.eps = 0.02;
  lp.delta = 0.001;
  RhhhSpaceSaving alg(h, LatticeMode::kRhhh, lp);
  TraceGenerator gen(trace_preset("chicago16"));
  for (int i = 0; i < 200000; ++i) alg.update(h.key_of(gen.next()));
  ASSERT_LT(static_cast<double>(alg.stream_length()), alg.psi());
  const double theta = 0.05;
  const HhhSet got = alg.output(theta);
  const HhhSet want = scan_output(
      h, theta * static_cast<double>(alg.stream_length()), alg.correction(),
      [&](const Prefix& q) { return alg.estimate(q); },
      [&](std::uint32_t node, const auto& visit) {
        alg.instance(node).for_each([&](const Key128& k, std::uint64_t up, std::uint64_t lo) {
          visit(Prefix{node, k}, alg.scale() * static_cast<double>(up),
                alg.scale() * static_cast<double>(lo));
        });
      });
  EXPECT_GT(want.size(), 1000u);
  expect_bitwise_equal(h, got, want);
}

/// TrieHhh outputs at a low threshold, many members deep: each member's
/// c_hat must equal f_hi + the scans' calcPred over the members admitted
/// before it (the trie's candidate order is internal, so its output is
/// replayed rather than rebuilt).
TEST(ConditionedOracle, TrieOutputMatchesScanReplay) {
  for (const OracleHierarchy& oh : kOracleHierarchies) {
    SCOPED_TRACE(oh.name);
    const Hierarchy h = oh.make();
    for (const AncestryMode mode : {AncestryMode::kFull, AncestryMode::kPartial}) {
      TrieHhh alg(h, mode, 0.01);
      ClusteredKeys keys(h, 13, 4);
      for (int i = 0; i < 40000; ++i) alg.update(keys.next());
      const HhhSet got = alg.output(0.005);
      const double slack = static_cast<double>(alg.epoch() - 1);
      const UpperEstimate upper = [&](const Prefix& q) {
        const double e = alg.estimate(q);
        return e == 0.0 ? slack : e;
      };
      HhhSet ref(h.size());
      for (const HhhCandidate& c : got) {
        const auto g = scan::best_generalized(h, c.prefix, ref);
        const double c_hat = c.f_hi + scan::calc_pred(h, ref, g, upper);
        ASSERT_EQ(bits_of(c.c_hat), bits_of(c_hat)) << h.format(c.prefix);
        ref.add(c);
      }
      EXPECT_GT(got.size(), 10u);
    }
  }
}

// -------------------------------------------- paper example, Section 3.1 ----

/// Builds the Section 3.1 stream: 102 packets spread under 101.102.*.* and
/// 6 under 101.103.*.*, each fully-specified item unique.
std::vector<Key128> paper_example_stream() {
  std::vector<Key128> s;
  for (int i = 0; i < 102; ++i) {
    s.push_back(Key128::from_u32(ipv4(101, 102, static_cast<std::uint8_t>(i), 1)));
  }
  for (int i = 0; i < 6; ++i) {
    s.push_back(Key128::from_u32(ipv4(101, 103, static_cast<std::uint8_t>(i), 1)));
  }
  return s;
}

/// theta*N = 100 with N = 108.
constexpr double kPaperTheta = 100.0 / 108.0;

TEST(PaperExample, MstReturnsOnlyTheDeepHhh) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  LatticeParams lp;
  lp.eps = 0.001;  // plenty of counters: deterministic exact bounds
  RhhhSpaceSaving mst(h, LatticeMode::kMst, lp);
  for (const Key128& k : paper_example_stream()) mst.update(k);
  const HhhSet out = mst.output(kPaperTheta);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(h.format(out[0].prefix), "101.102.*.*");
  // p1 = 101.* has frequency 108 >= 100 but conditioned frequency 6 < 100.
  EXPECT_NEAR(out[0].f_est, 102.0, 1e-9);
}

TEST(PaperExample, TrieAlgorithmsAgree) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  for (const AncestryMode mode : {AncestryMode::kFull, AncestryMode::kPartial}) {
    TrieHhh trie(h, mode, 1e-4);  // window larger than the stream: no pruning
    for (const Key128& k : paper_example_stream()) trie.update(k);
    const HhhSet out = trie.output(kPaperTheta);
    ASSERT_EQ(out.size(), 1u) << to_string(mode);
    EXPECT_EQ(h.format(out[0].prefix), "101.102.*.*") << to_string(mode);
  }
}

TEST(PaperExample, ExactGroundTruthMatches) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  ExactHhh truth(h);
  for (const Key128& k : paper_example_stream()) truth.add(k);
  const HhhSet exact = truth.compute(kPaperTheta);
  ASSERT_EQ(exact.size(), 1u);
  EXPECT_EQ(h.format(exact[0].prefix), "101.102.*.*");
  EXPECT_DOUBLE_EQ(exact[0].f_est, 102.0);
  EXPECT_DOUBLE_EQ(exact[0].c_hat, 102.0);
}

// ----------------------------------------------------------- LatticeHhh ----

TEST(LatticeHhhConfig, Validation) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  LatticeParams lp;
  lp.eps = 0.0;
  EXPECT_THROW(RhhhSpaceSaving(h, LatticeMode::kRhhh, lp), std::invalid_argument);
  lp = {};
  lp.delta = 1.0;
  EXPECT_THROW(RhhhSpaceSaving(h, LatticeMode::kRhhh, lp), std::invalid_argument);
  lp = {};
  lp.V = 3;  // < H = 5
  EXPECT_THROW(RhhhSpaceSaving(h, LatticeMode::kRhhh, lp), std::invalid_argument);
  lp = {};
  lp.r = 0;
  EXPECT_THROW(RhhhSpaceSaving(h, LatticeMode::kRhhh, lp), std::invalid_argument);
  lp = {};
  lp.r = 2;
  EXPECT_THROW(RhhhSpaceSaving(h, LatticeMode::kMst, lp), std::invalid_argument);
}

TEST(LatticeHhhConfig, NamesAndDefaults) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  EXPECT_EQ(make_rhhh(h)->name(), "RHHH");
  EXPECT_EQ(make_10rhhh(h)->name(), "10-RHHH");
  EXPECT_EQ(make_mst(h)->name(), "MST");
  EXPECT_EQ(make_rhhh(h)->V(), 25u);
  EXPECT_EQ(make_10rhhh(h)->V(), 250u);
  LatticeParams lp;
  RhhhSpaceSaving sm(h, LatticeMode::kSampledMst, lp);
  EXPECT_EQ(sm.name(), "Sampled-MST");
}

TEST(LatticeHhhConfig, OverSampleCompensatedCounterCount) {
  // Paper Section 6.1: eps_a = 0.001 with eps_s = 0.001 -> 1001 counters.
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  LatticeParams lp;
  lp.eps = 0.002;  // split: eps_a = eps_s = 0.001
  RhhhSpaceSaving r(h, LatticeMode::kRhhh, lp);
  EXPECT_EQ(r.counters_per_node(), 1001u);
}

TEST(LatticeHhhConfig, PsiFormula) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  LatticeParams lp;
  lp.eps = 0.01;
  lp.delta = 0.003;  // delta_s = 0.001
  RhhhSpaceSaving r(h, LatticeMode::kRhhh, lp);
  const double z = z_value(1.0 - 0.0005);
  EXPECT_NEAR(r.psi(), z * 25.0 / (0.005 * 0.005), 1e-6);
  EXPECT_DOUBLE_EQ(make_mst(h)->psi(), 0.0);
  // Corollary 6.8: r updates converge r times faster.
  lp.r = 4;
  RhhhSpaceSaving r4(h, LatticeMode::kRhhh, lp);
  EXPECT_NEAR(r4.psi(), r.psi() / 4.0, 1e-9);
}

TEST(LatticeHhhUpdate, MstUpdatesEveryNode) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  auto mst = make_mst(h);
  for (int i = 0; i < 100; ++i) mst->update(Key128::from_pair(1, 2));
  EXPECT_EQ(mst->stream_length(), 100u);
  EXPECT_EQ(mst->updates_performed(), 100u * 25u);
  // Every node saw every packet.
  for (std::uint32_t d = 0; d < 25; ++d) {
    EXPECT_EQ(mst->instance(d).total(), 100u) << d;
  }
}

TEST(LatticeHhhUpdate, RhhhUpdatesAtMostOneNode) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  auto r = make_rhhh(h);  // V = H: every packet updates exactly one node
  const int kN = 50000;
  for (int i = 0; i < kN; ++i) r->update(Key128::from_pair(1, 2));
  EXPECT_EQ(r->updates_performed(), static_cast<std::uint64_t>(kN));
  // Each node receives ~N/H updates.
  for (std::uint32_t d = 0; d < 25; ++d) {
    EXPECT_NEAR(static_cast<double>(r->instance(d).total()), kN / 25.0,
                5.0 * std::sqrt(kN / 25.0));
  }
}

TEST(LatticeHhhUpdate, TenRhhhSamplesTenPercent) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  auto r = make_10rhhh(h);
  const int kN = 100000;
  for (int i = 0; i < kN; ++i) r->update(Key128::from_pair(1, 2));
  const double frac = static_cast<double>(r->updates_performed()) / kN;
  EXPECT_NEAR(frac, 0.1, 0.01);
  EXPECT_DOUBLE_EQ(r->scale(), 250.0);
}

TEST(LatticeHhhUpdate, MultiUpdateR) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  LatticeParams lp;
  lp.r = 4;
  RhhhSpaceSaving r(h, LatticeMode::kRhhh, lp);
  const int kN = 20000;
  for (int i = 0; i < kN; ++i) r.update(Key128::from_u32(7));
  // r draws per packet with V = H: expect ~4 updates per packet.
  EXPECT_NEAR(static_cast<double>(r.updates_performed()), 4.0 * kN, 0.02 * 4 * kN);
  EXPECT_DOUBLE_EQ(r.scale(), 5.0 / 4.0);
}

TEST(LatticeHhhUpdate, SampledMstBurstUpdates) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  LatticeParams lp;
  lp.V = 250;
  RhhhSpaceSaving s(h, LatticeMode::kSampledMst, lp);
  const int kN = 100000;
  for (int i = 0; i < kN; ++i) s.update(Key128::from_pair(3, 4));
  // Samples w.p. H/V = 0.1, then updates all 25 nodes.
  EXPECT_NEAR(static_cast<double>(s.updates_performed()), 0.1 * kN * 25,
              0.1 * kN * 25 * 0.1);
  EXPECT_DOUBLE_EQ(s.scale(), 10.0);
}

TEST(LatticeHhhUpdate, WeightedCountsTowardN) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  auto mst = make_mst(h);
  mst->update_weighted(Key128::from_u32(1), 500);
  EXPECT_EQ(mst->stream_length(), 500u);
  EXPECT_EQ(mst->instance(0).upper(Key128::from_u32(1)), 500u);
}

TEST(LatticeHhhUpdate, ClearResets) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  auto r = make_rhhh(h);
  for (int i = 0; i < 1000; ++i) r->update(Key128::from_u32(9));
  r->clear();
  EXPECT_EQ(r->stream_length(), 0u);
  EXPECT_EQ(r->updates_performed(), 0u);
  EXPECT_TRUE(r->output(0.1).empty());
}

TEST(LatticeHhhOutput, EmptyStream) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  EXPECT_TRUE(make_rhhh(h)->output(0.01).empty());
}

/// A planted heavy pair must be reported by every lattice algorithm once
/// past its convergence bound.
class PlantedHeavyHitter : public ::testing::TestWithParam<LatticeMode> {};

TEST_P(PlantedHeavyHitter, IsFound) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  LatticeParams lp;
  lp.eps = 0.05;
  lp.delta = 0.05;
  lp.seed = 99;
  RhhhSpaceSaving alg(h, GetParam(), lp);
  Xoroshiro128 rng(123);
  const Key128 hot = Key128::from_pair(ipv4(10, 1, 2, 3), ipv4(99, 5, 6, 7));
  const int kN = 400000;
  for (int i = 0; i < kN; ++i) {
    if (rng.bounded(10) < 3) {
      alg.update(hot);
    } else {
      alg.update(Key128::from_pair(rng(), static_cast<std::uint32_t>(rng())));
    }
  }
  const HhhSet out = alg.output(0.2);
  // The fully-specified hot pair (30% of traffic) must appear.
  bool found = false;
  for (const HhhCandidate& c : out) {
    if (c.prefix.key == hot && c.prefix.node == h.bottom()) found = true;
  }
  EXPECT_TRUE(found) << to_string(GetParam()) << " returned " << out.size()
                     << " prefixes";
}

INSTANTIATE_TEST_SUITE_P(Modes, PlantedHeavyHitter,
                         ::testing::Values(LatticeMode::kRhhh, LatticeMode::kMst,
                                           LatticeMode::kSampledMst),
                         [](const auto& info) {
                           return std::string(to_string(info.param)) == "Sampled-MST"
                                      ? "SampledMst"
                                      : std::string(to_string(info.param));
                         });

TEST(LatticeHhhOutput, MstMatchesExactTruthOnSmallStream) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  LatticeParams lp;
  lp.eps = 0.001;  // capacity far above distinct keys: exact counting
  RhhhSpaceSaving mst(h, LatticeMode::kMst, lp);
  ExactHhh truth(h);
  TraceGenerator gen(trace_preset("chicago16"));
  for (int i = 0; i < 20000; ++i) {
    const PacketRecord p = gen.next();
    const Key128 k = h.key_of(p);
    mst.update(k);
    truth.add(k);
  }
  const double theta = 0.05;
  const HhhSet approx = mst.output(theta);
  const HhhSet exact = truth.compute(theta);
  // With exact per-node counts MST's conservative output must contain every
  // exact HHH (coverage) -- and here bounds are tight, so the sets coincide.
  for (const HhhCandidate& c : exact) {
    EXPECT_TRUE(approx.contains(c.prefix)) << h.format(c.prefix);
  }
  for (const HhhCandidate& c : approx) {
    EXPECT_TRUE(exact.contains(c.prefix)) << h.format(c.prefix);
  }
}

// --------------------------------------------------------------- merge ----

TEST(LatticeMerge, MismatchedConfigurationsThrow) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  LatticeParams lp;
  RhhhSpaceSaving base(h, LatticeMode::kRhhh, lp);

  LatticeParams lp_v = lp;
  lp_v.V = 250;  // unequal V: per-node estimates would not share a scale
  RhhhSpaceSaving other_v(h, LatticeMode::kRhhh, lp_v);
  EXPECT_FALSE(base.mergeable_with(other_v));
  EXPECT_THROW(base.merge(other_v), std::invalid_argument);

  RhhhSpaceSaving other_mode(h, LatticeMode::kMst, lp);
  EXPECT_THROW(base.merge(other_mode), std::invalid_argument);

  LatticeParams lp_r = lp;
  lp_r.r = 2;
  RhhhSpaceSaving other_r(h, LatticeMode::kRhhh, lp_r);
  EXPECT_THROW(base.merge(other_r), std::invalid_argument);

  const Hierarchy h1 = Hierarchy::ipv4_2d(Granularity::kNibble);
  RhhhSpaceSaving other_h(h1, LatticeMode::kRhhh, lp);
  EXPECT_THROW(base.merge(other_h), std::invalid_argument);

  // Differing seeds are explicitly allowed (that is how shards are built).
  LatticeParams lp_s = lp;
  lp_s.seed = 777;
  RhhhSpaceSaving other_s(h, LatticeMode::kRhhh, lp_s);
  EXPECT_TRUE(base.mergeable_with(other_s));
}

TEST(LatticeMerge, StreamLengthsAndUpdatesAdd) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  LatticeParams lp;
  RhhhSpaceSaving a(h, LatticeMode::kMst, lp);
  RhhhSpaceSaving b(h, LatticeMode::kMst, lp);
  for (int i = 0; i < 100; ++i) a.update(Key128::from_u32(ipv4(1, 2, 3, 4)));
  for (int i = 0; i < 250; ++i) b.update(Key128::from_u32(ipv4(1, 2, 3, 4)));
  a.merge(b);
  EXPECT_EQ(a.stream_length(), 350u);
  EXPECT_EQ(a.updates_performed(), 350u * h.size());
  EXPECT_EQ(a.instance(0).upper(Key128::from_u32(ipv4(1, 2, 3, 4))), 350u);
}

/// Merging k disjoint sub-streams (of very unequal lengths) must satisfy
/// the same accuracy and coverage bounds as one instance over the union:
/// every exact HHH of the union covered, and every point estimate within
/// eps_a * N + correction() of the truth, with N the merged stream length.
TEST(LatticeMerge, DisjointSubstreamsMatchUnionBounds) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  LatticeParams lp;
  lp.eps = 0.02;
  lp.delta = 0.05;

  // Unequal split of a 300k-packet stream: 60% / 30% / 10%.
  constexpr int kN = 300000;
  const char* presets[3] = {"chicago16", "chicago15", "sanjose13"};
  const int share[3] = {180000, 90000, 30000};

  ExactHhh truth(h);
  RhhhSpaceSaving union_alg(h, LatticeMode::kRhhh, lp);
  std::vector<std::unique_ptr<RhhhSpaceSaving>> parts;
  for (int s = 0; s < 3; ++s) {
    LatticeParams lps = lp;
    lps.seed = static_cast<std::uint64_t>(s + 10);
    parts.push_back(
        std::make_unique<RhhhSpaceSaving>(h, LatticeMode::kRhhh, lps));
    TraceGenerator gen(trace_preset(presets[s]));
    for (int i = 0; i < share[s]; ++i) {
      const Key128 k = h.key_of(gen.next());
      truth.add(k);
      union_alg.update(k);
      parts[static_cast<std::size_t>(s)]->update(k);
    }
  }

  RhhhSpaceSaving merged(h, LatticeMode::kRhhh, lp);
  for (const auto& part : parts) merged.merge(*part);
  ASSERT_EQ(merged.stream_length(), static_cast<std::uint64_t>(kN));
  ASSERT_EQ(merged.stream_length(), union_alg.stream_length());
  // Same configuration => identical additive slack.
  ASSERT_DOUBLE_EQ(merged.correction(), union_alg.correction());

  const double theta = 0.1;
  const HhhSet exact = truth.compute(theta);
  ASSERT_GT(exact.size(), 0u);
  const double bound = merged.eps_a() * kN + merged.correction();

  const HhhSet merged_out = merged.output(theta);
  const HhhSet union_out = union_alg.output(theta);
  for (const HhhCandidate& c : exact) {
    // Coverage: both the merged and the union instance report (or refine)
    // every exact HHH...
    for (const HhhSet* out : {&merged_out, &union_out}) {
      bool covered = out->contains(c.prefix);
      if (!covered) {
        for (const HhhCandidate& o : *out) {
          if (h.generalizes(c.prefix, o.prefix) ||
              h.generalizes(o.prefix, c.prefix)) {
            covered = true;
            break;
          }
        }
      }
      EXPECT_TRUE(covered) << (out == &merged_out ? "merged" : "union")
                           << " missing " << h.format(c.prefix);
    }
    // ... and the merged point estimates obey the union instance's
    // accuracy bound around the exact count.
    EXPECT_NEAR(merged.estimate(c.prefix), c.f_est, bound)
        << h.format(c.prefix);
  }
}

TEST(LatticeMerge, SketchBackendsAreMergeable) {
  // The linear sketches gained element-wise merge: sketch-backed lattices
  // are no longer rejected at compile time...
  static_assert(LatticeHhh<CountMinHh<Key128>>::backend_mergeable());
  static_assert(LatticeHhh<CountSketchHh<Key128>>::backend_mergeable());
  static_assert(LatticeHhh<SpaceSaving<Key128>>::backend_mergeable());
  // ... while the windowed/exact backends stay non-mergeable.
  static_assert(!LatticeHhh<MisraGries<Key128>>::backend_mergeable());
  static_assert(!LatticeHhh<LossyCounting<Key128>>::backend_mergeable());
  static_assert(!LatticeHhh<ExactCounter<Key128>>::backend_mergeable());
}

TEST(LatticeMerge, CountMinShardsMergeWithPinnedBackendSeed) {
  // Shard-style deployment of a Count-Min-backed lattice: every shard pins
  // the same backend_seed (identical hash rows, the element-wise merge
  // precondition) while drawing an independent sampling stream per shard.
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  LatticeParams lp;
  lp.eps = 0.02;
  lp.delta = 0.05;
  lp.backend_seed = 4242;
  LatticeHhh<CountMinHh<Key128>> a(h, LatticeMode::kMst, lp);
  LatticeParams lp_b = lp;
  lp_b.seed = 777;  // different sampling seed, same sketch hashes
  LatticeHhh<CountMinHh<Key128>> b(h, LatticeMode::kMst, lp_b);
  ASSERT_TRUE(a.mergeable_with(b));

  const Key128 hot = Key128::from_u32(ipv4(10, 1, 2, 3));
  for (int i = 0; i < 4000; ++i) a.update(hot);
  for (int i = 0; i < 2000; ++i) b.update(hot);
  Xoroshiro128 rng(3);
  for (int i = 0; i < 2000; ++i) {
    b.update(Key128::from_u32(static_cast<std::uint32_t>(rng())));
  }
  a.merge(b);
  EXPECT_EQ(a.stream_length(), 8000u);
  // MST + Count-Min: estimate never underestimates and stays within the
  // sketch's eps_a * N over the merged stream.
  const Prefix p{h.bottom(), hot};
  EXPECT_GE(a.estimate(p), 6000.0);
  EXPECT_LE(a.estimate(p), 6000.0 + a.eps_a() * 8000.0 + 1.0);
  EXPECT_TRUE(a.output(0.5).contains(p));
}

TEST(LatticeMerge, SketchShardsWithoutPinnedSeedThrow) {
  // Without backend_seed pinning the per-shard hash rows differ, and the
  // backend's dimension/seed check must reject the element-wise merge even
  // though the lattice-level parameters look compatible.
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  LatticeParams lp;
  LatticeHhh<CountSketchHh<Key128>> a(h, LatticeMode::kMst, lp);
  LatticeParams lp_b = lp;
  lp_b.seed = 999;
  LatticeHhh<CountSketchHh<Key128>> b(h, LatticeMode::kMst, lp_b);
  ASSERT_TRUE(a.mergeable_with(b));  // lattice params agree...
  a.update(Key128::from_u32(ipv4(1, 2, 3, 4)));
  b.update(Key128::from_u32(ipv4(1, 2, 3, 4)));
  EXPECT_THROW(a.merge(b), std::invalid_argument);  // ...hash rows do not
}

TEST(LatticeMerge, CountSketchShardsMergeEstimates) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  LatticeParams lp;
  lp.eps = 0.04;
  lp.delta = 0.05;
  lp.backend_seed = 17;
  LatticeHhh<CountSketchHh<Key128>> a(h, LatticeMode::kMst, lp);
  LatticeParams lp_b = lp;
  lp_b.seed = 31;
  LatticeHhh<CountSketchHh<Key128>> b(h, LatticeMode::kMst, lp_b);
  const Key128 hot = Key128::from_u32(ipv4(10, 1, 2, 3));
  for (int i = 0; i < 3000; ++i) a.update(hot);
  for (int i = 0; i < 1000; ++i) b.update(hot);
  a.merge(b);
  EXPECT_EQ(a.stream_length(), 4000u);
  const Prefix p{h.bottom(), hot};
  EXPECT_NEAR(a.estimate(p), 4000.0, a.eps_a() * 4000.0 + 1.0);
}

// ------------------------------------------------------------- TrieHhh ----

TEST(TrieHhhTest, Validation) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  EXPECT_THROW(TrieHhh(h, AncestryMode::kFull, 0.0), std::invalid_argument);
  EXPECT_THROW(TrieHhh(h, AncestryMode::kFull, 1.0), std::invalid_argument);
}

TEST(TrieHhhTest, RootAlwaysTracked) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  TrieHhh t(h, AncestryMode::kFull, 0.01);
  EXPECT_EQ(t.tracked_nodes(), 1u);
  t.update(Key128::from_u32(ipv4(1, 2, 3, 4)));
  EXPECT_GT(t.tracked_nodes(), 1u);
}

TEST(TrieHhhTest, EstimateIndexKeepsLossyCountingBounds) {
  // estimate() now answers from a lazily rebuilt per-prefix mass index;
  // interleave updates (which dirty the index), compressions and probes,
  // and check every probe against the exact stream counts. Tracked mass
  // never exceeds the true count, so estimate <= f + slack everywhere. On
  // the 1D chain (every lattice node on the canonical chain) full
  // ancestry additionally keeps the classic lossy-counting guarantee: a
  // nonzero estimate upper-bounds f, a zero one means f <= slack. (2D
  // off-chain aggregates can undercount past the slack when compression
  // folds mass to a canonical parent outside their cone -- the documented
  // adaptation caveat, same as output()'s f_hi.)
  for (const bool one_dim : {true, false}) {
    const Hierarchy h = one_dim ? Hierarchy::ipv4_1d(Granularity::kByte)
                                : Hierarchy::ipv4_2d(Granularity::kByte);
    for (const AncestryMode mode : {AncestryMode::kFull, AncestryMode::kPartial}) {
      TrieHhh t(h, mode, 0.02);
      TraceGenerator gen(trace_preset("chicago16"));
      Xoroshiro128 rng(11);
      FlatHashMap<Key128, std::uint64_t, KeyHash<Key128>> exact(1 << 12);
      std::vector<Key128> seen;
      for (int round = 0; round < 6; ++round) {
        for (int i = 0; i < 2000; ++i) {
          const Key128 k = h.key_of(gen.next());
          t.update(k);
          ++exact[k];
          if (seen.size() < 64) seen.push_back(k);
        }
        ASSERT_TRUE(t.validate());
        const double slack = static_cast<double>(t.epoch() - 1);
        for (int probe = 0; probe < 24; ++probe) {
          const Key128 k =
              seen[rng.bounded(static_cast<std::uint32_t>(seen.size()))];
          const auto node = static_cast<std::uint32_t>(
              rng.bounded(static_cast<std::uint32_t>(h.size())));
          const Prefix p{node, h.mask_key(node, k)};
          std::uint64_t f = 0;  // exact mass of p over the stream so far
          exact.for_each([&](const Key128& key, const std::uint64_t& c) {
            if (h.mask_key(node, key) == p.key) f += c;
          });
          const double est = t.estimate(p);
          EXPECT_LE(est, static_cast<double>(f) + slack)
              << to_string(mode) << " " << h.format(p);
          if (one_dim && mode == AncestryMode::kFull) {
            if (est > 0.0) {
              EXPECT_GE(est, static_cast<double>(f)) << h.format(p);
            } else {
              EXPECT_LE(static_cast<double>(f), slack) << h.format(p);
            }
          }
        }
      }
    }
  }
}

TEST(TrieHhhTest, FullAncestryTracksWholePath) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  TrieHhh t(h, AncestryMode::kFull, 1e-4);
  t.update(Key128::from_u32(ipv4(1, 2, 3, 4)));
  // Root + the 4 prefix nodes of the chain.
  EXPECT_EQ(t.tracked_nodes(), 5u);
  TrieHhh p(h, AncestryMode::kPartial, 1e-4);
  p.update(Key128::from_u32(ipv4(1, 2, 3, 4)));
  EXPECT_EQ(p.tracked_nodes(), 2u);  // root + one lazily expanded node (1.*)
  p.update(Key128::from_u32(ipv4(1, 2, 3, 4)));
  EXPECT_EQ(p.tracked_nodes(), 3u);  // the path grows one level per arrival
}

TEST(TrieHhhTest, CompressionBoundsState) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  TrieHhh t(h, AncestryMode::kPartial, 0.01);  // window 100
  Xoroshiro128 rng(5);
  for (int i = 0; i < 50000; ++i) {
    t.update(Key128::from_u32(static_cast<std::uint32_t>(rng())));  // all noise
  }
  EXPECT_GT(t.compressions(), 0u);
  // Lossy-counting style space bound: O(levels/eps).
  EXPECT_LT(t.tracked_nodes(), 5u * 100u * 4u);
}

TEST(TrieHhhTest, MassConservedUnderCompression) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  TrieHhh t(h, AncestryMode::kFull, 0.02);
  Xoroshiro128 rng(6);
  const int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    t.update(Key128::from_u32(static_cast<std::uint32_t>(rng.bounded(1000) * 7919)));
  }
  // The root's subtree total (all g) must equal N: compression rolls mass up
  // but never loses it. Query via output at theta=0: root's f_lo covers all.
  const HhhSet all = t.output(0.0);
  double root_flo = -1;
  for (const HhhCandidate& c : all) {
    if (c.prefix.node == h.top()) root_flo = c.f_lo;
  }
  ASSERT_GE(root_flo, 0.0) << "root must be in a theta=0 output";
  EXPECT_DOUBLE_EQ(root_flo, static_cast<double>(kN));
}

TEST(TrieHhhTest, PlantedHeavyHitterFound2D) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  for (const AncestryMode mode : {AncestryMode::kFull, AncestryMode::kPartial}) {
    TrieHhh t(h, mode, 0.01);
    Xoroshiro128 rng(7);
    const Key128 hot = Key128::from_pair(ipv4(10, 1, 2, 3), ipv4(99, 5, 6, 7));
    for (int i = 0; i < 100000; ++i) {
      if (rng.bounded(10) < 3) {
        t.update(hot);
      } else {
        t.update(Key128::from_pair(rng(), static_cast<std::uint32_t>(rng())));
      }
    }
    const HhhSet out = t.output(0.2);
    bool covered = false;
    for (const HhhCandidate& c : out) {
      if (h.generalizes(c.prefix, Prefix{h.bottom(), hot})) covered = true;
    }
    EXPECT_TRUE(covered) << to_string(mode);
  }
}

TEST(TrieHhhTest, ClearResets) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  TrieHhh t(h, AncestryMode::kFull, 0.01);
  for (int i = 0; i < 5000; ++i) t.update(Key128::from_u32(42));
  t.clear();
  EXPECT_EQ(t.stream_length(), 0u);
  EXPECT_EQ(t.tracked_nodes(), 1u);
  EXPECT_TRUE(t.output(0.5).empty());
}

// ------------------------------------------------- cross-algorithm ----

/// All five algorithms on the same skewed stream: every exact HHH must be
/// covered (itself or refined) in every algorithm's output at a threshold
/// comfortably above the noise floor.
TEST(CrossAlgorithm, AllAlgorithmsCoverExactHhhs) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  const auto packets = [&] {
    std::vector<Key128> keys;
    TraceGenerator g2(trace_preset("sanjose14"));
    keys.reserve(300000);
    for (int i = 0; i < 300000; ++i) keys.push_back(h.key_of(g2.next()));
    return keys;
  }();

  ExactHhh truth(h);
  for (const Key128& k : packets) truth.add(k);
  const double theta = 0.1;
  const HhhSet exact = truth.compute(theta);
  ASSERT_GT(exact.size(), 0u);

  LatticeParams lp;
  lp.eps = 0.02;
  lp.delta = 0.05;
  std::vector<std::unique_ptr<HhhAlgorithm>> algs;
  algs.push_back(std::make_unique<RhhhSpaceSaving>(h, LatticeMode::kRhhh, lp));
  algs.push_back(std::make_unique<RhhhSpaceSaving>(h, LatticeMode::kMst, lp));
  algs.push_back(std::make_unique<TrieHhh>(h, AncestryMode::kFull, lp.eps));
  algs.push_back(std::make_unique<TrieHhh>(h, AncestryMode::kPartial, lp.eps));

  for (auto& alg : algs) {
    for (const Key128& k : packets) alg->update(k);
    const HhhSet out = alg->output(theta);
    for (const HhhCandidate& c : exact) {
      bool covered = out.contains(c.prefix);
      // Approximate algorithms may return a descendant that claims the mass;
      // accept any output member generalized by the exact prefix as well.
      if (!covered) {
        for (const HhhCandidate& o : out) {
          if (h.generalizes(c.prefix, o.prefix) ||
              h.generalizes(o.prefix, c.prefix)) {
            covered = true;
            break;
          }
        }
      }
      EXPECT_TRUE(covered) << alg->name() << " missing " << h.format(c.prefix);
    }
  }
}

}  // namespace
}  // namespace rhhh

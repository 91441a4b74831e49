// Workload table, seeded input generation, exact reference answers and the
// answer checks / steady-state guards built on them.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "net/ipv4.hpp"
#include "trace/trace_gen.hpp"
#include "util/bits.hpp"
#include "util/flat_hash_map.hpp"
#include "util/random.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace rhhh;

namespace {

/// Finite-sample margin on top of delta for the randomized ratio checks,
/// the same kMargin tests/test_conformance.cpp uses.
constexpr double kMargin = 0.08;

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  // Sizes keep N = base * passes above psi (Theorem 6.17) for every answer
  // the workload checks: psi = 3.6e7 for 10-RHHH at eps 0.01, 1.4e7 for RHHH
  // at eps 0.005, and 9.0e5 per window for RHHH at eps 0.02.
  static const std::vector<WorkloadSpec> kAll = {
      {"ingest_10rhhh", Kind::kIngest, "chicago16", AlgorithmKind::kTenRhhh, 0.01,
       0.02, false, std::size_t{4} << 20, 40, 2, kDefaultRing, 3},
      {"ingest_rhhh", Kind::kIngest, "sanjose14", AlgorithmKind::kRhhh, 0.005, 0.02,
       true, std::size_t{4} << 20, 8, 2, kDefaultRing, 3},
      // Small rings bound how many packets can sit on the wrong side of a
      // cooperative window boundary, which the per-window checks allow for.
      {"windowed_trend", Kind::kWindowed, "chicago16", AlgorithmKind::kRhhh, 0.02,
       0.05, false, std::size_t{2} << 20, 9, 2, std::size_t{1} << 10, 3},
  };
  return kAll;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

MonitorConfig monitor_config(const WorkloadSpec& w, std::uint64_t seed) {
  MonitorConfig mc;
  mc.hierarchy = HierarchyKind::kIpv4TwoDimBytes;
  mc.algorithm = w.algorithm;
  mc.eps = w.eps;
  mc.delta = kDelta;
  mc.seed = seed;
  return mc;
}

Inputs make_inputs(const WorkloadSpec& w, const Hierarchy& h, std::uint64_t seed) {
  const std::int64_t t0 = now_ns();
  Inputs in;
  TraceConfig tc = trace_preset(w.trace);
  tc.seed = seed;  // the workload seed replaces the preset's
  TraceGenerator gen(tc);
  in.records = gen.generate(w.base_packets);
  in.keys.reserve(in.records.size());
  for (const PacketRecord& p : in.records) in.keys.push_back(h.key_of(p));
  in.total = static_cast<std::uint64_t>(w.base_packets) * w.passes;
  if (w.kind == Kind::kWindowed) {
    const Ipv4 attack_net = ipv4(66, 66, 0, 0);
    const Ipv4 victim = ipv4(203, 0, 113, 9);
    in.burst_start = in.total * 6 / 10;
    in.attack_bottom = Prefix{h.bottom(), Key128::from_pair(attack_net | 0x0102u, victim)};
    Xoroshiro128 rng(mix64(seed ^ 0xb0b5ULL));
    in.burst_keys = in.keys;
    for (Key128& k : in.burst_keys) {
      if (rng.bounded(10) < 3) k = Key128::from_pair(attack_net | rng.bounded(1 << 16), victim);
    }
  }
  in.generate_s = seconds_since(t0);
  return in;
}

namespace {

/// Distinct keys with their (unweighted) counts, in key order.
using Counts = std::vector<std::pair<Key128, std::uint64_t>>;

/// Counts by sorting: sequential and cache friendly, unlike hashing
/// millions of arrivals into a table larger than the caches.
Counts count_keys(std::vector<Key128> keys) {
  std::sort(keys.begin(), keys.end());
  Counts out;
  for (std::size_t i = 0; i < keys.size();) {
    std::size_t j = i + 1;
    while (j < keys.size() && keys[j] == keys[i]) ++j;
    out.emplace_back(keys[i], j - i);
    i = j;
  }
  return out;
}

Reference derive_reference(const Hierarchy& h, const Counts& counts, std::uint64_t weight,
                           double theta, std::size_t distinct_cap) {
  Reference ref;
  ref.truth = std::make_unique<ExactHhh>(h);
  for (const auto& [k, c] : counts) ref.truth->add(k, c * weight);
  ref.exact_set = ref.truth->compute(theta);
  ref.heavy = ref.truth->heavy_prefixes(theta);
  ref.distinct.assign(h.size(), 0);
  for (std::uint32_t node = 0; node < h.size(); ++node) {
    FlatHashMap<Key128, std::uint8_t> seen(1 << 10);
    for (const auto& kc : counts) {
      seen.insert_or_assign(h.mask_key(node, kc.first), 1);
      if (seen.size() >= distinct_cap) break;
    }
    ref.distinct[node] = seen.size();
  }
  return ref;
}

// -- on-disk cache of a whole-stream reference --------------------------------
// Layout (native endian, written and read by this build only): magic, then
// counts (key.hi, key.lo, count), the exact HHH set (node, key, f, c_hat,
// all unweighted), the heavy prefixes (node, key) and per-node distinct
// counts, each array prefixed by its length.
constexpr std::uint64_t kCacheMagic = 0x70666272656631ULL;  // "pfbref1"

struct File {
  std::FILE* f;
  ~File() {
    if (f != nullptr) std::fclose(f);
  }
};

template <class T>
void put(std::FILE* f, T v) {
  std::fwrite(&v, sizeof v, 1, f);
}

template <class T>
bool get(std::FILE* f, T& v) {
  return std::fread(&v, sizeof v, 1, f) == 1;
}

void save_reference(const std::string& path, const Counts& counts, const Reference& ref,
                    std::uint64_t weight) {
  const std::string tmp = path + ".tmp";
  {
    File out{std::fopen(tmp.c_str(), "wb")};
    if (out.f == nullptr) return;
    put(out.f, kCacheMagic);
    put(out.f, std::uint64_t{counts.size()});
    for (const auto& [k, c] : counts) {
      put(out.f, k.hi);
      put(out.f, k.lo);
      put(out.f, c);
    }
    put(out.f, std::uint64_t{ref.exact_set.size()});
    for (const HhhCandidate& c : ref.exact_set) {
      put(out.f, c.prefix.node);
      put(out.f, c.prefix.key.hi);
      put(out.f, c.prefix.key.lo);
      put(out.f, c.f_est / static_cast<double>(weight));
      put(out.f, c.c_hat / static_cast<double>(weight));
    }
    put(out.f, std::uint64_t{ref.heavy.size()});
    for (const Prefix& p : ref.heavy) {
      put(out.f, p.node);
      put(out.f, p.key.hi);
      put(out.f, p.key.lo);
    }
    put(out.f, std::uint64_t{ref.distinct.size()});
    for (const std::size_t d : ref.distinct) put(out.f, std::uint64_t{d});
    if (std::fflush(out.f) != 0) return;
  }
  std::rename(tmp.c_str(), path.c_str());
}

bool load_reference(const std::string& path, const Hierarchy& h, std::uint64_t weight,
                    Reference& ref) {
  File in{std::fopen(path.c_str(), "rb")};
  if (in.f == nullptr) return false;
  std::uint64_t magic = 0;
  std::uint64_t n = 0;
  if (!get(in.f, magic) || magic != kCacheMagic || !get(in.f, n)) return false;
  ref.truth = std::make_unique<ExactHhh>(h);
  for (std::uint64_t i = 0; i < n; ++i) {
    Key128 k;
    std::uint64_t c = 0;
    if (!get(in.f, k.hi) || !get(in.f, k.lo) || !get(in.f, c)) return false;
    ref.truth->add(k, c * weight);
  }
  if (!get(in.f, n)) return false;
  ref.exact_set = HhhSet(h.size());
  for (std::uint64_t i = 0; i < n; ++i) {
    HhhCandidate c;
    if (!get(in.f, c.prefix.node) || !get(in.f, c.prefix.key.hi) ||
        !get(in.f, c.prefix.key.lo) || !get(in.f, c.f_est) || !get(in.f, c.c_hat)) {
      return false;
    }
    if (c.prefix.node >= h.size()) return false;
    c.f_est *= static_cast<double>(weight);
    c.c_hat *= static_cast<double>(weight);
    c.f_lo = c.f_hi = c.f_est;
    ref.exact_set.add(c);
  }
  if (!get(in.f, n)) return false;
  ref.heavy.resize(static_cast<std::size_t>(n));
  for (Prefix& p : ref.heavy) {
    if (!get(in.f, p.node) || !get(in.f, p.key.hi) || !get(in.f, p.key.lo)) return false;
  }
  if (!get(in.f, n) || n != h.size()) return false;
  ref.distinct.resize(static_cast<std::size_t>(n));
  for (std::size_t& d : ref.distinct) {
    std::uint64_t v = 0;
    if (!get(in.f, v)) return false;
    d = static_cast<std::size_t>(v);
  }
  return true;
}

}  // namespace

Reference build_reference(const Hierarchy& h, const Inputs& in, std::uint64_t from,
                          std::uint64_t to, double theta, std::size_t distinct_cap) {
  std::vector<Key128> slice;
  slice.reserve(static_cast<std::size_t>(to - from));
  for (std::uint64_t p = from; p < to; ++p) slice.push_back(key_at(in, p));
  return derive_reference(h, count_keys(std::move(slice)), 1, theta, distinct_cap);
}

Reference stream_reference(const Hierarchy& h, const WorkloadSpec& w, const Inputs& in,
                           std::uint64_t seed, std::size_t distinct_cap,
                           const std::string& cache_dir) {
  // The stream is `passes` replays of the base keys: count one pass and
  // weight it. Uniform weights leave the exact HHH set, the heavy prefixes
  // and the distinct counts unchanged, so one cache entry serves every
  // workload replaying the same base stream.
  char name[160];
  std::snprintf(name, sizeof name, "/ref-%.*s-s%llu-n%zu-t%g-c%zu.bin",
                static_cast<int>(w.trace.size()), w.trace.data(),
                static_cast<unsigned long long>(seed), in.keys.size(), w.theta, distinct_cap);
  const std::string path = cache_dir + name;
  Reference ref;
  if (load_reference(path, h, w.passes, ref)) return ref;
  const Counts counts = count_keys(in.keys);
  ref = derive_reference(h, counts, w.passes, w.theta, distinct_cap);
  save_reference(path, counts, ref, w.passes);
  return ref;
}

AnswerCheck check_answer(const Reference& ref, const HhhSet& out,
                         const RhhhSpaceSaving& alg, double theta, double slack) {
  AnswerCheck c;
  const auto N = static_cast<double>(alg.stream_length());
  c.converged = N > alg.psi();
  c.candidates = out.size();

  std::vector<Prefix> prefixes;
  prefixes.reserve(out.size());
  for (const HhhCandidate& cand : out) prefixes.push_back(cand.prefix);
  const std::vector<std::uint64_t> exact = ref.truth->frequencies(prefixes);
  const double bound = alg.eps_a() * N + alg.correction() + slack;
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    if (std::fabs(out[i].f_est - static_cast<double>(exact[i])) > bound) {
      ++c.accuracy_violations;
    }
    if (!ref.exact_set.contains(prefixes[i])) ++c.false_positives;
  }

  std::vector<Prefix> missing;
  for (const Prefix& q : ref.heavy) {
    if (!out.contains(q)) missing.push_back(q);
  }
  c.coverage_candidates = missing.size();
  if (!missing.empty()) {
    const std::vector<std::uint64_t> cond = ref.truth->conditioned(missing, out);
    const double thresh = theta * static_cast<double>(ref.truth->stream_length());
    for (const std::uint64_t ci : cond) {
      if (static_cast<double>(ci) - slack >= thresh) ++c.coverage_misses;
    }
  }

  const auto ratio = [](std::size_t bad, std::size_t all) {
    return all == 0 ? 0.0 : static_cast<double>(bad) / static_cast<double>(all);
  };
  c.pass = c.candidates > 0 &&
           ratio(c.accuracy_violations, c.candidates) <= kDelta + kMargin &&
           ratio(c.coverage_misses, c.coverage_candidates) <= kDelta + kMargin;
  return c;
}

GuardResult steady_guard(const std::vector<BackendProbe>& probes,
                         const std::vector<std::size_t>& distinct,
                         std::size_t eligible_factor) {
  GuardResult g;
  for (std::size_t node = 0; node < probes.size(); ++node) {
    const BackendProbe& p = probes[node];
    if (distinct[node] < eligible_factor * p.capacity) continue;
    ++g.eligible;
    if (p.occupancy == p.capacity && p.evictions > 0) ++g.steady;
  }
  return g;
}

std::uint64_t answer_digest(const HhhSet& out) {
  std::uint64_t d = out.size();
  for (const HhhCandidate& c : out) {
    d += mix64(c.prefix.key.lo ^ rotl64(c.prefix.key.hi, 17) ^
               mix64(c.prefix.node ^ std::bit_cast<std::uint64_t>(c.f_est)));
  }
  return d;
}

std::uint64_t rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

void trim_heap() { malloc_trim(0); }

}  // namespace perfbench

#include "hhh/block_sampler.hpp"

#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace rhhh {

namespace {

/// floor(S * (V-H) / V) for S = a*V + b (0 <= b < V): a*(V-H) <= S and
/// b*(V-H) < 2^64, so no step overflows.
std::uint64_t shrink(std::uint64_t a, std::uint64_t b, std::uint64_t V,
                     std::uint64_t keep) noexcept {
  return a * keep + b * keep / V;
}

}  // namespace

GapTable::GapTable(std::uint32_t V, std::uint32_t H) {
  if (H == 0 || V <= H) throw std::invalid_argument("GapTable: requires 0 < H < V");
  const std::uint64_t v = V;
  const std::uint64_t keep = V - H;
  thr.reserve(kMaxCap + 1);
  thr.push_back(~std::uint64_t{0});  // stands for S_0 = 2^64; never compared
  // S_1 from S_0 = 2^64 = a*V + b.
  std::uint64_t a = ~std::uint64_t{0} / v;
  std::uint64_t b = ~std::uint64_t{0} % v + 1;
  if (b == v) {
    ++a;
    b = 0;
  }
  std::uint64_t s = shrink(a, b, v, keep);
  thr.push_back(s);
  constexpr std::uint64_t kGuideSpan = std::uint64_t{1} << 56;
  while (s >= kGuideSpan && thr.size() <= kMaxCap) {
    s = shrink(s / v, s % v, v, keep);
    thr.push_back(s);
  }
  cap = static_cast<std::uint32_t>(thr.size() - 1);
  tail = thr[cap];
  // guide[b] = G(u) at the top of byte b: the largest k < cap with u < S_k.
  // G falls as u grows, so the walk over k only moves forward.
  std::uint32_t k = cap - 1;
  for (int byte = 0; byte < 256; ++byte) {
    const std::uint64_t top = (static_cast<std::uint64_t>(byte) << 56) | (kGuideSpan - 1);
    while (k > 0 && top >= thr[k]) --k;
    guide[static_cast<std::size_t>(byte)] = static_cast<std::uint16_t>(k);
  }
}

const GapTable& gap_table(std::uint32_t V, std::uint32_t H) {
  // One table per (V, H) for the life of the process: a sampler holds a
  // plain pointer, so copying one (and so a lattice) stays O(1).
  static std::mutex mu;
  static std::map<std::pair<std::uint32_t, std::uint32_t>, std::unique_ptr<const GapTable>>
      tables;
  const std::lock_guard<std::mutex> lk(mu);
  auto& slot = tables[{V, H}];
  if (slot == nullptr) slot = std::make_unique<const GapTable>(V, H);
  return *slot;
}

}  // namespace rhhh

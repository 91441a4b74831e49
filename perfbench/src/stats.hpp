// Summary statistics the benchmark reports: medians, nearest-rank
// percentiles, per-phase medians, and the rule that decides which
// percentile a sample count can support (at least kTailSamples
// observations strictly beyond it).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// A percentile is reported only when this many samples lie beyond it.
inline constexpr std::size_t kTailSamples = 10;

/// Median (mean of the two middle values for even counts); 0 when empty.
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// 1-based nearest rank of integer percentile `pct` (1..100) among n samples:
/// ceil(pct * n / 100), computed in integers.
[[nodiscard]] constexpr std::size_t nearest_rank(std::size_t n, unsigned pct) {
  const std::size_t r = (static_cast<std::size_t>(pct) * n + 99) / 100;
  return r == 0 ? 1 : r;
}

/// Samples strictly beyond the nearest-rank `pct` percentile of n samples.
[[nodiscard]] constexpr std::size_t samples_beyond(std::size_t n, unsigned pct) {
  return n == 0 ? 0 : n - nearest_rank(n, pct);
}

/// True when n samples leave at least kTailSamples beyond percentile `pct`.
[[nodiscard]] constexpr bool percentile_supported(std::size_t n, unsigned pct) {
  return samples_beyond(n, pct) >= kTailSamples;
}

/// Highest integer percentile in [50, 99] that n samples support; 0 if none.
[[nodiscard]] constexpr unsigned highest_supported_percentile(std::size_t n) {
  for (unsigned p = 99; p >= 50; --p) {
    if (percentile_supported(n, p)) return p;
  }
  return 0;
}

/// Nearest-rank percentile value; 0 when empty.
[[nodiscard]] inline double percentile(std::vector<double> v, unsigned pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[nearest_rank(v.size(), pct) - 1];
}

/// Mean over phases of each phase's median: samples[i] belongs to phase
/// phases[i]; phases without samples are skipped. A latency whose cost
/// depends on a fixed schedule position (a query early or late in a
/// window) is a fixed mix of modes; the plain median of such a mix sits on
/// the boundary between two modes whenever they split it evenly, while
/// each phase's median sits inside one mode. 0 when empty.
[[nodiscard]] inline double phase_median_mean(const std::vector<double>& samples,
                                              const std::vector<std::uint32_t>& phases) {
  std::vector<std::vector<double>> by_phase;
  for (std::size_t i = 0; i < samples.size() && i < phases.size(); ++i) {
    if (phases[i] >= by_phase.size()) by_phase.resize(phases[i] + std::size_t{1});
    by_phase[phases[i]].push_back(samples[i]);
  }
  double sum = 0.0;
  std::size_t n = 0;
  for (std::vector<double>& v : by_phase) {
    if (v.empty()) continue;
    sum += median(std::move(v));
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

}  // namespace perfbench

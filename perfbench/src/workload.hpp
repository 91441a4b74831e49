// Shared vocabulary of the benchmark program: workload definitions, the
// seeded inputs handed to the library, the exact reference answers are
// checked against, and the per-run result the program prints.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/monitor.hpp"
#include "eval/ground_truth.hpp"
#include "hhh/lattice_hhh.hpp"
#include "net/packet.hpp"
#include "spans.hpp"

namespace perfbench {

enum class Kind : std::uint8_t { kIngest, kWindowed };

/// One workload: what is generated, how it is replayed, and what runs it.
/// All workloads use the IPv4 2D byte hierarchy (H = 25) and delta = 0.001.
struct WorkloadSpec {
  std::string_view name;
  Kind kind;
  std::string_view trace;  ///< TraceConfig preset (its seed is replaced)
  rhhh::AlgorithmKind algorithm;
  double eps;
  double theta;
  bool feed_records;          ///< producer maps PacketRecords via key_of
  std::size_t base_packets;   ///< generated once per run from the seed
  std::uint32_t passes;       ///< replay passes per trial: N = base * passes
  std::uint32_t workers;      ///< engine shards (one producer feeds them)
  std::size_t ring_capacity;  ///< engine producer->worker ring slots
  std::uint32_t busy_threads; ///< threads that spin for the whole trial
};

inline constexpr double kDelta = 1e-3;
inline constexpr std::size_t kEngineBatch = 64;  ///< EngineConfig::batch default
inline constexpr std::size_t kDefaultRing = std::size_t{1} << 14;

// windowed_trend shape: 16.5 windows per trial, 8 retained, a trend query
// every quarter window, and a burst planted at 60% of the stream with the
// recipe of bench/ablation_window_scaling (30% of later traffic toward one
// /16 -> victim pair).
inline constexpr std::uint32_t kWindowsPerTrial = 16;
inline constexpr std::size_t kHistoryDepth = 8;
inline constexpr std::uint32_t kQueriesPerWindow = 4;
inline constexpr double kBurstGrowth = 2.0;
inline constexpr std::uint32_t kBurstMinEpochs = 2;

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// Monitor config of a workload (hierarchy, algorithm, eps, delta, seed).
[[nodiscard]] rhhh::MonitorConfig monitor_config(const WorkloadSpec& w,
                                                 std::uint64_t seed);

/// The seeded stream. Position p of a trial replays
/// `(p >= burst_start ? burst_keys : keys)[p % base]`.
struct Inputs {
  std::vector<rhhh::PacketRecord> records;  ///< the generated packets
  std::vector<rhhh::Key128> keys;           ///< key_of(records[i])
  std::vector<rhhh::Key128> burst_keys;     ///< windowed: keys with the burst planted
  std::uint64_t total = 0;                  ///< packets per trial
  std::uint64_t burst_start = ~std::uint64_t{0};
  rhhh::Prefix attack_bottom{};             ///< a fully specified burst key
  double generate_s = 0.0;                  ///< logged, not a metric
};

[[nodiscard]] Inputs make_inputs(const WorkloadSpec& w, const rhhh::Hierarchy& h,
                                 std::uint64_t seed);

[[nodiscard]] inline const rhhh::Key128& key_at(const Inputs& in, std::uint64_t p) {
  const std::size_t i = static_cast<std::size_t>(p % in.keys.size());
  return p >= in.burst_start ? in.burst_keys[i] : in.keys[i];
}

/// Exact ground truth for a slice of the stream plus what the checks and
/// guards need from it: the exact HHH set, the coverage candidates, and
/// each node's count of distinct prefixes.
struct Reference {
  std::unique_ptr<rhhh::ExactHhh> truth;
  rhhh::HhhSet exact_set;
  std::vector<rhhh::Prefix> heavy;          ///< f >= theta * N
  std::vector<std::size_t> distinct;        ///< per node, capped (see build)
};

/// Builds the reference of stream positions [from, to). `distinct_cap`
/// bounds the per-node distinct counts (counting stops there).
[[nodiscard]] Reference build_reference(const rhhh::Hierarchy& h, const Inputs& in,
                                        std::uint64_t from, std::uint64_t to,
                                        double theta, std::size_t distinct_cap);

/// The whole-stream reference of a workload, loaded from `cache_dir` when a
/// run over the same trace, seed and base length already built it.
[[nodiscard]] Reference stream_reference(const rhhh::Hierarchy& h, const WorkloadSpec& w,
                                         const Inputs& in, std::uint64_t seed,
                                         std::size_t distinct_cap,
                                         const std::string& cache_dir);

/// Outcome of checking one answer against the reference: the Theorem 6.11
/// per-candidate accuracy bound (eps_a * N + 2 Z sqrt(N V) + slack) and the
/// Theorem 6.15 coverage bound, each passing when its violation ratio stays
/// within delta plus the finite-sample margin of tests/test_conformance.cpp.
struct AnswerCheck {
  std::size_t candidates = 0;
  std::size_t accuracy_violations = 0;
  std::size_t coverage_candidates = 0;
  std::size_t coverage_misses = 0;
  std::size_t false_positives = 0;
  bool converged = false;  ///< N > psi
  bool pass = false;
};

/// `slack` widens both bounds by a count of packets that may sit on the
/// wrong side of a window boundary (0 for whole-stream answers).
[[nodiscard]] AnswerCheck check_answer(const Reference& ref, const rhhh::HhhSet& out,
                                       const rhhh::RhhhSpaceSaving& alg, double theta,
                                       double slack);

/// Steady-state guard: nodes whose exact universe is at least this many
/// times their roster capacity must be full and evicting.
inline constexpr std::size_t kEligibleFactor = 4;

/// Steady-state guard over one lattice's probes: every node whose exact
/// universe exceeds `eligible_factor` times its capacity must be saturated
/// and evicting; smaller nodes can hold their whole universe and are exempt.
struct GuardResult {
  std::size_t eligible = 0;
  std::size_t steady = 0;
  [[nodiscard]] bool ok() const noexcept { return steady == eligible; }
};
[[nodiscard]] GuardResult steady_guard(const std::vector<rhhh::BackendProbe>& probes,
                                       const std::vector<std::size_t>& distinct,
                                       std::size_t eligible_factor);

/// Order-independent digest of an answer (prefixes and estimates).
[[nodiscard]] std::uint64_t answer_digest(const rhhh::HhhSet& out);

/// Resident set size of this process, bytes.
[[nodiscard]] std::uint64_t rss_bytes();
/// Returns free heap pages to the OS so RSS deltas measure new footprint.
void trim_heap();

[[nodiscard]] inline double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

/// One metric value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports.
struct RunResult {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< guard failures: the run reports no numbers
  void add(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

struct RunOptions {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< spans and scratch archives go here
};

/// Untraced run: the end-to-end metrics.
void run_end_to_end(const RunOptions& opt, const rhhh::Hierarchy& h, const Inputs& in,
                    const Reference& ref, RunResult& res);
/// Traced run: per-layer metrics, ledger, self times and tracing overhead.
void run_traced(const RunOptions& opt, const rhhh::Hierarchy& h, const Inputs& in,
                const Reference& ref, RunResult& res);

}  // namespace perfbench

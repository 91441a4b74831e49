// One timed trial of a workload: set up the program, replay the seeded
// stream through it closed-loop, take the end-of-stream answer, and check
// that answer against the exact reference (outside the timed region).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/engine.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

/// Trials per run at least, whatever --seconds allows.
inline constexpr int kMinTrials = 3;
/// Ingest trials are timed in this many stream slices (windowed trials per
/// window).
inline constexpr std::uint32_t kSlices = 16;
/// Packets per traced producer span.
inline constexpr std::size_t kTraceSlice = 8192;
/// Setup-only constructions per run on top of each trial's own setup.
inline constexpr int kExtraSetups = 16;
/// End-of-stream answers per trial (the first and its repeats).
inline constexpr std::size_t kAnswers = 40;

struct TrialConfig {
  Tracer* tracer = nullptr;       ///< non-null: record spans around layer calls
  bool manual_rotation = false;   ///< windowed: rotate_epoch() at the budget positions
};

/// What one trial measured, plus the state later layer passes reuse.
struct Trial {
  double setup_s = 0.0;
  double ingest_mpps = 0.0;           ///< whole trial: first ingest to last consumed
  std::vector<double> slice_mpps;     ///< the same per stream slice
  std::vector<double> answer_ms;      ///< every end-of-stream answer
  std::vector<double> query_ms;       ///< windowed: in-flight queries; else the answers
  std::vector<std::uint32_t> query_phase;  ///< windowed: quarter of the window each query ends; else 0
  double rss_mb = 0.0;
  rhhh::EngineStats stats;            ///< after stop()
  double producer_busy_ns = 0.0;      ///< traced: producer span time per packet
  double snapshot_ms = 0.0;           ///< median engine snapshot()/trend_snapshot() part of the answer
  std::vector<double> rotate_ms;      ///< traced windowed: manual rotations
  std::vector<double> trend_snapshot_ms;
  std::uint64_t trend_queries = 0;
  std::uint64_t detect_pkts = 0;      ///< windowed: packets from onset to first alarm
  std::size_t output_candidates = 0;
  double false_positive_ratio = 0.0;
  /// Lattices the traced layer passes reuse: the engine shards' live (or
  /// newest sealed) lattices and the checked answer's lattice. They are
  /// copies via merge into fresh instances over `h`.
  std::vector<std::unique_ptr<rhhh::RhhhSpaceSaving>> shards;
  std::vector<std::unique_ptr<rhhh::RhhhSpaceSaving>> windows;  ///< windowed: sealed, newest first
  std::unique_ptr<rhhh::RhhhSpaceSaving> answer;
};

/// The digest and false-positive ratio of the last fully checked
/// deterministic answer.
struct CheckMemo {
  std::uint64_t digest = 0;
  double false_positive_ratio = 0.0;
};

/// Runs one trial and checks it: packets lost, answer bounds, convergence
/// and steady-state guards, archive completeness and burst detection are
/// folded into `res` (attempted / failed / errors). `memo` carries the
/// fully checked deterministic answer between calls, so byte-identical
/// repeats are not re-checked.
[[nodiscard]] Trial run_trial(const RunOptions& opt, const rhhh::Hierarchy& h,
                              const Inputs& in, const Reference& ref,
                              const TrialConfig& tc, int index, CheckMemo& memo,
                              RunResult& res);

/// Engine configuration of an engine workload.
[[nodiscard]] rhhh::EngineConfig engine_config(const WorkloadSpec& w, std::uint64_t seed,
                                               std::uint64_t total);

/// A fresh lattice with `like`'s configuration (over `h`) holding a merge
/// of `like`: an owned copy that outlives the engine it came from.
[[nodiscard]] std::unique_ptr<rhhh::RhhhSpaceSaving> clone_lattice(
    const rhhh::Hierarchy& h, const rhhh::RhhhSpaceSaving& like);

}  // namespace perfbench

// Timed trials of the engine workloads and their answer checks.
#include "trials.hpp"

#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>

#include "stats.hpp"
#include "store/archive.hpp"

namespace perfbench {

using namespace rhhh;

namespace {

/// Replays stream positions [from, to) as contiguous runs of the base
/// arrays: f(keys, records, n) per run (records is null past the burst).
template <class F>
void for_each_run(const Inputs& in, std::uint64_t from, std::uint64_t to, F&& f) {
  const std::uint64_t base = in.keys.size();
  std::uint64_t pos = from;
  while (pos < to) {
    const auto i = static_cast<std::size_t>(pos % base);
    std::uint64_t end = std::min<std::uint64_t>(to, pos + (base - i));
    if (pos < in.burst_start && end > in.burst_start) end = in.burst_start;
    const auto n = static_cast<std::size_t>(end - pos);
    if (pos >= in.burst_start) {
      f(in.burst_keys.data() + i, static_cast<const PacketRecord*>(nullptr), n);
    } else {
      f(in.keys.data() + i, in.records.data() + i, n);
    }
    pos = end;
  }
}

void ingest_range(HhhEngine::Producer& prod, bool records, const Inputs& in,
                  std::uint64_t from, std::uint64_t to) {
  for_each_run(in, from, to, [&](const Key128* keys, const PacketRecord* recs,
                                 std::size_t n) {
    if (records && recs != nullptr) {
      for (std::size_t i = 0; i < n; ++i) prod.ingest(recs[i]);
    } else {
      for (std::size_t i = 0; i < n; ++i) prod.ingest(keys[i]);
    }
  });
}

/// Producer side of a trial from `from` to `to`; traced runs record one
/// span per slice.
void produce(HhhEngine::Producer& prod, bool records, const Inputs& in,
             std::uint64_t from, std::uint64_t to, const TrialConfig& tc,
             std::int64_t& busy_ns) {
  if (tc.tracer == nullptr) {
    ingest_range(prod, records, in, from, to);
    prod.flush();
    return;
  }
  for (std::uint64_t lo = from; lo < to; lo += kTraceSlice) {
    Tracer::Scope s(*tc.tracer, "engine.producer_ingest");
    ingest_range(prod, records, in, lo, std::min<std::uint64_t>(to, lo + kTraceSlice));
    busy_ns += s.close();
  }
  Tracer::Scope s(*tc.tracer, "engine.producer_flush");
  prod.flush();
  busy_ns += s.close();
}

void wait_consumed(const HhhEngine& eng, std::uint64_t offered) {
  for (;;) {
    const EngineStats st = eng.stats();
    if (st.consumed + st.dropped >= offered) return;
    std::this_thread::yield();
  }
}

double ms_since(std::int64_t t0) { return seconds_since(t0) * 1e3; }

/// Pins the main (ingest) thread to CPU 0, each of the engine's `workers`
/// worker threads to a CPU of its own, and the engine's other threads to
/// the CPUs left over, from just after setup to the end of the trial. Left
/// to the scheduler, the threads land in a different placement each trial
/// (the main thread sharing a CPU with an idle-spinning worker, or two
/// workers sharing one), and a quiesce wake-up costs a different amount in
/// each, so answer latencies split into modes per trial. The engine starts
/// its workers before its helper threads, so the lowest thread ids after
/// the main thread's are the workers. Best effort: a failed affinity call
/// leaves placement to the scheduler.
void place_threads(std::uint32_t workers) {
  const unsigned ncpu = std::thread::hardware_concurrency();
  if (ncpu < 2) return;
  const pid_t self = static_cast<pid_t>(syscall(SYS_gettid));
  std::vector<pid_t> tids;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task")) {
    const pid_t tid = static_cast<pid_t>(std::stol(e.path().filename().string()));
    if (tid != self) tids.push_back(tid);
  }
  std::sort(tids.begin(), tids.end());
  const bool own_cpus = workers + 1 <= ncpu;
  cpu_set_t rest;
  CPU_ZERO(&rest);
  for (unsigned c = own_cpus ? workers + 1 : 1; c < ncpu; ++c) CPU_SET(c, &rest);
  if (CPU_COUNT(&rest) == 0) {
    for (unsigned c = 1; c < ncpu; ++c) CPU_SET(c, &rest);
  }
  for (std::size_t i = 0; i < tids.size(); ++i) {
    if (own_cpus && i < workers) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(static_cast<int>(i) + 1, &one);
      sched_setaffinity(tids[i], sizeof one, &one);
    } else {
      sched_setaffinity(tids[i], sizeof rest, &rest);
    }
  }
  cpu_set_t first;
  CPU_ZERO(&first);
  CPU_SET(0, &first);
  sched_setaffinity(self, sizeof first, &first);
}

/// Lets the main thread run anywhere again, so that threads it starts
/// next do not inherit CPU 0 alone.
void release_main_thread() {
  cpu_set_t all;
  CPU_ZERO(&all);
  for (unsigned c = 0; c < std::thread::hardware_concurrency(); ++c) CPU_SET(c, &all);
  sched_setaffinity(static_cast<pid_t>(syscall(SYS_gettid)), sizeof all, &all);
}

/// Ingest rate of consecutive stream slices: packets since the previous
/// mark over the time since it.
class SliceClock {
 public:
  explicit SliceClock(std::vector<double>& out) : out_(&out), last_ns_(now_ns()) {}
  void mark(std::uint64_t pos) {
    const std::int64_t now = now_ns();
    out_->push_back(static_cast<double>(pos - last_pos_) /
                    (static_cast<double>(now - last_ns_) * 1e-9) / 1e6);
    last_ns_ = now;
    last_pos_ = pos;
  }
  [[nodiscard]] std::uint64_t position() const noexcept { return last_pos_; }

 private:
  std::vector<double>* out_;
  std::int64_t last_ns_;
  std::uint64_t last_pos_ = 0;
};

double rss_growth_mb(std::uint64_t rss0) {
  const std::uint64_t now = rss_bytes();
  return static_cast<double>(now > rss0 ? now - rss0 : 0) / (1 << 20);
}

/// Folds one answer check into the run result.
void record_check(const AnswerCheck& c, const char* what, RunResult& res, Trial& t) {
  res.attempted += 1;
  if (!c.pass) {
    res.failed += 1;
    std::fprintf(stderr,
                 "perfbench: %s answer failed: %zu/%zu accuracy violations, "
                 "%zu/%zu coverage misses\n",
                 what, c.accuracy_violations, c.candidates, c.coverage_misses,
                 c.coverage_candidates);
  }
  if (!c.converged) res.errors.push_back(std::string(what) + ": N <= psi (unconverged)");
  t.output_candidates = c.candidates;
  t.false_positive_ratio =
      c.candidates == 0 ? 0.0
                        : static_cast<double>(c.false_positives) /
                              static_cast<double>(c.candidates);
}

void record_guard(const std::vector<BackendProbe>& probes,
                  const std::vector<std::size_t>& distinct, const char* what,
                  RunResult& res) {
  const GuardResult g = steady_guard(probes, distinct, kEligibleFactor);
  if (!g.ok()) {
    res.errors.push_back(std::string(what) + ": " + std::to_string(g.eligible - g.steady) +
                         " of " + std::to_string(g.eligible) +
                         " eligible nodes not saturated and evicting");
  }
}

void record_packets(std::uint64_t offered, std::uint64_t accounted, RunResult& res) {
  res.attempted += offered;
  if (accounted < offered) {
    res.failed += offered - accounted;
    std::fprintf(stderr, "perfbench: %llu packets neither consumed nor dropped\n",
                 static_cast<unsigned long long>(offered - accounted));
  }
}

/// Checks a deterministic answer fully the first time, and by digest when
/// a repeat is byte-identical to the checked one.
void check_deterministic(const Reference& ref, const HhhSet& out,
                         const RhhhSpaceSaving& alg, double theta, CheckMemo& memo,
                         RunResult& res, Trial& t) {
  const std::uint64_t d = answer_digest(out);
  if (memo.digest != 0 && d == memo.digest) {
    res.attempted += 1;
    t.output_candidates = out.size();
    t.false_positive_ratio = memo.false_positive_ratio;
    return;
  }
  const AnswerCheck c = check_answer(ref, out, alg, theta, 0.0);
  record_check(c, "end-of-stream", res, t);
  if (c.pass && c.converged) memo = CheckMemo{d, t.false_positive_ratio};
}

Trial ingest_trial(const RunOptions& opt, const Hierarchy& h, const Inputs& in,
                   const Reference& ref, const TrialConfig& tc, CheckMemo& memo,
                   RunResult& res) {
  const WorkloadSpec& w = *opt.spec;
  Trial t;
  release_main_thread();
  trim_heap();
  const std::uint64_t rss0 = rss_bytes();
  std::int64_t t0 = now_ns();
  std::unique_ptr<HhhEngine> eng;
  {
    Tracer::Scope s(tc.tracer, "engine.setup");
    eng = make_engine(engine_config(w, opt.seed, in.total));
    eng->start();
  }
  t.setup_s = seconds_since(t0);
  place_threads(w.workers);

  std::int64_t busy = 0;
  t0 = now_ns();
  SliceClock clock(t.slice_mpps);
  for (std::uint32_t sl = 1; sl <= kSlices; ++sl) {
    const std::uint64_t hi = in.total * sl / kSlices;
    produce(eng->producer(0), w.feed_records, in, clock.position(), hi, tc, busy);
    if (sl == kSlices) {
      Tracer::Scope s(tc.tracer, "engine.drain_wait");
      wait_consumed(*eng, in.total);
    }
    clock.mark(hi);
  }
  t.ingest_mpps = static_cast<double>(in.total) / seconds_since(t0) / 1e6;
  t.producer_busy_ns = static_cast<double>(busy) / static_cast<double>(in.total);

  // End-of-stream answer, then repeats of it for the query percentiles.
  std::unique_ptr<EngineSnapshot> snap;
  HhhSet out;
  std::vector<double> snap_ms;
  for (std::size_t q = 0; q < kAnswers; ++q) {
    const std::int64_t a0 = now_ns();
    {
      Tracer::Scope s(tc.tracer, "engine.snapshot");
      snap = std::make_unique<EngineSnapshot>(eng->snapshot());
    }
    snap_ms.push_back(ms_since(a0));
    {
      Tracer::Scope s(tc.tracer, "hhh.output");
      out = snap->output(w.theta);
    }
    t.answer_ms.push_back(ms_since(a0));
  }
  t.snapshot_ms = median(snap_ms);
  t.query_ms = t.answer_ms;
  t.query_phase.assign(t.query_ms.size(), 0);
  t.rss_mb = rss_growth_mb(rss0);

  {
    Tracer::Scope s(tc.tracer, "engine.stop");
    eng->stop();
  }
  t.stats = eng->stats();

  // Checks, outside every timed region.
  record_packets(in.total, t.stats.consumed + t.stats.dropped, res);
  check_deterministic(ref, out, snap->algorithm(), w.theta, memo, res, t);
  for (std::uint32_t s = 0; s < eng->workers(); ++s) {
    record_guard(eng->shard(s).health_probes(), ref.distinct, "shard lattice", res);
    t.shards.push_back(clone_lattice(h, eng->shard(s)));
  }
  t.answer = clone_lattice(h, snap->algorithm());

  if (tc.tracer != nullptr) {
    // The control-plane calls windowed_trend makes on its stream, timed on
    // this engine too (restarted, so each call quiesces live workers) so
    // that every workload reports them.
    release_main_thread();
    eng->start();
    place_threads(w.workers);
    for (int k = 0; k < 8; ++k) {
      const std::int64_t q0 = now_ns();
      Tracer::Scope s(*tc.tracer, "engine.trend_snapshot");
      const TrendSnapshot ts = eng->trend_snapshot();
      s.close();
      t.trend_snapshot_ms.push_back(ms_since(q0));
      ++t.trend_queries;
    }
    for (int k = 0; k < 8; ++k) {
      const std::int64_t r0 = now_ns();
      Tracer::Scope s(*tc.tracer, "engine.rotate_epoch");
      eng->rotate_epoch();
      s.close();
      t.rotate_ms.push_back(ms_since(r0));
    }
    eng->stop();
    t.stats = eng->stats();
  }
  return t;
}

Trial windowed_trial(const RunOptions& opt, const Hierarchy& h, const Inputs& in,
                     const TrialConfig& tc, RunResult& res, int index) {
  const WorkloadSpec& w = *opt.spec;
  Trial t;
  release_main_thread();
  EngineConfig cfg = engine_config(w, opt.seed, in.total);
  const std::uint64_t epoch = cfg.epoch_packets;
  if (tc.manual_rotation) cfg.epoch_packets = 0;
  cfg.archive.dir = opt.out_dir + "/archive-" + std::to_string(getpid()) + "-" +
                    std::to_string(index);
  std::filesystem::remove_all(cfg.archive.dir);

  trim_heap();
  const std::uint64_t rss0 = rss_bytes();
  std::int64_t t0 = now_ns();
  std::unique_ptr<HhhEngine> eng;
  {
    Tracer::Scope s(tc.tracer, "engine.setup");
    eng = make_engine(cfg);
    eng->start();
  }
  t.setup_s = seconds_since(t0);
  place_threads(w.workers);

  const std::uint64_t chunk = epoch / kQueriesPerWindow;
  std::uint64_t false_alarms = 0;
  std::int64_t busy = 0;
  HhhEngine::Producer& prod = eng->producer(0);
  t0 = now_ns();
  SliceClock clock(t.slice_mpps);
  std::uint64_t chunks = 0;
  for (std::uint64_t lo = 0; lo < in.total; lo += chunk) {
    const std::uint64_t hi = std::min(in.total, lo + chunk);
    produce(prod, w.feed_records, in, lo, hi, tc, busy);
    const bool window_end = ++chunks % kQueriesPerWindow == 0;
    if (tc.manual_rotation && window_end && hi < in.total) {
      const std::int64_t r0 = now_ns();
      {
        Tracer::Scope s(tc.tracer, "engine.rotate_epoch");
        eng->rotate_epoch();
      }
      t.rotate_ms.push_back(ms_since(r0));
    }
    const std::int64_t q0 = now_ns();
    std::optional<TrendSnapshot> ts;
    {
      Tracer::Scope s(tc.tracer, "engine.trend_snapshot");
      ts.emplace(eng->trend_snapshot());
    }
    const double snap_ms = ms_since(q0);
    std::vector<SustainedPrefix> alarms;
    {
      Tracer::Scope s(tc.tracer, "core.emerging_sustained");
      alarms = ts->emerging_sustained(w.theta, kBurstGrowth, kBurstMinEpochs);
    }
    t.query_ms.push_back(ms_since(q0));
    t.query_phase.push_back(static_cast<std::uint32_t>((chunks - 1) % kQueriesPerWindow));
    t.trend_snapshot_ms.push_back(snap_ms);
    ++t.trend_queries;
    if (hi <= in.burst_start) {
      false_alarms += alarms.empty() ? 0 : 1;
    } else if (t.detect_pkts == 0) {
      for (const SustainedPrefix& a : alarms) {
        if (h.generalizes(a.now.prefix, in.attack_bottom)) {
          t.detect_pkts = hi - in.burst_start;
          break;
        }
      }
    }
    if (window_end && hi < in.total) clock.mark(hi);
  }
  wait_consumed(*eng, in.total);
  clock.mark(in.total);
  t.ingest_mpps = static_cast<double>(in.total) / seconds_since(t0) / 1e6;
  t.producer_busy_ns = static_cast<double>(busy) / static_cast<double>(in.total);

  // End-of-stream answer: the newest sealed window of a final trend query.
  std::unique_ptr<TrendSnapshot> ts;
  HhhSet out;
  std::vector<double> snap_ms;
  for (std::size_t q = 0; q < kAnswers; ++q) {
    const std::int64_t a0 = now_ns();
    {
      Tracer::Scope s(tc.tracer, "engine.trend_snapshot");
      ts = std::make_unique<TrendSnapshot>(eng->trend_snapshot());
    }
    ++t.trend_queries;
    snap_ms.push_back(ms_since(a0));
    {
      Tracer::Scope s(tc.tracer, "hhh.output");
      out = ts->window(0, w.theta);
    }
    t.answer_ms.push_back(ms_since(a0));
  }
  t.snapshot_ms = median(snap_ms);
  t.rss_mb = rss_growth_mb(rss0);
  {
    Tracer::Scope s(tc.tracer, "engine.stop");
    eng->stop();
  }
  t.stats = eng->stats();

  // Checks, outside every timed region.
  record_packets(in.total, t.stats.consumed + t.stats.dropped, res);
  // Every sealed window is archived or counted as lost by the engine.
  const std::uint64_t sealed = t.stats.window_epochs;
  res.attempted += sealed;
  const std::uint64_t accounted =
      t.stats.archived_windows + t.stats.archive_queue_drops + t.stats.archive_errors;
  if (accounted < sealed) res.failed += sealed - accounted;
  {
    const store::WindowArchive arch = store::WindowArchive::open_read(cfg.archive.dir);
    res.attempted += 1;
    const std::vector<store::WindowMeta> metas = arch.list();
    const bool same_newest = !metas.empty() &&
                             metas.size() == t.stats.archived_windows &&
                             metas.back().stream_length == ts->window_length(0);
    if (!same_newest) {
      res.failed += 1;
      std::fprintf(stderr, "perfbench: archive does not hold the newest sealed window\n");
    }
  }
  std::filesystem::remove_all(cfg.archive.dir);

  // Burst detection: an alarm before onset is a false alarm, none after it
  // a miss.
  res.attempted += 1;
  if (false_alarms != 0 || t.detect_pkts == 0) {
    res.failed += 1;
    std::fprintf(stderr, "perfbench: burst detection failed (%llu false alarms, %s)\n",
                 static_cast<unsigned long long>(false_alarms),
                 t.detect_pkts == 0 ? "missed" : "detected");
  }

  // The answer against the exact stream slice the newest sealed window
  // covers. A window holds the packets consumed between two boundaries; at
  // most W * (ring + batch) packets are in flight at a boundary, so at most
  // 4x that many sit on the wrong side of the ideal slice's two ends.
  const double slack = 4.0 * static_cast<double>(w.workers) *
                       static_cast<double>(w.ring_capacity + kEngineBatch);
  const std::uint64_t end = in.total - ts->current_length();
  const std::uint64_t start = end - ts->window_length(0);
  {
    const std::size_t cap = kEligibleFactor * ts->window_algorithm(0).counters_per_node();
    const Reference wref = build_reference(h, in, start, end, w.theta, cap);
    const AnswerCheck c = check_answer(wref, out, ts->window_algorithm(0), w.theta, slack);
    record_check(c, "newest window", res, t);
    for (std::uint32_t sh = 0; sh < eng->workers(); ++sh) {
      record_guard(eng->shard_sealed(sh, 0).health_probes(), wref.distinct,
                   "sealed shard window", res);
    }
  }
  const std::size_t n_sealed = ts->sealed_windows();
  for (std::uint32_t sh = 0; sh < eng->workers(); ++sh) {
    t.shards.push_back(clone_lattice(h, eng->shard_sealed(sh, 0)));
  }
  for (std::size_t age = 0; age < n_sealed; ++age) {
    t.windows.push_back(clone_lattice(h, ts->window_algorithm(age)));
  }
  t.answer = clone_lattice(h, ts->window_algorithm(0));
  return t;
}

}  // namespace

EngineConfig engine_config(const WorkloadSpec& w, std::uint64_t seed, std::uint64_t total) {
  EngineConfig cfg;
  cfg.monitor = monitor_config(w, seed);
  cfg.workers = w.workers;
  cfg.producers = 1;
  cfg.ring_capacity = w.ring_capacity;
  cfg.batch = kEngineBatch;
  cfg.overflow = OverflowPolicy::kBlock;
  if (w.kind == Kind::kWindowed) {
    // kWindowsPerTrial full windows and half of one more: the last rotation
    // lands half a window before the stream ends, so the end-of-stream
    // answer never races it.
    cfg.epoch_packets = total * 2 / (2 * kWindowsPerTrial + 1);
    cfg.history_depth = kHistoryDepth;
    cfg.archive.fsync_mode = FsyncMode::kNone;
  }
  return cfg;
}

std::unique_ptr<RhhhSpaceSaving> clone_lattice(const Hierarchy& h,
                                               const RhhhSpaceSaving& like) {
  auto out = std::make_unique<RhhhSpaceSaving>(h, like.mode(), like.params());
  out->merge(like);
  return out;
}

Trial run_trial(const RunOptions& opt, const Hierarchy& h, const Inputs& in,
                const Reference& ref, const TrialConfig& tc, int index,
                CheckMemo& memo, RunResult& res) {
  Tracer::Scope root(tc.tracer, "bench.trial");
  return opt.spec->kind == Kind::kWindowed ? windowed_trial(opt, h, in, tc, res, index)
                                           : ingest_trial(opt, h, in, ref, tc, memo, res);
}

namespace {

/// Engine construction and start alone, for extra setup samples.
double setup_once(const RunOptions& opt, const Inputs& in, int index) {
  const WorkloadSpec& w = *opt.spec;
  release_main_thread();
  EngineConfig cfg = engine_config(w, opt.seed, in.total);
  if (w.kind == Kind::kWindowed) {
    cfg.archive.dir = opt.out_dir + "/archive-" + std::to_string(getpid()) + "-setup-" +
                      std::to_string(index);
    std::filesystem::remove_all(cfg.archive.dir);
  }
  const std::int64_t t0 = now_ns();
  const std::unique_ptr<HhhEngine> eng = make_engine(cfg);
  eng->start();
  const double s = seconds_since(t0);
  eng->stop();
  if (!cfg.archive.dir.empty()) std::filesystem::remove_all(cfg.archive.dir);
  return s;
}

}  // namespace

void run_end_to_end(const RunOptions& opt, const Hierarchy& h, const Inputs& in,
                    const Reference& ref, RunResult& res) {
  const TrialConfig tc;
  CheckMemo memo;
  // One value per trial for each metric but setup, and the run reports
  // their median. A trial's engine keeps its placement (threads on vCPUs,
  // memory) to the end, and on a shared host some trials run 30-50% slower
  // or faster than the rest throughout; the median over trials holds out
  // such trials better than a mean or a median of pooled samples does.
  std::vector<double> setup;
  std::vector<double> mpps;
  std::vector<double> answer;
  std::vector<double> queries;
  std::vector<double> rss;
  std::size_t slices = 0;
  std::size_t query_samples = 0;
  const auto record = [&](const Trial& t, int i) {
    setup.push_back(t.setup_s);
    mpps.push_back(median(t.slice_mpps));
    answer.push_back(median(t.answer_ms));
    queries.push_back(phase_median_mean(t.query_ms, t.query_phase));
    rss.push_back(t.rss_mb);
    slices += t.slice_mpps.size();
    query_samples += t.query_ms.size();
    std::fprintf(stderr,
                 "perfbench: trial %d: %.2f Mpps (slice median %.2f), answer %.3f ms, "
                 "query %.3f ms, setup %.3f ms, rss +%.2f MB, %zu queries, %zu candidates\n",
                 i, t.ingest_mpps, mpps.back(), answer.back(), queries.back(),
                 t.setup_s * 1e3, t.rss_mb, t.query_ms.size(), t.output_candidates);
  };
  // A first trial warms the process (thread arenas, page tables, the
  // telemetry registry); it is checked but not measured.
  {
    const Trial warm = run_trial(opt, h, in, ref, tc, -1, memo, res);
    std::fprintf(stderr, "perfbench: warm-up trial: %.2f Mpps\n", warm.ingest_mpps);
  }
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kMinTrials || seconds_since(t0) < opt.seconds; ++i) {
    record(run_trial(opt, h, in, ref, tc, i, memo, res), i);
  }
  for (int i = 0; i < kExtraSetups; ++i) setup.push_back(setup_once(opt, in, i));

  res.add("ingest_mpps", median(mpps), "Mpps");
  res.add("answer_ms", median(answer), "ms");
  res.add("query_ms", median(queries), "ms");
  res.add("setup_s", median(setup), "s");
  res.add("rss_mb", median(rss), "MB");
  std::fprintf(stderr,
               "perfbench: %zu trials, %zu throughput slices, %zu query samples "
               "(highest supported percentile p%u), %zu setup samples\n",
               rss.size(), slices, query_samples, highest_supported_percentile(query_samples),
               setup.size());
}

}  // namespace perfbench

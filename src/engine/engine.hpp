// HhhEngine: the node-partitioned multi-core ingest engine.
//
// The paper's distributed design (Section 5.2, Fig. 8) draws RHHH's level
// before transport; the engine does the same inside one process:
//
//   producer 0: block draw ──(key,node,packets)──▶ worker 0 ─┐ apply to the
//      │  (BlockSampler:  └──────────────────────▶ worker 1 ─┤ nodes each owns
//      │   survivors only)                                   │
//   producer 1: block draw ──────────────────────▶ worker 0  │
//      │                  └──────────────────────▶ worker 1  ▼
//      ⋮                                  ONE WindowRing<RhhhSpaceSaving>
//                                         (live + K sealed lattices)
//
// Producers buffer packets into blocks of EngineConfig::batch keys and run
// stage 1 of the lattice update on each block (BlockSampler: at V > H it
// skips from survivor to survivor by geometric gaps, so a block costs its
// survivors, not its packets). Only survivors cross a ring, as
// SampledUpdate records (key, lattice node, packets), each to the worker
// that owns the node: 10-RHHH draws and ships about one packet in ten. A
// sampled-out packet rides as a packet credit on its producer's next
// record (flush() sends a credit-only record for what is left), so every
// packet is counted exactly once. An MST or Sampled-MST survivor updates every node: it is shipped
// once to each worker that owns nodes, and credited on one of them.
//
// Node ownership: the H lattice nodes are dealt to the W workers in level
// order, snake-wise (0,1,..,W-1,W-1,..,0,0,..), so per-worker node counts
// differ by at most one and every level is spread across workers. RHHH
// draws each node uniformly, so the load is balanced by construction,
// whatever the key skew. With W > H the workers past H own no nodes and
// stay idle; that follows from the lattice size and is not configurable.
// Each worker applies its records to its own nodes of the engine's ONE live
// lattice (LatticeHhh::apply); node backends sit a cache line apart, so two
// owners never share a written line. Every producer x worker pair owns a
// dedicated SpscRing, so each ring stays strictly single-producer /
// single-consumer.
//
// Control operations run through one quiesce: workers park at the next
// epoch boundary (each drains its visible ring backlog first), the
// coordinator folds the packets and updates the workers counted into the
// lattice's stream length and update tally, operates, and resumes them.
//
//   * snapshot()        -- copy the live lattice, with every counted drop
//                          folded into its stream length N. The lifetime
//                          view without window rotation; the current-window
//                          view otherwise.
//   * rotate_epoch()    -- seal the live window (the ring rotates) and copy
//                          it, with its drops folded in, into an immutable
//                          shared window: the trend snapshots, the
//                          accuracy certificate and the archiver all read
//                          that copy. Driven manually, cooperatively by the
//                          workers (EngineConfig::epoch_packets /
//                          epoch_millis: each worker meters the budget at
//                          its batch boundaries and the one that sees it
//                          spent elects itself rotator via one CAS), or --
//                          for idle streams -- by the fallback coordinator
//                          clock thread.
//   * window_snapshot() -- the live copy plus the newest sealed window: the
//                          WindowedHhhMonitor semantics (current / previous
//                          / emerging) at engine scale.
//   * trend_snapshot()  -- the live copy plus every retained sealed window:
//                          the monitor's trend() / emerging_sustained()
//                          k-epoch queries at engine scale.
//
// With one producer, the engine's lattice is byte-identical to a single
// LatticeHhh with the same seed fed the same packets, for any W: producer
// 0 draws the lattice's own stream and each node sees its updates in
// packet order (tests/test_engine.cpp pins this).
//
// Accounting, all in packets (a record counts the packets it accounts
// for): drops per ring (OverflowPolicy::kDropTail, the saturated-port
// semantics of the distributed deployment; a dropped credit-carrying
// record drops its credit too), pushes and pops per ring (conservation
// invariants; see tests/test_engine_fuzz.cpp), consumed per worker, and
// backpressure retry rounds per producer (OverflowPolicy::kBlock, the
// lossless mode the throughput benches use).
//
// Durable archiving (EngineConfig::archive, src/store/): every rotation
// hands the shared sealed window to a background archiver thread through a
// bounded queue -- the packet path never waits and no thread ever waits on
// the disk; a full queue drops the window and counts it. The archiver
// serializes the window (store/serde.hpp) and appends it to the segment
// log (store/archive.hpp), where WindowArchive answers last-N / time-range
// queries that reproduce trend_snapshot()'s sealed windows byte for byte.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/monitor.hpp"
#include "core/window_ring.hpp"
#include "engine/snapshot.hpp"
#include "hhh/block_sampler.hpp"
#include "hhh/lattice_hhh.hpp"
#include "store/serde.hpp"
#include "util/spsc_ring.hpp"

namespace rhhh::store {
class WindowArchive;  // store/archive.hpp
}

namespace rhhh::obs {
class MetricsRegistry;  // obs/metrics.hpp -- forward-declared so the
class Gauge;            // engine header stays decoupled from the telemetry
class Histogram;        // layer; all recording happens in engine.cpp.
class TraceRing;        // obs/trace_ring.hpp
class HealthLedger;     // obs/health.hpp -- estimator health layer
class StallWatchdog;
}

namespace rhhh {

class HhhEngine {
 public:
  /// Validates the config (lattice-mode algorithm, >=1 worker/producer),
  /// builds the window ring, deals the lattice nodes to the workers and
  /// builds the rings; workers start on start().
  explicit HhhEngine(const EngineConfig& cfg);
  ~HhhEngine();

  HhhEngine(const HhhEngine&) = delete;
  HhhEngine& operator=(const HhhEngine&) = delete;

  /// Per-producer-thread ingest handle. NOT thread-safe: exactly one thread
  /// may use a given handle at a time (that is what keeps every ring SPSC).
  class Producer {
   public:
    /// Buffer one packet key; a full block of EngineConfig::batch keys is
    /// drawn at once and its survivors routed to the workers owning their
    /// nodes. A worker's record batch is pushed when full: with
    /// OverflowPolicy::kBlock a full ring spins (lossless, counted as
    /// backpressure); with kDropTail the unpushable batch tail is dropped
    /// and counted against the ring, in packets.
    void ingest(Key128 key) {
      block_[fill_] = key;
      if (++fill_ == block_.size()) sample_block();
    }
    /// Convenience overload mapping a packet through the engine's hierarchy.
    void ingest(const PacketRecord& p);

    /// Draw the partial block, send any pending packet credit, push out
    /// every partially filled record batch and publish the offered count.
    /// Call before snapshot() for results that include everything this
    /// producer ingested.
    void flush();

    /// Packets this handle has accepted and published. Updated on each
    /// batch push (so it may trail ingest() by up to a block plus a batch
    /// until flush() is called); safe to read from any thread.
    [[nodiscard]] std::uint64_t offered() const noexcept {
      // order: relaxed -- monotonic counter; cross-thread reads want a recent
      // value, not ordering against other memory. Exact totals come from
      // stats() under quiesce, where ctl_mu_ provides the happens-before.
      return offered_.load(std::memory_order_relaxed);
    }

   private:
    friend class HhhEngine;
    Producer(HhhEngine* eng, std::uint32_t id, std::uint64_t seed);
    /// Draw the pending block and route its survivors.
    void sample_block();
    /// Append one record to worker w's batch; push the batch when full.
    void emit(std::uint32_t w, const Key128& key, std::uint32_t node,
              std::uint32_t packets) {
      buf_[w].push_back(SampledUpdate{key, node, packets});
      buf_packets_[w] += packets;
      if (buf_[w].size() >= batch_) flush_worker(w);
    }
    /// Send the pending credit as a packets-only record.
    void emit_credit();
    void flush_worker(std::uint32_t w);

    HhhEngine* eng_;
    std::uint32_t id_;
    std::size_t batch_;
    BlockSampler sampler_;
    std::vector<Key128> block_;  ///< packets awaiting their draws
    std::size_t fill_ = 0;
    /// Packets drawn but sampled out since this handle's last record: the
    /// credit the next record carries.
    std::uint64_t credit_ = 0;
    /// Worker whose copy of the next all-node record carries its packets
    /// (MST / Sampled-MST), cycling so credits spread evenly.
    std::uint32_t fan_credit_ = 0;
    std::vector<std::vector<SampledUpdate>> buf_;  ///< per-worker pending batch
    std::vector<std::uint64_t> buf_packets_;       ///< packets in buf_[w]
    std::uint64_t offered_local_ = 0;  ///< drawn, not yet published to offered_
    std::atomic<std::uint64_t> offered_{0};
  };

  /// Spawns the W worker threads (and the coordinator clock thread when a
  /// window clock is configured). Idempotent.
  void start();
  /// Drains the ring backlog, stops and joins the workers (and the clock
  /// thread), and settles the lattice's stream counts. Producer buffers are
  /// not flushed (call Producer::flush() from the owning thread first), and
  /// records pushed while stop() runs may be left in the rings. Idempotent;
  /// also run by the destructor.
  void stop();

  /// Handle for producer `i` in [0, producers()). Hand each to one thread.
  [[nodiscard]] Producer& producer(std::uint32_t i) { return *producers_[i]; }

  /// Epoch-based network-wide query: quiesces every worker at the next
  /// epoch boundary, copies the live lattice, folds counted drops into the
  /// copy's stream length, and resumes the workers.
  /// Packets still buffered in producer handles (not flushed) are not yet
  /// part of the snapshot. With window rotation in use this covers only the
  /// current (partial) window -- and folds in *all* drops ever counted, so
  /// prefer window_snapshot() on a windowed engine. Serialized with itself
  /// and with start()/stop(); callable before start() and after stop() (no
  /// quiesce needed once workers are gone).
  [[nodiscard]] EngineSnapshot snapshot();

  /// Close the current window: quiesce, rotate the window ring (the oldest
  /// retained sealed window is discarded), attribute the drops counted
  /// since the last boundary to the newly sealed window, resume, and copy
  /// the sealed window (drops folded in) into the shared immutable window
  /// the trend snapshots and the archiver read (the certificate probes the
  /// same counters). With EngineConfig::epoch_packets / epoch_millis set
  /// this happens automatically -- cooperatively by the
  /// workers (bounding boundary drift by one worker batch) with the
  /// coordinator clock thread as an idle-stream fallback; manual calls
  /// compose with both (the packet/wall budgets reset either way). The
  /// packet budget meters CONSUMED packets only -- see
  /// EngineConfig::epoch_packets for the basis contract.
  void rotate_epoch();

  /// Two-window network-wide query: quiesce, copy the live lattice as the
  /// current window (its drops folded in), resume; the previous window is
  /// the newest shared sealed window (absent before the first rotation).
  /// Does NOT rotate -- observing is separate from sealing, so several
  /// window snapshots can watch one window evolve.
  [[nodiscard]] WindowedEngineSnapshot window_snapshot();

  /// K-window network-wide query: quiesce, copy the live lattice (its
  /// drops folded in), resume; the sealed windows are the shared copies
  /// made at rotation, each with its own window's drops folded in. Answers
  /// trend() and emerging_sustained() over up to
  /// EngineConfig::history_depth sealed epochs. Does NOT rotate.
  [[nodiscard]] TrendSnapshot trend_snapshot();

  /// Live ingest counters (no quiesce; individually-consistent atomics).
  [[nodiscard]] EngineStats stats() const;

  [[nodiscard]] std::uint32_t workers() const noexcept {
    return static_cast<std::uint32_t>(workers_.size());
  }
  [[nodiscard]] std::uint32_t producers() const noexcept {
    return static_cast<std::uint32_t>(producers_.size());
  }
  [[nodiscard]] const Hierarchy& hierarchy() const noexcept { return *hierarchy_; }
  [[nodiscard]] const EngineConfig& config() const noexcept { return cfg_; }
  /// Quiesce generations so far (snapshots + rotations + window snapshots).
  [[nodiscard]] std::uint64_t epochs() const noexcept {
    // order: relaxed -- monotonic counter read for display/tests; no payload
    // is synchronized through it.
    return epoch_req_.load(std::memory_order_relaxed);
  }
  /// Completed window rotations so far. Safe to poll from any thread (the
  /// detection loops of the demo/bench watch this for new sealed windows).
  [[nodiscard]] std::uint64_t window_epochs() const noexcept {
    // order: acquire -- pairs with rotate_locked()'s release fetch_add so a
    // poller that observes rotation N also observes every write the rotation
    // published before bumping the count (sealed drop/duration rings).
    return window_epochs_.load(std::memory_order_acquire);
  }
  /// True when a coordinator clock (packet or wall) is configured.
  [[nodiscard]] bool windowed() const noexcept {
    return cfg_.epoch_packets > 0 || cfg_.epoch_millis > 0;
  }
  /// The engine's live (current-window) lattice. Every worker applies to
  /// its own nodes of this one lattice, so every `w` returns the same
  /// instance; the parameter is kept for callers that iterate workers.
  /// Safe to inspect when quiescent (before start(), after stop(), or from
  /// test code that knows better); its N and update tally include every
  /// record consumed up to the last quiesce or stop().
  [[nodiscard]] const RhhhSpaceSaving& shard(std::uint32_t /*w*/) const noexcept {
    return ring_.live();
  }
  /// The newest sealed lattice (drops not folded in), or nullptr before the
  /// first rotation; the same instance for every `w`. Same quiescence
  /// caveat as shard().
  [[nodiscard]] const RhhhSpaceSaving* shard_sealed(std::uint32_t /*w*/) const noexcept {
    return ring_.sealed_or_null();
  }
  /// The sealed lattice from `age` epochs back (0 = newest; drops not
  /// folded in); the same instance for every `w`. Requires age <
  /// shard_sealed_windows(). Same quiescence caveat.
  [[nodiscard]] const RhhhSpaceSaving& shard_sealed(std::uint32_t /*w*/,
                                                    std::size_t age) const noexcept {
    return ring_.sealed(age);
  }
  /// Sealed windows currently retained.
  [[nodiscard]] std::size_t shard_sealed_windows() const noexcept {
    return ring_.sealed_count();
  }
  /// The lattice nodes worker `w` owns (level order; empty for w >= H).
  [[nodiscard]] const std::vector<std::uint32_t>& owned_nodes(std::uint32_t w) const noexcept {
    return workers_[w]->nodes;
  }

  // -- estimator health layer (src/obs/health.hpp) --------------------------
  /// The certificate ledger, or nullptr (telemetry off or certificates
  /// disabled). Wire this into MetricsExporter for the /health route.
  [[nodiscard]] obs::HealthLedger* health() const noexcept {
    return health_.get();
  }
  /// The stall watchdog, or nullptr (telemetry off or watchdog_millis 0).
  [[nodiscard]] obs::StallWatchdog* watchdog() const noexcept {
    return watchdog_.get();
  }
  /// TEST HOOK: park worker `w`'s loop (it stops consuming and acking until
  /// unblocked or the engine stops) -- the deliberate stall the watchdog
  /// acceptance test injects. Never use outside tests: a blocked worker
  /// deadlocks any control operation that quiesces.
  void test_block_worker(std::uint32_t w) noexcept {
    // order: relaxed -- the worker polls this flag; nothing is published
    // through it and detection latency of one loop pass is fine.
    stall_worker_.store(w, std::memory_order_relaxed);
  }
  /// TEST HOOK: release a test_block_worker() park.
  void test_unblock_workers() noexcept {
    // order: relaxed -- same poll-only contract as test_block_worker().
    stall_worker_.store(kNoWorker, std::memory_order_relaxed);
  }

 private:
  struct WorkerState {
    std::vector<std::uint32_t> nodes;  ///< lattice nodes this worker owns
    std::thread thread;
    std::uint64_t epoch_acked = 0;  ///< guarded by ctl_mu_
    /// Packets and backend updates consumed since the last fold into the
    /// lattice. Written by the consuming thread only; read and reset by
    /// fold_stream() while the worker is parked or joined.
    std::uint64_t unfolded_packets = 0;
    std::uint64_t unfolded_updates = 0;
    alignas(kCacheLine) std::atomic<std::uint64_t> consumed{0};  ///< packets
  };
  /// What one drain consumed: records popped (progress) and the packets
  /// they account for (the budget and every counter).
  struct Drained {
    std::size_t records = 0;
    std::uint64_t packets = 0;
  };

  /// `self` sentinel for quiesced()/rotate_locked(): no worker is driving
  /// the control operation (an external caller or the fallback clock is).
  static constexpr std::uint32_t kNoWorker = ~std::uint32_t{0};
  /// A budget rotation later than the fallback clock's polling timeslice
  /// counts as late: the cooperative path missed its one-batch bound.
  static constexpr std::int64_t kLateRotationNs = 200'000;

  [[nodiscard]] SpscRing<SampledUpdate>& ring(std::uint32_t p, std::uint32_t w) noexcept {
    return *rings_[p * workers_.size() + w];
  }
  void worker_loop(std::uint32_t w);
  void clock_loop(std::uint64_t gen);
  /// Apply n popped records of ring (p, w) to worker w's nodes and count
  /// them; returns the packets they account for.
  std::uint64_t consume(std::uint32_t p, std::uint32_t w, const SampledUpdate* batch,
                        std::size_t n);
  /// One try_pop_n sweep over worker w's M rings.
  Drained drain_pass(std::uint32_t w, std::vector<SampledUpdate>& batch);
  /// Worker w's epoch-boundary drain: consume exactly the backlog visible
  /// in each of its rings right now (bounded by the observed size, so it
  /// terminates while producers keep pushing -- later arrivals belong to
  /// the next epoch). Runs on worker threads (at a quiesce boundary, as
  /// the self-drain of a cooperative rotator, or at shutdown) and once more
  /// from stop() after the workers are joined.
  void boundary_drain(std::uint32_t w, std::vector<SampledUpdate>& batch);
  /// Fold every worker's unfolded packets and updates into the live
  /// lattice. Runs with every worker parked (inside quiesced()) or joined.
  void fold_stream();
  /// Spend `n` consumed packets of the packet budget (the consumed-only
  /// basis: drops never pass through here). The decrement that crosses zero
  /// records the boundary instant for drift metering. Called at every batch
  /// boundary and from boundary_drain().
  void meter_consumed(std::uint64_t n);
  /// True when the packet or wall budget of the current window is spent.
  /// Lock-free and stale-tolerant: both rotation paths re-check under
  /// snap_mu_ before acting. The first observer of a wall-deadline crossing
  /// records the drift mark (the deadline itself), hence non-const.
  [[nodiscard]] bool budget_due();
  /// First observer of a spent budget records the boundary instant (the
  /// wall deadline, or steady-now for a packet-budget crossing); the next
  /// rotation meters its drift against it. First write per window wins; a
  /// write that races the budget reset is discarded by the validity check
  /// in rotate_locked() (it can cost one drift sample, never fake one).
  void note_budget_spent(std::int64_t mark_ns);
  /// Cooperative rotation attempt by worker w (which must hold the
  /// epoch-due token): try-locks snap_mu_ (never blocks -- a worker that
  /// waited here could deadlock a control op quiescing it), re-checks the
  /// budget, rotates. Returns false only when the lock was unavailable
  /// (keep the token, retry next batch); true means the claim is settled
  /// (rotated here, or a racer already reset the budget) and the token
  /// must be released.
  bool try_rotate_cooperative(std::uint32_t w, std::vector<SampledUpdate>& batch,
                              std::uint64_t& acked);
  [[nodiscard]] EngineStats collect_stats() const;
  struct ArchiveItem;  // defined with the archiver state below
  /// Archiver thread body: drains the sealed-window queue into `arch`
  /// until its generation is retired.
  void archive_loop(store::WindowArchive* arch, std::uint64_t gen);
  /// Enqueue the just-sealed shared window for the archiver (or drop +
  /// count on a full queue). Caller must hold snap_mu_, after the rotation
  /// completed.
  void enqueue_archive(std::shared_ptr<const RhhhSpaceSaving> window,
                       std::uint64_t sealed_drop, std::uint64_t duration_ns,
                       std::int64_t wall_start_ns, std::int64_t wall_end_ns);
  /// Archiver-side work for one queued window: append it to `arch`. Counts
  /// success/failure.
  void archive_one(store::WindowArchive* arch, const ArchiveItem& item);
  /// Parks every worker at the next quiesce boundary, runs fn while they
  /// are parked, resumes them; returns the quiesce generation. Caller must
  /// hold snap_mu_. When the caller IS a worker (cooperative rotation),
  /// pass its index and batch buffer: the worker performs its own boundary
  /// drain and self-acks the epoch instead of waiting on itself.
  template <class Fn>
  std::uint64_t quiesced(Fn&& fn, std::uint32_t self = kNoWorker,
                         std::vector<SampledUpdate>* self_batch = nullptr);
  /// Quiesce and copy the live lattice with the current window's drops
  /// folded in; fills the frozen stats and those drops. Caller must hold
  /// snap_mu_.
  std::unique_ptr<RhhhSpaceSaving> copy_live(EngineStats& s, std::uint64_t& drops);
  /// Why a window is sealed: a manual rotate_epoch() call, or a spent
  /// packet/wall budget (the cooperative rotator and the fallback clock).
  enum class RotationCause { kManual, kBudgetSpent };
  /// rotate_epoch() body; caller must hold snap_mu_. A kBudgetSpent
  /// rotation counts in budget_rotations_ whether or not the budget's drift
  /// mark has landed yet. `self`/`self_batch` as in quiesced(); a rotating
  /// worker's local ack mark is updated through `self_acked` so it does not
  /// re-park on its own boundary.
  void rotate_locked(RotationCause cause, std::uint32_t self = kNoWorker,
                     std::vector<SampledUpdate>* self_batch = nullptr,
                     std::uint64_t* self_acked = nullptr);
  /// Register this engine's instruments (histograms, counter-mirror and
  /// occupancy gauges) against cfg_.metrics / the global registry when
  /// cfg_.telemetry is set; called once from the constructor. With
  /// telemetry off every obs_ pointer stays null and the hot-path hooks
  /// compile down to a pointer test (the ablation_obs_overhead baseline).
  void bind_metrics();
  /// Unregister the gauge_fn samplers that capture `this` (they must not
  /// outlive the engine); registry-owned histograms/gauges stay, so
  /// successive engines accumulate into the same cumulative families.
  void unbind_metrics();
  /// Construct the health ledger and stall watchdog per cfg_.health (only
  /// with telemetry on); called once from the constructor after
  /// bind_metrics(). The watchdog thread itself starts/stops with the
  /// engine.
  void bind_health();
  /// Probe the just-sealed window and stamp its AccuracyCertificate into
  /// the ledger. Caller must hold snap_mu_, after the workers have resumed
  /// (sealed(0) is immutable until the next rotation, which needs
  /// snap_mu_).
  void stamp_certificate(std::uint64_t sealed_epoch, std::uint64_t sealed_drop);

  EngineConfig cfg_;
  std::unique_ptr<Hierarchy> hierarchy_;
  LatticeMode mode_;
  LatticeParams params_;  ///< resolved (kTenRhhh's V applied), base seed
  std::size_t pop_batch_;

  /// The one lattice ring: live + K sealed windows. Workers apply to their
  /// own nodes of live(); the coordinator rotates it under quiesce.
  WindowRing<RhhhSpaceSaving> ring_;
  /// owner_[node]: the worker that applies node's updates.
  std::vector<std::uint32_t> owner_;
  /// Workers owning at least one node: min(W, H). All-node records go to
  /// each of them.
  std::uint32_t active_workers_ = 0;

  std::vector<std::unique_ptr<SpscRing<SampledUpdate>>> rings_;  ///< [p * W + w]
  std::vector<std::unique_ptr<WorkerState>> workers_;
  std::vector<std::unique_ptr<Producer>> producers_;

  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> ring_dropped_;  ///< [p * W + w]
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> ring_pushed_;   ///< [p * W + w]
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> ring_popped_;   ///< [p * W + w]
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> backpressure_;  ///< [p]

  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> epoch_req_{0};
  std::atomic<std::uint64_t> epoch_resume_{0};
  std::mutex ctl_mu_;               ///< guards epoch_acked + the cv below
  std::condition_variable ctl_cv_;
  std::mutex snap_mu_;              ///< serializes snapshot/rotate/start/stop

  // Window bookkeeping. The atomics are written under snap_mu_ (rotations
  // are serialized) but read lock-free: window_epochs_ by detection loops
  // polling for new windows, the budget countdown/deadline by workers
  // metering the epoch budget at batch boundaries and by the fallback
  // clock, neither touching snap_mu_ until a rotation is actually due (so
  // frequent snapshots cannot starve either path).
  std::atomic<std::uint64_t> window_epochs_{0};
  std::uint64_t win_drops_base_ = 0;  ///< total drops at the last rotation
  /// Drops attributed to each retained sealed window, by age (index 0 = the
  /// newest sealed window); size == cfg_.history_depth, slots beyond
  /// shard_sealed_windows() are zero. Written under snap_mu_.
  std::vector<std::uint64_t> sealed_drops_;
  /// Steady-clock live duration of each retained sealed window, by age
  /// (parallel to sealed_drops_). Written under snap_mu_.
  std::vector<std::uint64_t> sealed_durations_ns_;
  /// Packet-budget countdown for the current window: reset to epoch_packets
  /// at every boundary (inside the quiesced rotation, all workers parked),
  /// decremented by each worker's consumed batch size. The worker whose
  /// decrement crosses zero is the budget's first observer. May go negative
  /// transiently (several workers decrement concurrently); <= 0 means spent.
  std::atomic<std::int64_t> epoch_budget_left_{0};
  /// Wall-budget deadline (steady-clock ns) for the current window; 0 when
  /// no wall budget is configured. Reset at every boundary.
  std::atomic<std::int64_t> epoch_deadline_ns_{0};
  /// Steady-clock instant the current window's budget was first observed
  /// spent (0 = not yet): the ideal boundary the next rotation meters its
  /// drift against. For a wall crossing this is the deadline itself; for a
  /// packet crossing, the observer's now().
  std::atomic<std::int64_t> budget_spent_ns_{0};
  /// Cooperative rotator-election token: the worker whose CAS flips it
  /// false->true owns the rotation attempt (and keeps ownership across
  /// batches while snap_mu_ is busy). Released by the claimant only.
  std::atomic<bool> epoch_due_{false};
  // Drift bookkeeping (budget-driven rotations only; manual rotate_epoch()
  // calls have no ideal boundary to drift from). A budget rotation whose
  // drift mark had not landed yet counts without a drift sample.
  std::atomic<std::uint64_t> budget_rotations_{0};
  std::atomic<std::uint64_t> drift_samples_{0};
  std::atomic<std::uint64_t> drift_ns_total_{0};
  std::atomic<std::uint64_t> late_rotations_{0};  ///< drift > kLateRotationNs
  std::atomic<std::int64_t> win_started_ns_{0};  ///< boundary steady-clock ns
  std::int64_t win_started_wall_ns_ = 0;  ///< boundary system-clock ns (snap_mu_)
  /// Bumped by stop() to retire the current clock thread. stop() joins the
  /// moved-out handle after releasing snap_mu_ (joining under the lock
  /// would deadlock against a clock blocked on it for a rotation), so a
  /// concurrent start() can already be spawning the next clock generation;
  /// the token keeps the retired thread from ever rotating again.
  std::atomic<std::uint64_t> clock_gen_{0};
  std::thread clock_thread_;

  // The retained sealed windows, each copied once at its rotation with its
  // drops folded in, by age (0 = newest). Immutable and shared: trend and
  // window snapshots hand them out by shared_ptr and the archiver persists
  // them, so no sealed window is ever copied twice. Written under snap_mu_.
  std::vector<std::shared_ptr<const RhhhSpaceSaving>> sealed_;
  /// window_epochs_ at the last trend_snapshot(): a poll that finds it
  /// unchanged counts as a trend_cache_hits_ hit.
  std::uint64_t trend_cache_epoch_ = ~std::uint64_t{0};
  std::atomic<std::uint64_t> trend_cache_hits_{0};

  // Background archiver (EngineConfig::archive). The queue is bounded:
  // rotations enqueue the shared sealed window (or drop + count) and never
  // wait; the archiver serializes it (byte-identical to trend_snapshot()'s
  // view, since it IS that view) and appends it to the segment log.
  // start() opens the store and spawns the thread; stop() retires the
  // generation, joins, drains the remainder synchronously and seals the
  // segment. Queue state under arch_mu_.
  struct ArchiveItem {
    store::WindowMeta meta;
    std::shared_ptr<const RhhhSpaceSaving> window;
  };
  std::deque<ArchiveItem> archive_q_;
  std::mutex arch_mu_;
  std::condition_variable arch_cv_;
  std::atomic<std::uint64_t> archive_gen_{0};
  std::thread archive_thread_;
  std::unique_ptr<store::WindowArchive> archive_;
  std::atomic<std::uint64_t> archived_windows_{0};
  std::atomic<std::uint64_t> archive_queue_drops_{0};
  std::atomic<std::uint64_t> archive_errors_{0};

  // Always-on telemetry (src/obs/, EngineConfig::telemetry). Instruments
  // are owned by the registry; these are cached lookups so the hot path
  // records through a raw pointer (null = telemetry off). `owned` lists
  // the gauge_fn names whose samplers capture `this` -- unbind_metrics()
  // removes exactly those in the destructor.
  struct Obs {
    obs::MetricsRegistry* reg = nullptr;
    obs::Histogram* push_ns = nullptr;        ///< producer batch push latency
    obs::Histogram* pop_ns = nullptr;         ///< worker drain-pass latency
    obs::Histogram* batch_fill = nullptr;     ///< records consumed per drain pass
    obs::Histogram* quiesce_ns = nullptr;     ///< request -> all-acked wait
    obs::Histogram* rotation_ns = nullptr;    ///< full rotate_locked() cost
    obs::Histogram* rotation_drift_ns = nullptr;  ///< budget-spent -> rotation
    obs::Histogram* snapshot_ns = nullptr;    ///< snapshot/window_snapshot time
    obs::Histogram* trend_ns = nullptr;       ///< trend_snapshot time
    obs::Gauge* archive_q_depth = nullptr;    ///< sealed windows queued
    obs::TraceRing* trace = nullptr;          ///< global control-plane trace
    std::vector<std::string> owned;           ///< gauge_fn names to unregister
  };
  Obs obs_;

  // Estimator health layer (src/obs/health.hpp, cfg_.health): certificate
  // ledger stamped at rotation under snap_mu_, watchdog thread sampling
  // lock-free progress state. Both null when telemetry is off.
  std::unique_ptr<obs::HealthLedger> health_;
  std::unique_ptr<obs::StallWatchdog> watchdog_;
  /// Test-only stall injection: the worker whose index matches parks in its
  /// loop until the flag clears or the engine stops (kNoWorker = none).
  std::atomic<std::uint32_t> stall_worker_{kNoWorker};
};

}  // namespace rhhh

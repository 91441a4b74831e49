// The traced run: paired untraced / traced trials for the tracing overhead,
// then one pass per library layer over the workload's own stream, each
// call wrapped in a span. Reports the per-layer metrics, each layer's self
// time, and the ledger of per-layer costs along the blocking thread beside
// the end-to-end ns/packet.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <string>

#include "engine/shard_router.hpp"
#include "obs/metrics.hpp"
#include "stats.hpp"
#include "store/archive.hpp"
#include "store/serde.hpp"
#include "trials.hpp"
#include "util/spsc_ring.hpp"
#include "vswitch/datapath.hpp"

namespace perfbench {

using namespace rhhh;

namespace {

/// Untraced / traced trial pairs per traced run.
constexpr int kTracedPairs = 2;
/// Repetitions of the millisecond-scale control-plane layer calls.
constexpr int kCallRepeats = 5;
/// Records per push / pop span in the ring transfer pass.
constexpr std::size_t kChunk = 8192;

volatile std::uint64_t g_sink = 0;  // keeps measured loops from being elided

struct LayerPass {
  Tracer& tr;
  /// Times f() in one span; returns ns.
  template <class F>
  std::int64_t time(const char* name, F&& f) {
    Tracer::Scope s(tr, name);
    f();
    return s.close();
  }
  /// Median over kCallRepeats spans of f(), in ms.
  template <class F>
  double median_ms(const char* name, F&& f) {
    std::vector<double> ms;
    for (int k = 0; k < kCallRepeats; ++k) ms.push_back(static_cast<double>(time(name, f)) * 1e-6);
    return median(ms);
  }
};

double per(std::int64_t ns, std::size_t n) {
  return n == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(n);
}

struct LayerNumbers {
  double key_of_ns = 0, route_buffer_ns = 0, spsc_push_ns = 0, spsc_pop_ns = 0;
  double sample_apply_ns = 0, survivor_share = 0, evictions_per_update = 0;
  double hh_increment_ns = 0, update_ns = 0, merge_ms = 0, output_ms = 0;
  double encode_ms = 0, append_ms = 0, cold_query_ms = 0, scrape_ms = 0;
  double process_ns = 0, emc_hit_share = 0, ring_rotate_us = 0;
  std::size_t output_candidates = 0;
};

LayerNumbers layer_passes(const RunOptions& opt, const Hierarchy& h, const Inputs& in,
                          const Trial& traced, Tracer& tr) {
  const WorkloadSpec& w = *opt.spec;
  LayerPass lp{tr};
  LayerNumbers L;
  const std::size_t n = in.keys.size();
  const MonitorConfig mc = monitor_config(w, opt.seed);
  const auto [mode, params] = lattice_config_of(h, mc);
  const std::uint32_t W = w.workers;

  // hierarchy: key mapping of every packet.
  {
    std::vector<Key128> out(n);
    const std::int64_t ns = lp.time("hierarchy.key_of", [&] {
      for (std::size_t i = 0; i < n; ++i) out[i] = h.key_of(in.records[i]);
    });
    g_sink = g_sink + out[n / 2].lo;
    L.key_of_ns = per(ns, n);
  }

  // engine: the producer's route + per-worker batch buffer, as the engine
  // routes (key hash salted by the lattice seed).
  std::vector<Key128> shard0;
  {
    ShardRouter router(ShardPolicy::kKeyHash, W, params.seed);
    std::vector<std::vector<Key128>> buf(W);
    for (auto& b : buf) b.reserve(kEngineBatch);
    std::uint64_t flushed = 0;
    const std::int64_t ns = lp.time("engine.route_buffer", [&] {
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t s = router.route(in.keys[i]);
        auto& b = buf[s];
        b.push_back(in.keys[i]);
        if (b.size() >= kEngineBatch) {
          flushed += b.back().lo;
          b.clear();
        }
      }
    });
    g_sink = g_sink + flushed;
    L.route_buffer_ns = per(ns, n);
    ShardRouter again(ShardPolicy::kKeyHash, W, params.seed);
    for (const Key128& k : in.keys) {
      if (again.route(k) == 0) shard0.push_back(k);
    }
  }

  // util: SPSC ring transfer at the engine batch, pushed and popped in
  // chunks so each half gets its own spans.
  {
    SpscRing<Key128> ring(kDefaultRing);
    std::vector<Key128> out(kEngineBatch);
    std::int64_t push_ns = 0;
    std::int64_t pop_ns = 0;
    Tracer::Scope all(tr, "util.spsc_transfer");
    for (std::size_t lo = 0; lo + kChunk <= n; lo += kChunk) {
      push_ns += lp.time("util.spsc_push", [&] {
        for (std::size_t i = lo; i < lo + kChunk; i += kEngineBatch) {
          std::size_t done = 0;
          while (done < kEngineBatch) {
            done += ring.try_push_n(in.keys.data() + i + done, kEngineBatch - done);
          }
        }
      });
      pop_ns += lp.time("util.spsc_pop", [&] {
        std::size_t got = 0;
        while (got < kChunk) {
          got += ring.try_pop_n(out.data(), kEngineBatch);
          g_sink = g_sink + out[0].lo;
        }
      });
    }
    all.close();
    const std::size_t moved = (n / kChunk) * kChunk;
    L.spsc_push_ns = per(push_ns, moved);
    L.spsc_pop_ns = per(pop_ns, moved);
  }

  // hhh: batched sample + apply on shard 0's substream, one warm pass then
  // two timed passes (rosters full and evicting).
  {
    RhhhSpaceSaving lat(h, mode, params);
    const auto feed = [&] {
      for (std::size_t i = 0; i < shard0.size(); i += kEngineBatch) {
        lat.update_batch(shard0.data() + i, std::min(kEngineBatch, shard0.size() - i));
      }
    };
    feed();
    const std::uint64_t n0 = lat.stream_length();
    const std::uint64_t u0 = lat.updates_performed();
    std::uint64_t ev0 = 0;
    for (const BackendProbe& p : lat.health_probes()) ev0 += p.evictions;
    const std::int64_t ns = lp.time("hhh.sample_apply", [&] {
      feed();
      feed();
    });
    const std::uint64_t pk = lat.stream_length() - n0;
    const std::uint64_t up = lat.updates_performed() - u0;
    std::uint64_t ev = 0;
    for (const BackendProbe& p : lat.health_probes()) ev += p.evictions;
    L.sample_apply_ns = per(ns, pk);
    L.survivor_share = pk == 0 ? 0.0 : static_cast<double>(up) / static_cast<double>(pk);
    L.evictions_per_update = up == 0 ? 0.0 : static_cast<double>(ev - ev0) / static_cast<double>(up);

    // hh: the Space-Saving backend alone, on the substream's full keys.
    SpaceSaving<Key128> ss(lat.counters_per_node());
    for (const Key128& k : shard0) ss.increment(k);
    const std::int64_t hh_ns = lp.time("hh.increment", [&] {
      for (const Key128& k : shard0) ss.increment(k);
    });
    g_sink = g_sink + ss.total();
    L.hh_increment_ns = per(hh_ns, shard0.size());
  }

  // hhh: unbatched per-packet update() through the dataplane hook.
  {
    const std::unique_ptr<HhhAlgorithm> alg = make_algorithm(h, mc);
    HhhHook hook(*alg);
    for (const PacketRecord& p : in.records) hook.on_packet(p);
    const std::int64_t ns = lp.time("hhh.update", [&] {
      for (const PacketRecord& p : in.records) hook.on_packet(p);
    });
    L.update_ns = per(ns, n);
  }

  // hhh: merge of the trial's W shard lattices, and output on the answer.
  L.merge_ms = lp.median_ms("hhh.merge", [&] {
    RhhhSpaceSaving merged(h, traced.shards[0]->mode(), traced.shards[0]->params());
    for (const auto& s : traced.shards) merged.merge(*s);
    g_sink = g_sink + merged.stream_length();
  });
  L.output_ms = lp.median_ms("hhh.output", [&] {
    L.output_candidates = traced.answer->output(w.theta).size();
  });

  // store: encode, append and a cold read of the trial's sealed windows
  // (the answer lattice eight times for workloads without windows).
  std::vector<const RhhhSpaceSaving*> wins;
  for (const auto& win : traced.windows) wins.push_back(win.get());
  while (wins.size() < kHistoryDepth) wins.push_back(traced.answer.get());
  store::WindowMeta meta;
  meta.stream_length = traced.answer->stream_length();
  meta.updates = traced.answer->updates_performed();
  L.encode_ms = lp.median_ms("store.encode_window", [&] {
    g_sink = g_sink + store::encode_window(meta, HierarchyKind::kIpv4TwoDimBytes, *traced.answer).size();
  });
  {
    ArchiveConfig ac;
    ac.dir = opt.out_dir + "/archive-" + std::to_string(getpid()) + "-layers";
    std::filesystem::remove_all(ac.dir);
    std::vector<double> append_ms;
    {
      store::WindowArchive arch = store::WindowArchive::open_write(ac);
      std::uint64_t epoch = 0;
      for (const RhhhSpaceSaving* win : wins) {
        store::WindowMeta m;
        m.epoch = ++epoch;
        m.stream_length = win->stream_length();
        m.updates = win->updates_performed();
        append_ms.push_back(static_cast<double>(lp.time("store.append", [&] {
                              arch.append(m, HierarchyKind::kIpv4TwoDimBytes, *win);
                            })) * 1e-6);
      }
      arch.close();
    }
    L.append_ms = median(append_ms);
    L.cold_query_ms = lp.median_ms("store.cold_query", [&] {
      const store::WindowArchive arch = store::WindowArchive::open_read(ac.dir);
      g_sink = g_sink + arch.merged_last(kHistoryDepth)->stream_length();
    });
    std::filesystem::remove_all(ac.dir);
  }

  // obs: a full Prometheus scrape of the process registry after the run.
  L.scrape_ms = lp.median_ms("obs.scrape", [&] {
    g_sink = g_sink + obs::MetricsRegistry::global().render_prometheus().size();
  });

  // vswitch: the datapath without a measurement hook, warm then timed.
  {
    Datapath dp;
    dp.run(in.records);
    const Datapath::Stats before = dp.stats();
    const std::int64_t ns = lp.time("vswitch.process", [&] { dp.run(in.records); });
    const Datapath::Stats after = dp.stats();
    L.process_ns = per(ns, n);
    const std::uint64_t recv = after.received - before.received;
    L.emc_hit_share = recv == 0 ? 0.0
                                : static_cast<double>(after.emc_hits - before.emc_hits) /
                                      static_cast<double>(recv);
  }

  // core: WindowRing rotation (clears the oldest window's lattice).
  {
    WindowRing<RhhhSpaceSaving> ring(kHistoryDepth, [&](std::size_t slot) {
      LatticeParams p = params;
      p.seed = mix64(params.seed ^ slot);
      return std::make_unique<RhhhSpaceSaving>(h, mode, p);
    });
    const std::size_t fill = std::min<std::size_t>(shard0.size(), 1 << 16);
    std::vector<double> us;
    for (std::size_t k = 0; k < 2 * (kHistoryDepth + 1); ++k) {
      {
        Tracer::Scope s(tr, "bench.ring_fill");
        ring.live().update_batch(shard0.data(), fill);
      }
      us.push_back(static_cast<double>(lp.time("core.ring_rotate", [&] { ring.rotate(); })) * 1e-3);
    }
    L.ring_rotate_us = median(us);
  }
  return L;
}

double share(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

void run_traced(const RunOptions& opt, const Hierarchy& h, const Inputs& in,
                const Reference& ref, RunResult& res) {
  const WorkloadSpec& w = *opt.spec;
  Tracer tracer(mix64(opt.seed ^ static_cast<std::uint64_t>(now_ns())));
  tracer.begin("bench.run");

  // Paired trials: untraced first, then traced, for the tracing overhead.
  TrialConfig plain;
  TrialConfig traced = plain;
  traced.tracer = &tracer;
  CheckMemo memo;
  // Untimed warm-up, as in the untraced run.
  (void)run_trial(opt, h, in, ref, plain, -1, memo, res);
  std::vector<double> untraced_mpps;
  std::vector<double> traced_mpps;
  std::vector<double> queries;  // the paired trials' query latencies
  Trial first_plain;
  Trial last_traced;
  for (int i = 0; i < kTracedPairs; ++i) {
    Trial u = run_trial(opt, h, in, ref, plain, 2 * i, memo, res);
    untraced_mpps.push_back(u.ingest_mpps);
    queries.insert(queries.end(), u.query_ms.begin(), u.query_ms.end());
    if (i == 0) first_plain = std::move(u);
    Trial t = run_trial(opt, h, in, ref, traced, 2 * i + 1, memo, res);
    traced_mpps.push_back(t.ingest_mpps);
    queries.insert(queries.end(), t.query_ms.begin(), t.query_ms.end());
    last_traced = std::move(t);
  }
  // windowed_trend: one more traced trial with rotate_epoch() driven by the
  // benchmark at the budget positions, so each rotation is its own span.
  Trial manual;
  if (w.kind == Kind::kWindowed) {
    TrialConfig m = traced;
    m.manual_rotation = true;
    manual = run_trial(opt, h, in, ref, m, 2 * kTracedPairs, memo, res);
  }

  const LayerNumbers L = layer_passes(opt, h, in, last_traced, tracer);
  tracer.end();

  const std::string spans_path = opt.out_dir + "/spans-" + std::string(w.name) + "-" +
                                 std::to_string(opt.seed) + ".json";
  if (!write_spans_json(tracer.spans(), spans_path)) {
    res.errors.push_back("cannot write spans to " + spans_path);
  }

  // -- per-layer metrics -----------------------------------------------------
  const EngineStats& st = first_plain.stats;
  const Trial& rot = w.kind == Kind::kWindowed ? manual : last_traced;
  res.add("hierarchy.key_of_ns", L.key_of_ns, "ns");
  res.add("engine.route_buffer_ns", L.route_buffer_ns, "ns");
  res.add("engine.producer_busy_ns", last_traced.producer_busy_ns, "ns");
  res.add("util.spsc_transfer_ns", L.spsc_push_ns + L.spsc_pop_ns, "ns");
  res.add("engine.backpressure_per_mpkt",
          static_cast<double>(st.backpressure_waits) / (static_cast<double>(st.offered) * 1e-6),
          "1/Mpkt");
  {
    const auto& pw = st.per_worker_consumed;
    const double mean = static_cast<double>(std::accumulate(pw.begin(), pw.end(), std::uint64_t{0})) /
                        static_cast<double>(pw.size());
    res.add("engine.shard_skew",
            static_cast<double>(*std::max_element(pw.begin(), pw.end())) / mean, "ratio");
  }
  res.add("hhh.sample_apply_ns", L.sample_apply_ns, "ns");
  res.add("hhh.survivor_share", L.survivor_share, "ratio");
  res.add("hhh.update_ns", L.update_ns, "ns");
  res.add("hh.evictions_per_update", L.evictions_per_update, "ratio");
  res.add("hh.increment_ns", L.hh_increment_ns, "ns");
  res.add("hhh.merge_ms", L.merge_ms, "ms");
  res.add("hhh.output_ms", L.output_ms, "ms");
  res.add("hhh.output_candidates", static_cast<double>(L.output_candidates), "count");
  res.add("engine.snapshot_ms", last_traced.snapshot_ms, "ms");
  res.add("engine.trend_snapshot_ms", median(rot.trend_snapshot_ms), "ms");
  res.add("engine.trend_cache_hit_share",
          share(rot.stats.trend_cache_hits, rot.trend_queries), "ratio");
  res.add("engine.rotate_ms", median(rot.rotate_ms), "ms");
  res.add("engine.rotation_drift_ns",
          st.budget_rotations == 0 ? 0.0
                                   : static_cast<double>(st.rotation_drift_ns_total) /
                                         static_cast<double>(st.budget_rotations),
          "ns");
  res.add("store.encode_ms", L.encode_ms, "ms");
  res.add("store.append_ms", L.append_ms, "ms");
  res.add("store.cold_query_ms", L.cold_query_ms, "ms");
  res.add("obs.scrape_ms", L.scrape_ms, "ms");
  res.add("vswitch.process_ns", L.process_ns, "ns");
  res.add("vswitch.emc_hit_share", L.emc_hit_share, "ratio");
  res.add("core.ring_rotate_us", L.ring_rotate_us, "us");
  res.add("answer.false_positive_ratio", first_plain.false_positive_ratio, "ratio");
  res.add("detect_kpkt", static_cast<double>(first_plain.detect_pkts) * 1e-3, "kpkt");
  // The query tail: reported here rather than end to end, with at least
  // ten samples beyond it.
  if (percentile_supported(queries.size(), 90)) {
    res.add("query.p90_ms", percentile(queries, 90), "ms");
  } else {
    res.errors.push_back("too few query samples for p90: " + std::to_string(queries.size()));
  }

  // -- self time per layer ---------------------------------------------------
  const auto self = layer_self_ns(tracer.spans());
  for (const char* layer : {"bench", "hierarchy", "engine", "util", "hhh", "hh", "core",
                            "store", "obs", "vswitch"}) {
    const auto it = self.find(layer);
    res.add(std::string(layer) + ".self_ms",
            it == self.end() ? 0.0 : static_cast<double>(it->second) * 1e-6, "ms");
  }

  // -- tracing overhead ------------------------------------------------------
  const double plain_mpps = median(untraced_mpps);
  const double traced_med = median(traced_mpps);
  res.add("trace.untraced_mpps", plain_mpps, "Mpps");
  res.add("trace.traced_mpps", traced_med, "Mpps");
  res.add("trace.overhead_share", 1.0 - traced_med / plain_mpps, "ratio");

  // -- ledger: per-layer ns/packet along the blocking thread -----------------
  const double e2e = 1e3 / plain_mpps;
  std::vector<std::pair<std::string, double>> producer;
  if (w.feed_records) producer.emplace_back("hierarchy.key_of", L.key_of_ns);
  producer.emplace_back("engine.route_buffer", L.route_buffer_ns);
  producer.emplace_back("util.spsc_push", L.spsc_push_ns);
  // The busiest worker pops and applies its share of every offered packet.
  const auto& pw = st.per_worker_consumed;
  const double busiest = share(*std::max_element(pw.begin(), pw.end()), st.consumed);
  std::vector<std::pair<std::string, double>> worker = {
      {"util.spsc_pop", L.spsc_pop_ns * busiest},
      {"hhh.sample_apply", L.sample_apply_ns * busiest}};
  const auto sum = [](const auto& v) {
    double s = 0;
    for (const auto& [name, ns] : v) s += ns;
    return s;
  };
  std::vector<std::pair<std::string, double>> stages =
      sum(producer) >= sum(worker) ? producer : worker;
  if (w.kind == Kind::kWindowed) {
    // Quiescing control calls stall every thread.
    double ctl_ms = 0;
    for (const double q : first_plain.query_ms) ctl_ms += q;
    stages.emplace_back("engine.trend_query", ctl_ms * 1e6 / static_cast<double>(in.total));
    double rot_ms = 0;
    for (const double r : manual.rotate_ms) rot_ms += r;
    stages.emplace_back("engine.rotate", rot_ms * 1e6 / static_cast<double>(in.total));
  }
  double blocking = 0;
  std::string line = "perfbench: ledger " + std::string(w.name) + ":";
  for (const auto& [name, ns] : stages) {
    blocking += ns;
    char buf[96];
    std::snprintf(buf, sizeof buf, " %s %.2f", name.c_str(), ns);
    line += buf;
  }
  char tail[160];
  std::snprintf(tail, sizeof tail,
                " | sum %.2f ns/pkt vs end-to-end %.2f ns/pkt, gap %.1f%%", blocking, e2e,
                100.0 * (e2e - blocking) / e2e);
  std::fprintf(stderr, "%s%s\n", line.c_str(), tail);
  res.add("ledger.blocking_ns", blocking, "ns");
  res.add("ledger.e2e_ns", e2e, "ns");
  res.add("ledger.gap_share", (e2e - blocking) / e2e, "ratio");
  res.add("answer.failure_share",
          res.attempted == 0 ? 0.0
                             : static_cast<double>(res.failed) / static_cast<double>(res.attempted),
          "ratio");
}

}  // namespace perfbench

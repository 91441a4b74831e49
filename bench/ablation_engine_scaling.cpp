// Ablation: engine ingest throughput vs worker count vs V.
//
// Two panels time end-to-end ingest (one HhhEngine, lattice nodes dealt
// across the workers, lossless blocking overflow) -- from the first push
// until every record has been applied:
//   * W producer threads feed W workers (W = 1, 2, 4), the diagonal;
//   * one producer feeds W = 1, 2, 3 workers, so worker scaling shows
//     without oversubscribing a small host.
// Every row prints its busy threads over the host's hardware threads. V
// sweeps the paper's performance parameter on top: V = H ships and
// applies every packet, V = 10H draws at the producers and ships only ~10%
// of them, so the workers' share drops and the producers' draw dominates.
// Drop, backpressure and epoch
// counters from the final snapshot are part of the table (and the --json
// mirror), so multi-core trajectories are tracked in BENCH_*.json.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_common.hpp"
#include "engine/engine.hpp"

using namespace rhhh;
using namespace rhhh::bench;

namespace {

struct Cell {
  RunningStats mpps;
  EngineStats last{};
};

/// `producers` threads feed `workers` workers; each run ingests the whole
/// stream, split evenly across the producers.
Cell run_config(const Args& args, const std::vector<Key128>& keys,
                std::uint32_t producers, std::uint32_t workers, std::uint32_t mult) {
  Cell c;
  for (int r = 0; r < args.runs; ++r) {
    EngineConfig cfg;
    cfg.monitor.hierarchy = HierarchyKind::kIpv4TwoDimBytes;
    cfg.monitor.algorithm = mult == 1 ? AlgorithmKind::kRhhh : AlgorithmKind::kTenRhhh;
    cfg.monitor.eps = args.eps;
    cfg.monitor.delta = args.delta;
    cfg.monitor.seed = args.seed + static_cast<std::uint64_t>(r);
    cfg.workers = workers;
    cfg.producers = producers;
    cfg.ring_capacity = 1 << 16;
    cfg.batch = 256;
    cfg.overflow = OverflowPolicy::kBlock;  // lossless: Mpps counts real work
    const std::unique_ptr<HhhEngine> eng = make_engine(cfg);
    eng->start();

    const double t0 = now_sec();
    std::vector<std::thread> threads;
    for (std::uint32_t p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        HhhEngine::Producer& prod = eng->producer(p);
        const std::size_t lo = keys.size() * p / producers;
        const std::size_t hi = keys.size() * (p + 1) / producers;
        for (std::size_t i = lo; i < hi; ++i) prod.ingest(keys[i]);
        prod.flush();
      });
    }
    for (std::thread& t : threads) t.join();
    eng->stop();  // drains every ring: all n records consumed
    const double dt = now_sec() - t0;
    c.mpps.add(static_cast<double>(keys.size()) / dt / 1e6);
    c.last = eng->snapshot().stats();
  }
  return c;
}

/// Busy threads over hardware threads, e.g. "3/4": above 1 the sweep
/// measures time-slicing, not scaling. Not a number, so the trajectory
/// checker never gates it.
std::string oversubscription_cell(std::uint32_t producers, std::uint32_t workers) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::to_string(producers + workers) + "/" + std::to_string(hw);
}

}  // namespace

int main(int argc, char** argv) {
  Args args = Args::parse(argc, argv);
  print_figure_header(
      "Engine scaling",
      "Engine aggregate throughput (Mpps) vs workers vs V, 2D bytes",
      args);

  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  const auto n = static_cast<std::size_t>(4e6 * args.scale);
  const std::vector<Key128>& keys = trace_keys(h, "chicago16", n);

  // W producers x W workers: the diagonal the trajectory gate tracks.
  print_row({"workers", "V/H", "Mpps (95% CI)", "drops", "backpressure", "epochs",
             "threads/nproc"});
  for (const std::uint32_t workers : {1u, 2u, 4u}) {
    for (const std::uint32_t mult : {1u, 10u}) {
      const Cell c = run_config(args, keys, workers, workers, mult);
      print_row({std::to_string(workers), xcell(std::to_string(mult)),
                 ci_cell(c.mpps), std::to_string(c.last.dropped),
                 std::to_string(c.last.backpressure_waits),
                 std::to_string(c.last.epochs), oversubscription_cell(workers, workers)});
    }
  }

  // One producer, W workers: producers decoupled from workers, so worker
  // scaling shows without oversubscribing the host.
  std::printf("\n-- 1 producer x W workers --\n");
  print_row({"producers x workers", "V/H", "Mpps (95% CI)", "drops", "backpressure",
             "epochs", "threads/nproc"});
  for (const std::uint32_t workers : {1u, 2u, 3u}) {
    for (const std::uint32_t mult : {1u, 10u}) {
      const Cell c = run_config(args, keys, 1, workers, mult);
      print_row({"1x" + std::to_string(workers), xcell(std::to_string(mult)),
                 ci_cell(c.mpps), std::to_string(c.last.dropped),
                 std::to_string(c.last.backpressure_waits),
                 std::to_string(c.last.epochs), oversubscription_cell(1, workers)});
    }
  }
  std::printf(
      "\n(expected shape: aggregate Mpps grows with workers while cores last\n"
      " [this host: %u hardware threads; threads/nproc above 1 means the row\n"
      " time-slices]; V = 10H draws at the producers and ships ~1 packet in\n"
      " 10, so one producer binds before transport does and adding workers\n"
      " behind it helps V = H far more than V = 10H)\n",
      std::thread::hardware_concurrency());
  return 0;
}

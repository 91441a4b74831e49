// Ablation: the batched hot-path update pipeline.
//
// LatticeHhh::update_batch stages each popped batch through three passes --
// the sample draw (BlockSampler::draw: the block's survivors in packet
// order; at V > H it skips from survivor to survivor by geometric gaps, at
// V == H it takes one Lemire draw per packet), the survivor build (mask +
// hash), and a prefetched apply loop that walks survivors with the
// backend's hash/probe split -- while remaining byte-identical to
// per-packet update() (tests/test_batch.cpp pins this). This bench
// isolates where the speedup comes from and what it costs:
//
//   * sample draw: BlockSampler::draw alone, ns per packet in 64-packet
//     blocks (the engine producer's block size) at V = H, 2H, 10H, 100H --
//     the "sample draw" stage of the layer ledger. At V > H the cost
//     follows the survivors, so it falls with V.
//   * batch size sweep: per-packet baseline vs update_batch at growing
//     batch sizes (amortization of the draw and the survivor list).
//   * prefetch distance sweep: the apply-loop lookahead at a fixed batch
//     size, including 0 (prefetching disabled -- isolates the draw and the
//     build from memory-level parallelism).
//   * mode x backend panel: batched speedup across lattice modes and the
//     three pipelined backends. 10-RHHH is the paper's deployment point:
//     ~9/10 packets never leave the draw, so the apply loop sees a dense
//     stream of real work.
//
// The "speedup" column is the acceptance metric: 10-RHHH batched over
// per-packet must hold >= 1.3x single-core.
#include <cstdio>
#include <string>
#include <vector>

#include "common/bench_common.hpp"
#include "hh/count_min.hpp"
#include "hh/count_sketch.hpp"
#include "hhh/lattice_hhh.hpp"
#include "util/random.hpp"

using namespace rhhh;
using namespace rhhh::bench;

namespace {

/// One pass over `keys`; batch = 0 means the per-packet update() path,
/// otherwise update_batch in `batch`-sized chunks.
template <class Backend>
void feed(LatticeHhh<Backend>& alg, const std::vector<Key128>& keys,
          std::size_t batch) {
  if (batch == 0) {
    for (const Key128& k : keys) alg.update(k);
  } else {
    for (std::size_t i = 0; i < keys.size(); i += batch) {
      alg.update_batch(keys.data() + i, std::min(batch, keys.size() - i));
    }
  }
}

/// Mpps over `runs` timed passes of one lattice instance: construct once,
/// warm the counter arrays with an untimed quarter-pass, then clear + time
/// (clear() keeps the allocations, so runs measure steady state, not page
/// faults).
template <class Backend>
RunningStats measure(const Hierarchy& h, LatticeMode mode, LatticeParams lp,
                     const std::vector<Key128>& keys, std::size_t batch,
                     int runs, std::uint64_t seed) {
  lp.seed = seed;
  LatticeHhh<Backend> alg(h, mode, lp);
  const std::vector<Key128> warm(keys.begin(),
                                 keys.begin() + static_cast<std::ptrdiff_t>(
                                                    keys.size() / 4));
  feed(alg, warm, batch);
  RunningStats s;
  for (int r = 0; r < runs; ++r) {
    alg.clear();
    const double t0 = now_sec();
    feed(alg, keys, batch);
    const double dt = now_sec() - t0;
    if (alg.stream_length() != keys.size()) std::printf("?");  // keep alg alive
    s.add(static_cast<double>(keys.size()) / dt / 1e6);
  }
  return s;
}

/// ns per packet of BlockSampler::draw alone over `packets` packets in
/// 64-packet blocks; `survivors` receives the survivor share of the last
/// run.
RunningStats measure_draw(std::uint32_t V, std::uint32_t H, std::size_t packets,
                          int runs, std::uint64_t seed, double& survivors) {
  constexpr std::size_t kBlock = 64;
  BlockSampler s(LatticeMode::kRhhh, V, H, 1, seed);
  RunningStats st;
  std::uint64_t sink = 0;
  for (int r = 0; r < runs; ++r) {
    std::uint64_t m = 0;
    const double t0 = now_sec();
    for (std::size_t i = 0; i < packets; i += kBlock) {
      const std::size_t got = s.draw(kBlock);
      m += got;
      if (got != 0) sink ^= s.picks()[got - 1];
    }
    const double dt = now_sec() - t0;
    st.add(dt * 1e9 / static_cast<double>(packets));
    survivors = static_cast<double>(m) / static_cast<double>(packets);
  }
  if (sink == 1) std::printf("?");  // keep the picks live
  return st;
}

std::string speedup_cell(const RunningStats& b, const RunningStats& base) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2fx", b.mean() / base.mean());
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = Args::parse(argc, argv);
  print_figure_header(
      "Batch pipeline",
      "update_batch staged pipeline: batch size, prefetch distance, mode x backend",
      args);

  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  const auto n = static_cast<std::size_t>(8e6 * args.scale);
  const std::vector<Key128>& keys = trace_keys(h, "chicago16", n);

  LatticeParams lp;
  // Pin eps to fig5's paper-scale operating point: at loose eps the
  // counter arrays are L1-resident and the prefetch stage has nothing to
  // hide, which would understate the pipeline the engine actually runs.
  lp.eps = 0.001;
  lp.delta = args.delta;
  lp.V = 10 * static_cast<std::uint32_t>(h.size());  // 10-RHHH

  std::printf("\n-- sample draw: BlockSampler::draw, RHHH r = 1, 64-packet blocks --\n");
  print_row({"V/H", "draw ns/pkt (95% CI)", "survivors/pkt"});
  const auto H = static_cast<std::uint32_t>(h.size());
  const auto draw_packets = static_cast<std::size_t>(64e6 * args.scale);
  for (const std::uint32_t mult : {1u, 2u, 10u, 100u}) {
    double share = 0.0;
    const RunningStats s =
        measure_draw(mult * H, H, draw_packets, args.runs, args.seed, share);
    char cell[32];
    std::snprintf(cell, sizeof cell, "%.4f", share);
    print_row({xcell(std::to_string(mult)), ci_cell(s), cell});
  }

  std::printf("\n-- batch size, 10-RHHH / Space-Saving, 2D bytes (0 = per-packet) --\n");
  print_row({"batch", "Mpps (95% CI)", "speedup"});
  const RunningStats base = measure<SpaceSaving<Key128>>(
      h, LatticeMode::kRhhh, lp, keys, 0, args.runs, args.seed);
  print_row({"per-packet", ci_cell(base), "1.00x"});
  for (const std::size_t batch : {32u, 256u, 2048u, 16384u}) {
    const RunningStats s = measure<SpaceSaving<Key128>>(
        h, LatticeMode::kRhhh, lp, keys, batch, args.runs, args.seed);
    print_row({std::to_string(batch), ci_cell(s), speedup_cell(s, base)});
  }

  std::printf("\n-- prefetch distance, 10-RHHH / Space-Saving, batch 2048 --\n");
  print_row({"distance", "Mpps (95% CI)", "speedup vs per-packet"});
  for (const std::uint32_t dist : {0u, 2u, 4u, 8u, 16u, 32u}) {
    LatticeParams dlp = lp;
    dlp.prefetch_distance = dist;
    const RunningStats s = measure<SpaceSaving<Key128>>(
        h, LatticeMode::kRhhh, dlp, keys, 2048, args.runs, args.seed);
    print_row({std::to_string(dist), ci_cell(s), speedup_cell(s, base)});
  }

  std::printf("\n-- mode x backend, batch 2048 vs per-packet --\n");
  print_row({"config", "per-packet Mpps", "batched Mpps", "speedup"});
  const struct {
    const char* name;
    LatticeMode mode;
    std::uint32_t v_mult;
  } modes[] = {
      {"RHHH (V=H)", LatticeMode::kRhhh, 1},
      {"10-RHHH", LatticeMode::kRhhh, 10},
      {"MST", LatticeMode::kMst, 1},
      {"Sampled-MST (V=10H)", LatticeMode::kSampledMst, 10},
  };
  for (const auto& m : modes) {
    LatticeParams mlp = lp;
    mlp.V = m.v_mult * static_cast<std::uint32_t>(h.size());
    const RunningStats pp = measure<SpaceSaving<Key128>>(
        h, m.mode, mlp, keys, 0, args.runs, args.seed);
    const RunningStats bt = measure<SpaceSaving<Key128>>(
        h, m.mode, mlp, keys, 2048, args.runs, args.seed);
    print_row({std::string("SpaceSaving/") + m.name, ci_cell(pp), ci_cell(bt),
               speedup_cell(bt, pp)});
  }
  {
    const RunningStats pp = measure<CountMinHh<Key128>>(
        h, LatticeMode::kRhhh, lp, keys, 0, args.runs, args.seed);
    const RunningStats bt = measure<CountMinHh<Key128>>(
        h, LatticeMode::kRhhh, lp, keys, 2048, args.runs, args.seed);
    print_row({"CountMin/10-RHHH", ci_cell(pp), ci_cell(bt), speedup_cell(bt, pp)});
  }
  {
    const RunningStats pp = measure<CountSketchHh<Key128>>(
        h, LatticeMode::kRhhh, lp, keys, 0, args.runs, args.seed);
    const RunningStats bt = measure<CountSketchHh<Key128>>(
        h, LatticeMode::kRhhh, lp, keys, 2048, args.runs, args.seed);
    print_row({"CountSketch/10-RHHH", ci_cell(pp), ci_cell(bt), speedup_cell(bt, pp)});
  }

  std::printf(
      "\n(expected shape: the draw costs one generator step per packet at\n"
      " V = H and about two per survivor at V > H, so its ns/pkt falls with\n"
      " V; speedup grows with batch size and saturates once the per-batch\n"
      " overhead amortizes -- ~2048 is plenty; distance 0 shows the\n"
      " pipeline's non-prefetch share, with the gap to ~8 the\n"
      " memory-level-parallelism win; 10-RHHH gains the most because ~9/10\n"
      " packets never leave the draw, while MST gains least -- every packet\n"
      " updates all H nodes either way, so only prefetching helps.\n"
      " Acceptance: 10-RHHH batched >= 1.3x per-packet.)\n");
  return 0;
}

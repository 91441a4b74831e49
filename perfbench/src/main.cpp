// perfbench: the steady-state RHHH benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
//
// Generates the workload's inputs from the seed, builds the exact reference
// answer, then either measures the end-to-end metrics (--trace 0) or runs
// the traced per-layer ledger (--trace 1). Human-readable progress goes to
// stderr; stdout carries a host record line and, last, one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// A failed steady-state or convergence guard prints the errors, reports no
// numbers and exits 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "hierarchy/hierarchy.hpp"
#include "workload.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --out <dir>\nworkloads:",
               why);
  for (const WorkloadSpec& w : workloads()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()), w.name.data());
  }
  std::fputc('\n', stderr);
  std::exit(2);
}

RunOptions parse(int argc, char** argv) {
  RunOptions opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.spec = find_workload(v);
        if (opt.spec == nullptr) usage(("unknown workload " + v).c_str());
        have_workload = true;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        opt.trace = std::stoi(v) != 0;
      } else if (a == "--out") {
        opt.out_dir = v;
      } else {
        usage(("unknown option " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (opt.out_dir.empty()) usage("--out is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string host_json(const RunOptions& opt, unsigned nproc) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %u, \"busy_threads\": %u, \"compiler\": %s, "
                "\"build_type\": %s, \"workload\": %s, \"seed\": %llu, \"trace\": %d}",
                nproc, opt.spec->busy_threads, json_string(PERFBENCH_COMPILER).c_str(),
                json_string(PERFBENCH_BUILD_TYPE).c_str(),
                json_string(opt.spec->name).c_str(),
                static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  return buf;
}

std::string result_json(const RunResult& res, bool correct) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(res.attempted);
  out += ", \"failed\": " + std::to_string(res.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : res.metrics) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", m.value);
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + num + ", \"unit\": " +
           json_string(m.unit) + "}";
  }
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions opt = parse(argc, argv);
  const WorkloadSpec& w = *opt.spec;
  const unsigned nproc = std::thread::hardware_concurrency();
  const std::string host = host_json(opt, nproc);
  std::printf("{\"host\": %s}\n", host.c_str());
  std::fflush(stdout);
  if (w.busy_threads > nproc) {
    std::fprintf(stderr, "perfbench: %.*s needs %u busy threads, host has %u\n",
                 static_cast<int>(w.name.size()), w.name.data(), w.busy_threads, nproc);
    return 3;
  }

  RunResult res;
  try {
    std::filesystem::create_directories(opt.out_dir);
    const rhhh::Hierarchy h = rhhh::Hierarchy::ipv4_2d(rhhh::Granularity::kByte);
    const Inputs in = make_inputs(w, h, opt.seed);
    std::fprintf(stderr, "perfbench: generated %zu packets (x%u passes = %llu) in %.2f s\n",
                 in.keys.size(), w.passes, static_cast<unsigned long long>(in.total),
                 in.generate_s);

    // Whole-stream reference for ingest answers; windowed_trend
    // checks per-window slices and builds those per trial.
    Reference ref;
    if (w.kind != Kind::kWindowed) {
      const std::int64_t t0 = now_ns();
      const rhhh::MonitorConfig mc = monitor_config(w, opt.seed);
      const auto [mode, params] = rhhh::lattice_config_of(h, mc);
      const rhhh::RhhhSpaceSaving probe(h, mode, params);
      ref = stream_reference(h, w, in, opt.seed, kEligibleFactor * probe.counters_per_node(), opt.out_dir);
      std::fprintf(stderr,
                   "perfbench: exact reference (%zu HHHs, %zu heavy prefixes) in %.2f s\n",
                   ref.exact_set.size(), ref.heavy.size(), seconds_since(t0));
    }

    if (opt.trace) {
      run_traced(opt, h, in, ref, res);
    } else {
      run_end_to_end(opt, h, in, ref, res);
    }
  } catch (const std::exception& e) {
    res.errors.push_back(std::string("exception: ") + e.what());
  }

  for (const auto& [name, m] : res.metrics) {
    if (!std::isfinite(m.value)) res.errors.push_back("non-finite metric " + name);
  }
  if (!res.errors.empty()) {
    for (const std::string& e : res.errors) std::fprintf(stderr, "perfbench: ERROR %s\n", e.c_str());
    res.metrics.clear();
    std::printf("%s\n", result_json(res, false).c_str());
    return 1;
  }
  const bool correct = res.failed == 0;
  const std::string line = result_json(res, correct);
  const std::string path = opt.out_dir + "/result-" + std::string(w.name) + "-" +
                           std::to_string(opt.seed) + (opt.trace ? "-trace" : "") + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "{\"host\": %s, \"result\": %s}\n", host.c_str(), line.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", line.c_str());
  return 0;
}

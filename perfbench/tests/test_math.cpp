// Self-test of the benchmark's own math: percentile support at a given
// sample count, nearest-rank percentiles, medians, per-phase medians, and
// span self time.
// Exits non-zero on the first failed check.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

Span span(const char* name, std::int64_t a, std::int64_t b, std::int32_t parent) {
  return Span{name, a, b, parent, 7};
}

void test_percentile_support() {
  // p90 needs 100 samples: 100 - ceil(0.9 * 100) = 10 beyond it.
  check(percentile_supported(100, 90), "p90 supported at n=100");
  check(!percentile_supported(99, 90), "p90 unsupported at n=99");
  check(samples_beyond(128, 90) == 12, "12 samples beyond p90 at n=128");
  check(highest_supported_percentile(128) == 92, "n=128 supports up to p92");
  check(highest_supported_percentile(1000) == 99, "n=1000 supports p99");
  check(highest_supported_percentile(19) == 0, "n=19 supports no percentile >= p50");
  check(highest_supported_percentile(20) == 50, "n=20 supports exactly p50");
  check(nearest_rank(10, 50) == 5, "nearest rank of p50 at n=10");
  check(nearest_rank(1, 90) == 1, "nearest rank never below 1");
}

void test_percentile_and_median() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  check(percentile(v, 90) == 90.0, "p90 of 1..100 is 90");
  check(percentile(v, 50) == 50.0, "p50 of 1..100 is 50");
  check(median(v) == 50.5, "median of 1..100");
  check(median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  check(median({}) == 0.0, "empty median");
}

void test_phase_median_mean() {
  // Phase 0 is cheap (1, 2, 3), phase 1 expensive (40, 50, 60, 1000): the
  // plain median of the mix (3 or 40) flips with one sample, the phase
  // medians do not.
  const std::vector<double> v = {1, 40, 2, 50, 3, 60, 1000};
  const std::vector<std::uint32_t> ph = {0, 1, 0, 1, 0, 1, 1};
  check(phase_median_mean(v, ph) == (2.0 + 55.0) / 2.0, "mean of phase medians");
  check(phase_median_mean({5, 7}, {0, 0}) == 6.0, "one phase is its median");
  check(phase_median_mean({4, 8}, {0, 3}) == 6.0, "empty phases are skipped");
  check(phase_median_mean({}, {}) == 0.0, "empty samples");
}

void test_self_time() {
  // root [0,100): children [10,30) and [20,50) overlap -> covered 40.
  // child [20,50) has a grandchild [25,35) -> its self time is 20.
  const std::vector<Span> spans = {
      span("bench.run", 0, 100, -1),  span("engine.ingest", 10, 30, 0),
      span("hhh.output", 20, 50, 0),  span("store.encode", 25, 35, 2),
      span("engine.snapshot", 90, 120, 0),  // clipped to the parent's end
  };
  const std::vector<std::int64_t> self = self_times(spans);
  check(self[0] == 100 - 40 - 10, "root self time subtracts the union of children");
  check(self[1] == 20, "leaf self time is its duration");
  check(self[2] == 20, "self time subtracts a nested child");
  check(self[3] == 10, "grandchild leaf");
  const auto layers = layer_self_ns(spans);
  check(layers.at("bench") == 50, "bench layer self time");
  check(layers.at("engine") == 20 + 30, "engine layer sums its spans");
  check(layers.at("hhh") == 20, "hhh layer self time");
  check(layer_of("util.spsc_push") == "util", "layer is the name prefix");
  check(layer_of("plain") == "plain", "a dotless name is its own layer");
}

void test_tracer_nesting() {
  Tracer t(42);
  t.begin("bench.run");
  {
    Tracer::Scope s(t, "engine.setup");
  }
  t.end();
  const auto& spans = t.spans();
  check(spans.size() == 2, "two spans recorded");
  check(spans[1].parent == 0, "scope nests under the open span");
  check(spans[0].run_id == 42 && spans[1].run_id == 42, "run id stamped");
  check(spans[0].end_ns >= spans[1].end_ns, "parent closes after child");
}

}  // namespace

int main() {
  test_percentile_support();
  test_percentile_and_median();
  test_phase_median_mean();
  test_self_time();
  test_tracer_nesting();
  if (failures == 0) std::puts("perfbench self-test: all checks passed");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}

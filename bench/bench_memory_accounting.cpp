// MEMORY — the obs v4 memory-accounting acceptance artifact.
//
// For the paper's three exploration workloads (the Figure 6 complete
// queue, the Figure 8 double-queue composition, the Figure 9 CDQ space)
// the artifact measures bytes_per_state = tracked peak bytes / peak graph
// states, three times each, and reports:
//
//   - stability: the max-min spread across the three runs must be <= 5%
//     (exploration is deterministic, so the tracked peak is too);
//   - attribution: the share of the tracked peak that named domains
//     (everything but "other") account for must be >= 90%;
//   - overhead: paired medians of the fig9 wall-clock with accounting
//     enabled vs runtime-disabled (the <= 2% acceptance number).
//
// The google-benchmark timings then re-run the same builds for the
// counter export (BENCH_bench_memory_accounting.json, schema v3 with the
// per-domain memory section).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "opentla/compose/compose.hpp"
#include "opentla/obs/memory.hpp"
#include "opentla/queue/double_queue.hpp"
#include "opentla/queue/queue_spec.hpp"

using namespace opentla;

namespace {

// OPENTLA_MEM_LARGE=1 is the EXPERIMENTS.md MEMORY measurement: each
// space is scaled so its reachable set exceeds 10^5 states and the
// exploration is capped at exactly 10^5 (the unified max_states budget
// stops gracefully), so bytes_per_state is measured at 10^5 states. The
// default sizes keep the per-commit artifact under a couple of seconds.
bool large_mode() {
  const char* env = std::getenv("OPENTLA_MEM_LARGE");
  return env != nullptr && std::strcmp(env, "0") != 0;
}

constexpr std::size_t kLargeStateCap = 100'000;

// Each build_* function explores one space and returns its state count.
// The graph goes before the system whose VarTable its store encodes over;
// the memory figures read below are peaks, which outlive both.
std::size_t build_fig6() {
  QueueSystem sys = large_mode() ? make_queue_system(/*capacity=*/6, /*num_values=*/6)
                                 : make_queue_system(/*capacity=*/3, /*num_values=*/3);
  return build_composite_graph(sys.vars, {{sys.specs.complete.unhidden(), true}}, {},
                               {}, large_mode() ? kLargeStateCap : 2'000'000)
      .num_states();
}

std::size_t build_double_queue_space(int capacity, int num_values, std::size_t max_states) {
  DoubleQueueSystem sys = make_double_queue(capacity, num_values);
  std::vector<CompositePart> parts = {{make_cdq(sys).unhidden(), true},
                                      {make_pin(sys.vars, {sys.q}, "PinQ"), false}};
  return build_composite_graph(sys.vars, parts, {}, {sys.q}, max_states).num_states();
}

std::size_t build_fig8() {
  return large_mode()
             ? build_double_queue_space(/*capacity=*/3, /*num_values=*/3, kLargeStateCap)
             : build_double_queue_space(/*capacity=*/2, /*num_values=*/2, 2'000'000);
}

std::size_t build_fig9() {
  return large_mode()
             ? build_double_queue_space(/*capacity=*/2, /*num_values=*/4, kLargeStateCap)
             : build_double_queue_space(/*capacity=*/1, /*num_values=*/3, 2'000'000);
}

struct SpaceMeasure {
  std::uint64_t states = 0;
  std::uint64_t tracked_peak = 0;
  std::uint64_t bytes_per_state = 0;
  double attributed_pct = 0;  // named (non-"other") domain peaks / tracked peak
};

template <typename Builder>
SpaceMeasure measure_space(Builder build) {
  obs::reset();
  obs::set_enabled(true);
  SpaceMeasure m;
  {
    m.states = build();
    const obs::Snapshot snap = obs::snapshot();
    m.tracked_peak = snap.mem_tracked_peak_bytes;
    m.bytes_per_state = snap.bytes_per_state();
    std::uint64_t named = 0;
    for (std::size_t d = 0; d < obs::kNumMemDomains; ++d) {
      if (static_cast<obs::MemDomain>(d) != obs::MemDomain::Other) {
        named += snap.mem[d].peak_bytes;
      }
    }
    m.attributed_pct =
        m.tracked_peak == 0 ? 0 : 100.0 * static_cast<double>(named) /
                                      static_cast<double>(m.tracked_peak);
  }
  obs::set_enabled(false);
  obs::reset();
  return m;
}

template <typename Builder>
void report_space(const char* name, Builder build) {
  // Large mode is a single measurement per space (the runs take tens of
  // seconds each); the ±5% stability check runs at the default sizes,
  // where exploration determinism makes the spread exactly 0.
  if (large_mode()) {
    const SpaceMeasure m = measure_space(build);
    std::printf("%-6s %8llu states  tracked peak %10llu B  bytes/state %6llu"
                "  attribution %.1f%% %s\n",
                name, static_cast<unsigned long long>(m.states),
                static_cast<unsigned long long>(m.tracked_peak),
                static_cast<unsigned long long>(m.bytes_per_state),
                m.attributed_pct, m.attributed_pct >= 90.0 ? "PASS" : "FAIL");
    return;
  }
  SpaceMeasure runs[3];
  for (SpaceMeasure& m : runs) m = measure_space(build);
  std::uint64_t lo = runs[0].bytes_per_state, hi = runs[0].bytes_per_state;
  for (const SpaceMeasure& m : runs) {
    lo = std::min(lo, m.bytes_per_state);
    hi = std::max(hi, m.bytes_per_state);
  }
  const double spread_pct =
      lo == 0 ? (hi == 0 ? 0 : 100.0)
              : 100.0 * static_cast<double>(hi - lo) / static_cast<double>(lo);
  const SpaceMeasure& m = runs[0];
  std::printf("%-6s %8llu states  tracked peak %10llu B  bytes/state %6llu"
              "  (runs: %llu/%llu/%llu, spread %.2f%% %s)  attribution %.1f%% %s\n",
              name, static_cast<unsigned long long>(m.states),
              static_cast<unsigned long long>(m.tracked_peak),
              static_cast<unsigned long long>(m.bytes_per_state),
              static_cast<unsigned long long>(runs[0].bytes_per_state),
              static_cast<unsigned long long>(runs[1].bytes_per_state),
              static_cast<unsigned long long>(runs[2].bytes_per_state),
              spread_pct, spread_pct <= 5.0 ? "PASS" : "FAIL",
              m.attributed_pct, m.attributed_pct >= 90.0 ? "PASS" : "FAIL");
}

double median_ms(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

void report_overhead() {
  // Paired runs of the fig9 build pricing the accounting layer alone:
  // both sides run with the obs layer live (counters, spans, gauges); the
  // "off" side suspends only mem_account_alloc via the runtime sub-gate.
  // Pairs are interleaved so thermal drift hits both sides equally.
  constexpr int kPairs = 5;
  std::vector<double> on_ms, off_ms;
  for (int i = 0; i < kPairs; ++i) {
    for (const bool accounting : {true, false}) {
      obs::reset();
      obs::set_enabled(true);
      obs::set_mem_accounting_suspended(!accounting);
      const auto start = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(build_fig9());
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      (accounting ? on_ms : off_ms).push_back(ms);
      obs::set_mem_accounting_suspended(false);
      obs::set_enabled(false);
      obs::reset();
    }
  }
  const double on = median_ms(on_ms), off = median_ms(off_ms);
  const double overhead_pct = off == 0 ? 0 : 100.0 * (on - off) / off;
  std::printf("fig9 accounting overhead: accounting %.2f ms vs suspended %.2f ms"
              "  -> %+.2f%% (paired medians of %d runs, acceptance <= 2%%)\n",
              on, off, overhead_pct, kPairs);
}

void artifact() {
  std::printf("=== MEMORY: per-domain accounting on the paper's exploration spaces ===\n\n");
  if (!obs::compile_time_enabled() || !opentla::bench::obs_requested()) {
    std::printf("(instrumentation compiled out or OPENTLA_OBS=0 — no accounting to report)\n\n");
    return;
  }
  report_space("fig6", build_fig6);
  report_space("fig8", build_fig8);
  report_space("fig9", build_fig9);
  std::printf("\n");
  if (!large_mode()) {
    report_overhead();
    std::printf("\n");
  }
}

void BM_Fig6GraphAccounted(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_fig6());
  }
}
BENCHMARK(BM_Fig6GraphAccounted)->Unit(benchmark::kMillisecond);

void BM_Fig8GraphAccounted(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_fig8());
  }
}
BENCHMARK(BM_Fig8GraphAccounted)->Unit(benchmark::kMillisecond);

void BM_Fig9GraphAccounted(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_fig9());
  }
}
BENCHMARK(BM_Fig9GraphAccounted)->Unit(benchmark::kMillisecond);

void BM_Fig9GraphAccountingSuspended(benchmark::State& state) {
  // The paired timing for the overhead number: the same build with only
  // the accounting sub-gate closed (obs otherwise live on both sides).
  obs::set_mem_accounting_suspended(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_fig9());
  }
  obs::set_mem_accounting_suspended(false);
}
BENCHMARK(BM_Fig9GraphAccountingSuspended)->Unit(benchmark::kMillisecond);

}  // namespace

OPENTLA_BENCH_MAIN(artifact)

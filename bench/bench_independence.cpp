// INDEPENDENCE — the static independence matrix on the largest composed
// ag_queue product: the H2b complete-system product of Figure 9's
// composition instance (QE^dbl environment, G, QM^1, QM^2 over one shared
// universe). The artifact prints the matrix summary and enforces the
// budget the analysis is designed around: computing footprints and the
// full N x N matrix must cost less than 1% of exploring the same product
// (the matrix is a precomputation for exploration-time reductions, so it
// must be ~free by comparison).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <vector>

#include "bench_common.hpp"
#include "opentla/analysis/independence.hpp"
#include "opentla/compose/compose.hpp"
#include "opentla/queue/double_queue.hpp"

using namespace opentla;

namespace {

/// The H2b product of the fig9 instance: every component guarantee
/// unhidden next to the goal's environment, with whatever no part
/// constrains pinned (the goal's hidden buffer; the witness supplies it).
struct Product {
  DoubleQueueSystem sys;
  std::vector<CompositePart> parts;
  std::vector<VarId> pin;
};

/// Each mover's unit scope is what a step of that mover alone enumerates
/// (compose/composite_action_units): the other movers' subscripts stay
/// unchanged, so the matrix recovers the components' disjointness without
/// any hint.
Product make_product() {
  Product p{make_double_queue(1, 2), {}, {}};
  const AGSpec goal = p.sys.goal();
  p.parts.push_back({goal.assumption, /*mover=*/true});
  for (const AGSpec& c : p.sys.components()) {
    p.parts.push_back({c.guarantee.unhidden(), c.guarantee_is_mover});
  }
  std::set<VarId> covered;
  for (const CompositePart& part : p.parts) {
    covered.insert(part.spec.sub.begin(), part.spec.sub.end());
  }
  for (VarId v = 0; v < p.sys.vars.size(); ++v) {
    if (!covered.contains(v)) p.pin.push_back(v);
  }
  if (!p.pin.empty()) {
    p.parts.push_back({make_pin(p.sys.vars, p.pin, "PinUnconstrained"), /*mover=*/false});
  }
  return p;
}

void print_matrix(const analysis::IndependenceMatrix& m) {
  std::printf("independent pairs: %zu / %zu (density %.3f)\n", m.independent_pairs(),
              m.independent_pairs() + m.dependent_pairs(), m.density());
  for (std::size_t i = 0; i < m.size(); ++i) {
    std::printf("  %-12s ", m.units()[i].name.c_str());
    for (std::size_t j = 0; j < m.size(); ++j) {
      std::putchar(m.independent(i, j) ? '.' : 'X');
    }
    std::putchar('\n');
  }
}

void artifact() {
  std::printf("=== INDEPENDENCE: static matrix on the fig9 H2b product ===\n\n");
  Product p = make_product();

  const std::vector<analysis::ActionUnit> units =
      composite_action_units(p.sys.vars, p.parts, {}, p.pin);
  const analysis::IndependenceMatrix m = analysis::compute_independence(p.sys.vars, units);
  std::printf("units: %zu action disjuncts across %zu movers\n", m.size(), p.parts.size());
  print_matrix(m);

  // The budget assertion: matrix cost < 1% of exploring the same product.
  // Both sides get the same statistic, a median over kSamples samples taken
  // alternately: a cold build, then a batch of kReps analyses averaged (one
  // analysis is too short to time alone), so a noisy moment on a shared
  // host moves one sample rather than the verdict.
  using clock = std::chrono::steady_clock;
  auto micros = [](clock::duration d) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count() / 1e3;
  };
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  constexpr int kSamples = 5;
  constexpr int kReps = 200;
  std::vector<double> explore_samples, analysis_samples;
  std::size_t states = 0, edges = 0, sink = 0;
  for (int i = 0; i < kSamples; ++i) {
    const auto t0 = clock::now();
    const StateGraph g = build_composite_graph(p.sys.vars, p.parts, {}, p.pin);
    explore_samples.push_back(micros(clock::now() - t0));
    states = g.num_states();
    edges = g.num_edges();

    const auto t1 = clock::now();
    for (int r = 0; r < kReps; ++r) {
      std::vector<analysis::ActionUnit> us =
          composite_action_units(p.sys.vars, p.parts, {}, p.pin);
      const analysis::IndependenceMatrix mm =
          analysis::compute_independence(p.sys.vars, std::move(us));
      sink += mm.independent_pairs();
    }
    analysis_samples.push_back(micros(clock::now() - t1) / kReps);
  }
  const double explore_us = median(explore_samples);
  const double analysis_us = median(analysis_samples);

  std::printf("\nexploration: %.0f us (median of %d builds; %zu states, %zu edges)\n",
              explore_us, kSamples, states, edges);
  std::printf("footprints + matrix: %.1f us (median of %d averages of %d; checksum %zu)\n",
              analysis_us, kSamples, kReps, sink);
  std::printf("analysis / exploration = %.4f%%\n\n", 100.0 * analysis_us / explore_us);
  if (analysis_us >= 0.01 * explore_us) {
    std::fprintf(stderr,
                 "FAIL: independence analysis (%.1f us) exceeds 1%% of product "
                 "exploration (%.0f us)\n",
                 analysis_us, explore_us);
    std::exit(1);
  }
}

void BM_CompositeActionUnits(benchmark::State& state) {
  Product p = make_product();
  for (auto _ : state) {
    std::vector<analysis::ActionUnit> units =
        composite_action_units(p.sys.vars, p.parts, {}, p.pin);
    benchmark::DoNotOptimize(units.size());
  }
}
BENCHMARK(BM_CompositeActionUnits)->Unit(benchmark::kMicrosecond);

void BM_IndependenceMatrix(benchmark::State& state) {
  Product p = make_product();
  const std::vector<analysis::ActionUnit> units =
      composite_action_units(p.sys.vars, p.parts, {}, p.pin);
  for (auto _ : state) {
    analysis::IndependenceMatrix m = analysis::compute_independence(p.sys.vars, units);
    benchmark::DoNotOptimize(m.dependent_pairs());
  }
}
BENCHMARK(BM_IndependenceMatrix)->Unit(benchmark::kMicrosecond);

}  // namespace

OPENTLA_BENCH_MAIN(artifact)

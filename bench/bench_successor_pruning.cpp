// PRUNING — successor-generation completion enumeration: pruned residual
// search vs the historical enumerate-and-test path.
//
// Artifact: for the fig6/fig8/fig9 workloads, the completion-enumeration
// counters of a fully pruned run — successors_enumerated (identical to the
// naive path by the determinism contract), completions_pruned (completions
// the flat odometer would have visited but the residual schedule cut), and
// residual_early_cuts — plus a naive-vs-pruned cross-check that both paths
// build bit-identical graphs.
//
// Benchmarks: graph construction and enabled() queries, naive vs pruned,
// on the composite queue systems and on a synthetic residual-heavy action
// where subtree cutting dominates.

#include <cstdint>
#include <iomanip>
#include <iostream>

#include "bench_common.hpp"
#include "opentla/check/machine_closure.hpp"
#include "opentla/compose/compose.hpp"
#include "opentla/ag/composition_theorem.hpp"
#include "opentla/graph/successor.hpp"
#include "opentla/queue/double_queue.hpp"
#include "opentla/queue/queue_spec.hpp"
#include "opentla/value/domain.hpp"

using namespace opentla;

namespace {

struct Counts {
  std::uint64_t enumerated = 0;
  std::uint64_t pruned = 0;
  std::uint64_t cuts = 0;
};

template <class Fn>
Counts measure(Fn&& fn) {
  obs::reset();
  obs::set_enabled(true);
  fn();
  obs::set_enabled(false);
  const obs::Snapshot snap = obs::snapshot();
  Counts c;
  c.enumerated = snap.counters[static_cast<std::size_t>(obs::Counter::SuccessorsEnumerated)];
  c.pruned = snap.counters[static_cast<std::size_t>(obs::Counter::CompletionsPruned)];
  c.cuts = snap.counters[static_cast<std::size_t>(obs::Counter::ResidualEarlyCuts)];
  return c;
}

StateGraph fig6_graph() {
  QueueSystem sys = make_queue_system(3, 3);
  return build_composite_graph(sys.vars, {{sys.specs.complete.unhidden(), true}});
}

void fig6_workload() {
  QueueSystem sys = make_queue_system(3, 3);
  StateGraph g = build_composite_graph(sys.vars, {{sys.specs.complete.unhidden(), true}});
  // Machine closure walks the prefix machine of the hidden-variable spec —
  // the pruned hidden-completion path.
  benchmark::DoNotOptimize(
      check_machine_closure_on_graph(g, sys.specs.complete.unhidden()).machine_closed);
  benchmark::DoNotOptimize(check_prop1_syntactic(sys.specs.complete).machine_closed);
}

StateGraph fig8_graph() {
  DoubleQueueSystem sys = make_double_queue(1, 2);
  CanonicalSpec cdq = make_cdq(sys);
  return build_composite_graph(
      sys.vars,
      {{cdq.unhidden(), true}, {make_pin(sys.vars, {sys.q}, "PinQ"), false}},
      /*free_tuples=*/{}, /*pinned=*/{sys.q});
}

void fig8_workload() { benchmark::DoNotOptimize(fig8_graph().num_states()); }

void fig9_workload() {
  DoubleQueueSystem sys = make_double_queue(1, 2);
  CompositionOptions opts;
  opts.goal_witness = {{"q", sys.qbar}};
  ProofReport proof = verify_composition(sys.vars, sys.components(), sys.goal(), opts);
  benchmark::DoNotOptimize(proof.all_discharged());
}

/// Synthetic residual-heavy action over a 4-variable universe: two
/// variables assigned, two enumerated under mutually constraining residual
/// conjuncts, so most subtrees die at depth 1.
struct Synthetic {
  VarTable vars;
  VarId a, b, c, d;
  Expr action;
  Synthetic() {
    a = vars.declare("a", range_domain(0, 7));
    b = vars.declare("b", range_domain(0, 7));
    c = vars.declare("c", range_domain(0, 7));
    d = vars.declare("d", range_domain(0, 7));
    action = ex::land({ex::eq(ex::primed_var(a), ex::var(a)),
                       ex::eq(ex::primed_var(b), ex::var(b)),
                       ex::eq(ex::primed_var(c), ex::var(a)),          // kills 7/8 of c'
                       ex::lt(ex::primed_var(d), ex::primed_var(c))}); // then bounds d'
  }
  State first() const { return StateSpace(vars).first_state(); }
};

void artifact() {
  std::cout << "=== PRUNING: completion enumeration, pruned vs enumerate-and-test ===\n";
  if (!obs::compile_time_enabled()) {
    std::cout << "(OPENTLA_OBS=OFF build: counters unavailable, cross-checks only)\n";
  }

  // Cross-check first: naive and pruned runs must build identical graphs.
  ActionSuccessors::set_naive_enumeration_for_test(true);
  StateGraph n6 = fig6_graph();
  StateGraph n8 = fig8_graph();
  ActionSuccessors::set_naive_enumeration_for_test(false);
  StateGraph p6 = fig6_graph();
  StateGraph p8 = fig8_graph();
  const bool identical = n6.num_states() == p6.num_states() &&
                         n6.num_edges() == p6.num_edges() &&
                         n6.initial() == p6.initial() &&
                         n8.num_states() == p8.num_states() &&
                         n8.num_edges() == p8.num_edges() &&
                         n8.initial() == p8.initial();
  std::cout << "naive/pruned graph identity (fig6, fig8): "
            << (identical ? "identical" : "MISMATCH") << "\n\n";

  std::cout << std::setw(10) << "workload" << std::setw(14) << "successors"
            << std::setw(16) << "compl_pruned" << std::setw(12) << "cuts" << "\n";
  struct Row {
    const char* name;
    void (*fn)();
  };
  const Row rows[] = {{"fig6", fig6_workload}, {"fig8", fig8_workload},
                      {"fig9", fig9_workload}};
  for (const Row& row : rows) {
    const Counts c = measure(row.fn);
    std::cout << std::setw(10) << row.name << std::setw(14) << c.enumerated
              << std::setw(16) << c.pruned << std::setw(12) << c.cuts << "\n";
  }

  Synthetic syn;
  ActionSuccessors gen(syn.vars, syn.action);
  const Counts sc = measure([&] { benchmark::DoNotOptimize(gen.successors(syn.first())); });
  std::cout << std::setw(10) << "synthetic" << std::setw(14) << sc.enumerated
            << std::setw(16) << sc.pruned << std::setw(12) << sc.cuts << "\n";
  std::cout << "(compl_pruned = completions enumerate-and-test would visit that the\n"
            << " residual schedule skipped; > 0 means strictly fewer leaves touched)\n\n";
}

void BM_GraphBuildFig6(benchmark::State& state) {
  ActionSuccessors::set_naive_enumeration_for_test(state.range(0) == 0);
  QueueSystem sys = make_queue_system(static_cast<int>(state.range(1)), 2);
  for (auto _ : state) {
    StateGraph g = build_composite_graph(sys.vars, {{sys.specs.complete.unhidden(), true}});
    benchmark::DoNotOptimize(g.num_states());
  }
  ActionSuccessors::set_naive_enumeration_for_test(false);
  state.SetLabel(state.range(0) == 0 ? "naive" : "pruned");
}
BENCHMARK(BM_GraphBuildFig6)
    ->Args({0, 2})->Args({1, 2})->Args({0, 3})->Args({1, 3})
    ->Unit(benchmark::kMillisecond);

void BM_GraphBuildFig8(benchmark::State& state) {
  ActionSuccessors::set_naive_enumeration_for_test(state.range(0) == 0);
  for (auto _ : state) {
    StateGraph g = fig8_graph();
    benchmark::DoNotOptimize(g.num_states());
  }
  ActionSuccessors::set_naive_enumeration_for_test(false);
  state.SetLabel(state.range(0) == 0 ? "naive" : "pruned");
}
BENCHMARK(BM_GraphBuildFig8)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_EnabledSynthetic(benchmark::State& state) {
  ActionSuccessors::set_naive_enumeration_for_test(state.range(0) == 0);
  Synthetic syn;
  // d' < 0 can never hold, so enabled() must reject every completion —
  // the worst case for enumerate-and-test.
  Expr hard = ex::land({ex::eq(ex::primed_var(syn.a), ex::var(syn.a)),
                        ex::neq(ex::primed_var(syn.c), ex::primed_var(syn.d)),
                        ex::lt(ex::primed_var(syn.d), ex::integer(0))});
  ActionSuccessors gen(syn.vars, hard);
  const State s = syn.first();
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.enabled(s));
  }
  ActionSuccessors::set_naive_enumeration_for_test(false);
  state.SetLabel(state.range(0) == 0 ? "naive" : "pruned");
}
BENCHMARK(BM_EnabledSynthetic)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_SuccessorsSynthetic(benchmark::State& state) {
  ActionSuccessors::set_naive_enumeration_for_test(state.range(0) == 0);
  Synthetic syn;
  ActionSuccessors gen(syn.vars, syn.action);
  const State s = syn.first();
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.successors(s));
  }
  ActionSuccessors::set_naive_enumeration_for_test(false);
  state.SetLabel(state.range(0) == 0 ? "naive" : "pruned");
}
BENCHMARK(BM_SuccessorsSynthetic)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

}  // namespace

OPENTLA_BENCH_MAIN(artifact)

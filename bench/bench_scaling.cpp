// SCALE — engineering benchmarks for the explicit-state engine itself:
// successor generation, prefix-machine stepping (subset construction),
// fair-cycle search, and the freeze-product exploration behind hypothesis
// 2(a). No paper artifact; prints the configuration table.

#include <algorithm>
#include <iomanip>

#include "bench_common.hpp"
#include "opentla/automata/freeze.hpp"
#include "opentla/automata/prefix_machine.hpp"
#include "opentla/check/liveness.hpp"
#include "opentla/compose/compose.hpp"
#include "opentla/graph/successor.hpp"
#include "opentla/graph/fair_cycle.hpp"
#include "opentla/queue/double_queue.hpp"
#include "opentla/queue/queue_spec.hpp"

using namespace opentla;

namespace {

void artifact() {
  std::cout << "=== SCALE: engine micro/meso benchmarks (see rows below) ===\n";
  std::cout << "subset-construction width on the queue (max config sizes):\n";
  for (int n : {1, 2, 3}) {
    QueueSystem sys = make_queue_system(n, 2);
    PrefixMachine m(sys.vars, sys.specs.queue);
    StateGraph g = build_composite_graph(sys.vars, {{sys.specs.complete.unhidden(), true}});
    // Drive the machine along every edge of the reachable graph.
    std::vector<Value> configs(g.num_states());
    std::vector<char> seen(g.num_states(), 0);
    std::vector<StateId> frontier;
    for (StateId s : g.initial()) {
      configs[s] = m.initial(g.state(s));
      seen[s] = 1;
      frontier.push_back(s);
    }
    while (!frontier.empty()) {
      StateId u = frontier.back();
      frontier.pop_back();
      for (StateId v : g.successors(u)) {
        if (seen[v]) continue;
        configs[v] = m.step(configs[u], g.state(u), g.state(v));
        seen[v] = 1;
        frontier.push_back(v);
      }
    }
    std::size_t widest = 0;
    for (const Value& c : configs) widest = std::max(widest, c.length());
    std::cout << "  N = " << n << ": max |config| = " << widest << " over " << g.num_states()
              << " states\n";
  }
  std::cout << "\n";
}

void BM_SuccessorGeneration(benchmark::State& state) {
  QueueSystem sys = make_queue_system(static_cast<int>(state.range(0)), 3);
  CanonicalSpec spec = sys.specs.complete.unhidden();
  ActionSuccessors gen(sys.vars, spec.next);
  std::vector<State> states = ActionSuccessors::states_satisfying(sys.vars, spec.init, {});
  StateGraph g = build_composite_graph(sys.vars, {{spec, true}});
  std::size_t visited = 0;
  for (auto _ : state) {
    for (StateId s = 0; s < g.num_states(); ++s) {
      gen.for_each_successor(g.state(s), [&](const State&) { ++visited; });
    }
  }
  benchmark::DoNotOptimize(visited);
  state.counters["succ/s"] =
      benchmark::Counter(static_cast<double>(visited), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SuccessorGeneration)->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond);

void BM_PrefixMachineStep(benchmark::State& state) {
  QueueSystem sys = make_queue_system(static_cast<int>(state.range(0)), 2);
  PrefixMachine m(sys.vars, sys.specs.queue);
  StateGraph g = build_composite_graph(sys.vars, {{sys.specs.complete.unhidden(), true}});
  const State& s0 = g.state(g.initial()[0]);
  Value cfg = m.initial(s0);
  std::size_t steps = 0;
  for (auto _ : state) {
    // Walk the first edge chain repeatedly.
    StateId u = g.initial()[0];
    Value c = cfg;
    for (int i = 0; i < 32; ++i) {
      StateId v = g.successors(u).front();
      c = m.step(c, g.state(u), g.state(v));
      u = v;
      ++steps;
    }
    benchmark::DoNotOptimize(c);
  }
  state.counters["steps/s"] =
      benchmark::Counter(static_cast<double>(steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PrefixMachineStep)->Arg(1)->Arg(2)->Arg(3);

void BM_FairCycleSearch(benchmark::State& state) {
  QueueSystem sys = make_queue_system(static_cast<int>(state.range(0)), 2);
  StateGraph g = build_composite_graph(sys.vars, {{sys.specs.complete.unhidden(), true}});
  for (auto _ : state) {
    FairnessCompiler compiler(g);
    FairCycleQuery q;
    compiler.add_constraints(sys.specs.complete.fairness, q);
    q.filter.node_ok = [&](StateId s) {
      return g.state(s)[sys.in.sig].as_int() != g.state(s)[sys.in.ack].as_int() &&
             static_cast<int>(g.state(s)[sys.q].length()) < sys.capacity;
    };
    benchmark::DoNotOptimize(find_fair_cycle(g, q).has_value());
  }
  state.counters["states"] = static_cast<double>(g.num_states());
}
BENCHMARK(BM_FairCycleSearch)->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_FreezeProduct(benchmark::State& state) {
  // The H2a-style product: freeze(C(E)) x C(M) walked over the complete
  // queue graph's edges.
  QueueSystem sys = make_queue_system(static_cast<int>(state.range(0)), 2);
  auto env = std::make_shared<PrefixMachine>(sys.vars, sys.specs.env);
  std::vector<VarId> visible = {sys.in.sig,  sys.in.ack,  sys.in.val,
                                sys.out.sig, sys.out.ack, sys.out.val};
  FreezeMachine freeze(env, visible);
  PrefixMachine queue(sys.vars, sys.specs.queue);
  StateGraph g = build_composite_graph(sys.vars, {{sys.specs.complete.unhidden(), true}});
  for (auto _ : state) {
    std::size_t alive = 0;
    for (StateId u = 0; u < g.num_states(); ++u) {
      Value fe = freeze.initial(g.state(u));
      Value fq = queue.initial(g.state(u));
      for (StateId v : g.successors(u)) {
        Value fe2 = freeze.step(fe, g.state(u), g.state(v));
        Value fq2 = queue.step(fq, g.state(u), g.state(v));
        alive += freeze.alive(fe2) && queue.alive(fq2);
      }
    }
    benchmark::DoNotOptimize(alive);
  }
}
BENCHMARK(BM_FreezeProduct)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace

OPENTLA_BENCH_MAIN(artifact)

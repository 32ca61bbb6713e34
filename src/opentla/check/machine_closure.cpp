#include "opentla/check/machine_closure.hpp"

#include <algorithm>

#include "opentla/check/liveness.hpp"
#include "opentla/expr/analysis.hpp"
#include "opentla/expr/eval.hpp"
#include "opentla/graph/scc.hpp"
#include "opentla/obs/obs.hpp"
#include "opentla/state/state_space.hpp"

namespace opentla {

MachineClosureResult check_prop1_syntactic(const CanonicalSpec& spec) {
  MachineClosureResult result;
  const std::vector<Expr> next_disjuncts = flatten_or(spec.next);
  for (const Fairness& f : spec.fairness) {
    for (const Expr& a : flatten_or(f.action)) {
      const bool found = std::any_of(
          next_disjuncts.begin(), next_disjuncts.end(),
          [&](const Expr& n) { return structurally_equal(a, n); });
      if (!found) {
        result.machine_closed = false;
        result.detail = "fairness conjunct '" + (f.label.empty() ? "?" : f.label) +
                        "' has a disjunct that is not syntactically a disjunct of N";
        return result;
      }
    }
  }
  result.machine_closed = true;
  result.detail = "every fairness action is a sub-disjunct of N (Proposition 1 applies)";
  return result;
}

MachineClosureResult check_prop1_semantic(const VarTable& vars, const CanonicalSpec& spec) {
  MachineClosureResult result;
  StateSpace space(vars);
  const Expr step = spec.box_step_action();
  for (const Fairness& f : spec.fairness) {
    bool failed = false;
    space.for_each_state([&](const State& s) {
      if (failed) return;
      space.for_each_state([&](const State& t) {
        if (failed) return;
        if (eval_action(f.action, vars, s, t) && !eval_action(step, vars, s, t)) {
          failed = true;
        }
      });
    });
    if (failed) {
      result.machine_closed = false;
      result.detail = "fairness action '" + f.label + "' has a step that is not an [N]_v step";
      return result;
    }
  }
  result.machine_closed = true;
  result.detail = "|= A => [N]_v verified over all state pairs";
  return result;
}

MachineClosureResult check_machine_closure_on_graph(const StateGraph& graph,
                                                    const CanonicalSpec& spec) {
  OPENTLA_OBS_PHASE("check.closure");
  MachineClosureResult result;
  FairnessCompiler compiler(graph);
  FairCycleQuery query;
  compiler.add_constraints(spec.fairness, query);

  // Mark the states inside fairness-supporting SCCs.
  std::vector<StateId> roots(graph.num_states());
  for (std::size_t i = 0; i < roots.size(); ++i) roots[i] = static_cast<StateId>(i);
  std::vector<char> good(graph.num_states(), 0);
  for (const std::vector<StateId>& comp :
       strongly_connected_components(graph, roots, query.filter)) {
    std::vector<StateId> cycle;
    if (component_hosts_fair_cycle(graph, query, comp, cycle)) {
      for (StateId s : cycle) good[s] = 1;
    }
  }

  // A state is extendable iff it reaches a good state.
  const std::vector<char> extendable = graph.can_reach(good, nullptr);
  for (StateId s = 0; s < graph.num_states(); ++s) {
    if (!extendable[s]) {
      result.machine_closed = false;
      result.detail = "reachable state with no fair continuation: " +
                      graph.state(s).to_string(graph.vars());
      return result;
    }
  }
  result.machine_closed = true;
  result.detail = "every reachable state has a fair continuation";
  return result;
}

}  // namespace opentla

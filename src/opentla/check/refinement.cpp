#include "opentla/check/refinement.hpp"

#include <stdexcept>
#include <unordered_map>

#include "opentla/expr/eval.hpp"
#include "opentla/graph/successor.hpp"
#include "opentla/obs/obs.hpp"

namespace opentla {

RefinementMapping::RefinementMapping(const VarTable& low, const VarTable& high,
                                     std::vector<Expr> witness)
    : low_(&low), high_(&high), witness_(std::move(witness)) {
  if (witness_.size() != high.size()) {
    throw std::runtime_error("RefinementMapping: need one witness per high variable");
  }
}

State RefinementMapping::map(const State& low_state) const {
  std::vector<Value> values;
  values.reserve(witness_.size());
  for (const Expr& w : witness_) values.push_back(eval_fn(w, *low_, low_state));
  return State(std::move(values));
}

RefinementMapping mapping_by_name(const VarTable& low, const VarTable& high,
                                  const std::vector<std::pair<std::string, Expr>>& extra) {
  std::vector<Expr> witness(high.size());
  for (VarId h = 0; h < high.size(); ++h) {
    const std::string& name = high.name(h);
    for (const auto& [n, e] : extra) {
      if (n == name) witness[h] = e;
    }
    if (!witness[h].is_null()) continue;
    std::optional<VarId> l = low.find(name);
    if (!l) {
      throw std::runtime_error("mapping_by_name: no witness for high variable '" + name + "'");
    }
    witness[h] = ex::var(*l);
  }
  return RefinementMapping(low, high, std::move(witness));
}

namespace {

std::vector<State> to_states(const StateGraph& g, const std::vector<StateId>& ids) {
  std::vector<State> out;
  out.reserve(ids.size());
  for (StateId s : ids) out.push_back(g.state(s));
  return out;
}

}  // namespace

RefinementResult check_refinement(const StateGraph& low_graph,
                                  const std::vector<Fairness>& low_fairness,
                                  const CanonicalSpec& high, const RefinementMapping& mapping,
                                  run::RunBudget* budget) {
  OPENTLA_OBS_SPAN("check_refinement");
  OPENTLA_OBS_PHASE("check.refinement");
  RefinementResult result;
  result.states = low_graph.num_states();
  result.edges = low_graph.num_edges();
  const VarTable& high_vars = mapping.high();
  // True once the budget says stop; the result is then inconclusive.
  auto stopped = [&] {
    if (budget == nullptr || !budget->should_stop()) return false;
    result.holds = false;
    result.stop_reason = budget->reason();
    return true;
  };
  if (stopped()) return result;

  // Mapped high states, computed once per low state.
  std::vector<State> mapped(low_graph.num_states());
  for (StateId s = 0; s < low_graph.num_states(); ++s) {
    mapped[s] = mapping.map(low_graph.state(s));
  }

  // (init)
  for (StateId s : low_graph.initial()) {
    if (!eval_pred(high.init, high_vars, mapped[s])) {
      result.holds = false;
      result.failed_part = "init";
      result.counterexample_prefix = {low_graph.state(s)};
      return result;
    }
  }

  // (step) every low edge maps to [HighNext]_v.
  for (StateId u = 0; u < low_graph.num_states(); ++u) {
    if (stopped()) return result;
    for (StateId v : low_graph.successors(u)) {
      OPENTLA_OBS_COUNT(RefinementEdgesChecked);
      if (high.step_ok(high_vars, mapped[u], mapped[v])) continue;
      result.holds = false;
      result.failed_part = "step";
      std::vector<StateId> path = low_graph.shortest_path_to([&](StateId s) { return s == u; });
      result.counterexample_prefix = to_states(low_graph, path);
      result.counterexample_prefix.push_back(low_graph.state(v));
      return result;
    }
  }

  // (live) for each high fairness condition, search for a low-fair lasso
  // violating it.
  for (const Fairness& hf : high.fairness) {
    if (stopped()) return result;
    FairnessCompiler compiler(low_graph);
    FairCycleQuery query;
    compiler.add_constraints(low_fairness, query);

    // The violation conditions are expressed over mapped states: build a
    // small adapter evaluating the high action / ENABLED on mapped pairs.
    const Expr high_act = action_changing(hf.action, hf.sub);
    ActionSuccessors high_gen(high_vars, high_act);
    std::vector<signed char> enabled_cache(low_graph.num_states(), -1);
    auto high_enabled = [&](StateId s) {
      signed char& c = enabled_cache[s];
      if (c < 0) c = high_gen.enabled(mapped[s]) ? 1 : 0;
      return c == 1;
    };
    std::unordered_map<std::uint64_t, bool> step_cache;
    auto high_step = [&, high_act](StateId s, StateId t) {
      const std::uint64_t key = (static_cast<std::uint64_t>(s) << 32) | t;
      auto [it, inserted] = step_cache.try_emplace(key, false);
      if (inserted) {
        it->second = eval_action(high_act, high_vars, mapped[s], mapped[t]);
      }
      return it->second;
    };

    // The cycle must contain no high <A>_v step...
    auto prev_edge = query.filter.edge_ok;
    query.filter.edge_ok = [&, prev_edge](StateId s, StateId t) {
      if (prev_edge && !prev_edge(s, t)) return false;
      return !high_step(s, t);
    };
    if (hf.kind == Fairness::Kind::Weak) {
      // ...and for ~WF, <A>_v must be enabled at every cycle state.
      auto prev_node = query.filter.node_ok;
      query.filter.node_ok = [&, prev_node](StateId s) {
        if (prev_node && !prev_node(s)) return false;
        return high_enabled(s);
      };
    } else {
      // ...and for ~SF, <A>_v must be enabled infinitely often.
      BuchiObligation ob;
      ob.label = "~" + hf.label;
      ob.state_ok = [&](StateId s) { return high_enabled(s); };
      query.buchi.push_back(std::move(ob));
    }

    if (std::optional<Lasso> lasso = find_fair_cycle(low_graph, query)) {
      result.holds = false;
      result.failed_part = hf.label.empty() ? "fairness" : hf.label;
      result.counterexample_prefix = to_states(low_graph, lasso->prefix);
      result.counterexample_cycle = to_states(low_graph, lasso->cycle);
      return result;
    }
  }

  result.holds = true;
  return result;
}

}  // namespace opentla

#include "opentla/check/invariant.hpp"

#include <sstream>

#include "opentla/compose/compose.hpp"
#include "opentla/expr/eval.hpp"
#include "opentla/obs/obs.hpp"

namespace opentla {

InvariantResult check_invariant(const StateGraph& g, const Expr& invariant) {
  OPENTLA_OBS_PHASE("check.invariant");
  InvariantResult result;
  result.states_checked = g.num_states();
  result.stop_reason = g.stop_reason();
  std::vector<signed char> bad(g.num_states(), -1);
  EvalContext ctx;
  ctx.vars = &g.vars();
  auto is_bad = [&](StateId s) {
    if (bad[s] < 0) {
      // Local copy: state() decodes by value from the store's arena.
      const State cur = g.state(s);
      ctx.current = &cur;
      bad[s] = eval_bool(invariant, ctx) ? 0 : 1;
    }
    return bad[s] == 1;
  };
  std::vector<StateId> path = g.shortest_path_to(is_bad);
  if (path.empty()) {
    result.holds = true;
    return result;
  }
  result.holds = false;
  result.counterexample.reserve(path.size());
  for (StateId s : path) result.counterexample.push_back(g.state(s));
  return result;
}

InvariantResult check_invariant(const VarTable& vars, const CanonicalSpec& spec,
                                const Expr& invariant, const ExploreOptions& opts) {
  const StateGraph g = build_composite_graph(vars, {{spec, /*mover=*/true}}, {}, {}, opts);
  return check_invariant(g, invariant);
}

std::string format_trace(const VarTable& vars, const std::vector<State>& states) {
  std::ostringstream os;
  for (std::size_t i = 0; i < states.size(); ++i) {
    os << "  state " << i << ": " << states[i].to_string(vars) << "\n";
  }
  return os.str();
}

}  // namespace opentla

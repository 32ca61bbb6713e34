#include "opentla/check/inclusion.hpp"

#include <algorithm>
#include <initializer_list>
#include <optional>
#include <unordered_set>

#include "opentla/obs/obs.hpp"

namespace opentla {

Mover mover_from_spec(const VarTable& vars, const CanonicalSpec& spec, int constraint_index,
                      const std::vector<VarId>& normalized) {
  Mover m;
  // Normalized variables other than this component's own hidden ones are
  // tracked by other machines; never enumerate them.
  std::vector<VarId> pinned;
  for (VarId v : normalized) {
    if (std::find(spec.hidden.begin(), spec.hidden.end(), v) == spec.hidden.end()) {
      pinned.push_back(v);
    }
  }
  m.generator = std::make_shared<ActionSuccessors>(vars, spec.next, std::move(pinned));
  m.hidden = spec.hidden;
  m.machine_index = spec.has_hidden() ? constraint_index : -1;
  m.label = spec.name;
  return m;
}

namespace {

/// `vars` with extra state slots appended. Their values (machine
/// configurations, state ids) are never enumerated; the one-value domain
/// only names the slot.
VarTable with_slots(VarTable vars, std::initializer_list<const char*> names) {
  for (const char* name : names) vars.declare(name, Domain({Value::integer(0)}));
  return vars;
}

}  // namespace

DeadPairSearch find_dead_pair(const StateGraph& graph, const SafetyMachine& machine,
                              const std::function<State(StateId)>& state_of,
                              ExploreOptions opts) {
  const VarTable pair_vars = with_slots(VarTable(), {"__state", "__config"});
  auto pair = [](StateId id, Value config) {
    return State({Value::integer(id), std::move(config)});
  };

  std::optional<State> dead;  // the first dead pair emitted
  std::vector<State> inits;
  for (StateId id : graph.initial()) {
    inits.push_back(pair(id, machine.initial(state_of(id))));
    if (!machine.alive(inits.back()[1])) {
      dead = inits.back();
      break;
    }
  }
  auto succ = [&](const State& p, const std::function<void(const State&)>& emit) {
    // Only the first dead pair is ever emitted, and from then on nothing
    // expands: it is a sink, and the BFS drains without growing.
    if (dead) return;
    const StateId u = static_cast<StateId>(p[0].as_int());
    const State s = state_of(u);
    for (StateId v : graph.successors(u)) {
      State next = pair(v, machine.step(p[1], s, state_of(v)));
      if (!machine.alive(next[1])) dead = next;
      emit(next);
      if (dead) return;
    }
  };
  opts.threads = 1;
  opts.add_self_loops = false;
  const StateGraph pairs(pair_vars, inits, succ, opts);
  OPENTLA_OBS_COUNT_N(InclusionPairs, pairs.num_states());

  DeadPairSearch result;
  result.pairs = pairs.num_states();
  result.stop_reason = pairs.stop_reason();
  // A dead pair refused by the max_states cap is not in the graph.
  const StateId goal = dead ? pairs.store().find(*dead) : StateStore::kNone;
  if (goal != StateStore::kNone) {
    for (StateId p : pairs.shortest_path_to([&](StateId p) { return p == goal; })) {
      result.path.push_back(static_cast<StateId>(pairs.state(p)[0].as_int()));
    }
  }
  return result;
}

ConstraintExplorer::ConstraintExplorer(
    const VarTable& vars, std::vector<std::shared_ptr<const SafetyMachine>> constraints,
    std::vector<Mover> movers, const Expr& init_enum, std::vector<VarId> normalize,
    const ExploreOptions& opts)
    : vars_(&vars),
      product_vars_(with_slots(vars, {"__config"})),
      constraints_(std::move(constraints)),
      movers_(std::move(movers)),
      normalize_(std::move(normalize)),
      opts_(opts),
      graph_(explore(init_enum)) {}

StateGraph ConstraintExplorer::explore(const Expr& init_enum) const {
  OPENTLA_OBS_SPAN("ConstraintExplorer.explore");
  const VarTable& vars = *vars_;
  const std::size_t width = vars.size();
  auto normalized = [&](State s) {
    for (VarId v : normalize_) s[v] = vars.domain(v)[0];
    return s;
  };
  auto node = [](const State& visible, Value configs) {
    std::vector<Value> values = visible.values();
    values.push_back(std::move(configs));
    return State(std::move(values));
  };

  std::vector<State> inits;
  for (const State& raw : ActionSuccessors::states_satisfying(vars, init_enum, normalize_)) {
    const State s = normalized(raw);
    Value configs = constraints_.initial(s);
    if (constraints_.alive(configs)) inits.push_back(node(s, std::move(configs)));
  }

  // Candidate successors: the stutter step, which can only grow
  // configurations (internal component moves), then the movers' actions in
  // order, with hidden sources drawn from the owning machine's
  // configuration. Each distinct candidate is stepped and emitted on first
  // sight, so the emission order depends only on the node, as the parallel
  // engine requires.
  auto succ = [&](const State& u, const std::function<void(const State&)>& emit) {
    const State s(std::vector<Value>(u.values().begin(), u.values().begin() + width));
    const Value& configs = u[width];
    std::unordered_set<State, StateHash> seen;
    auto offer = [&](State candidate) {
      const auto [it, fresh] = seen.insert(std::move(candidate));
      if (!fresh) return;
      const State& t = *it;
      Value next = constraints_.step(configs, s, t);
      if (!constraints_.alive(next)) return;
      if (t == s && next == configs) return;  // no-op stutter
      emit(node(t, std::move(next)));
    };
    offer(s);
    for (const Mover& m : movers_) {
      if (m.machine_index < 0) {
        m.generator->for_each_successor(s, [&](const State& t) { offer(normalized(t)); });
        continue;
      }
      const std::size_t i = static_cast<std::size_t>(m.machine_index);
      const Value sources =
          constraints_.factor(i).mover_configs(constraints_.factor_config(configs, i));
      for (const Value& h : sources.as_tuple()) {
        State source = s;
        const Value::Tuple& hv = h.as_tuple();
        for (std::size_t k = 0; k < m.hidden.size(); ++k) source[m.hidden[k]] = hv[k];
        m.generator->for_each_successor(source,
                                        [&](const State& t) { offer(normalized(t)); });
      }
    }
  };

  ExploreOptions opts = opts_;
  opts.add_self_loops = false;
  StateGraph graph(product_vars_, inits, succ, opts);
  OPENTLA_OBS_COUNT_N(ProductNodes, graph.num_states());
  OPENTLA_OBS_GAUGE_MAX(PeakProductNodes, graph.num_states());
  return graph;
}

State ConstraintExplorer::visible(StateId id) const {
  State node = graph_.state(id);
  std::vector<Value> values;
  values.reserve(vars_->size());
  for (VarId v = 0; v < vars_->size(); ++v) values.push_back(std::move(node[v]));
  return State(std::move(values));
}

ConstraintExplorer::Verdict ConstraintExplorer::check_target(const SafetyMachine& target) const {
  OPENTLA_OBS_SPAN("ConstraintExplorer.check_target");
  OPENTLA_OBS_PHASE("check.inclusion");
  const DeadPairSearch search =
      find_dead_pair(graph_, target, [&](StateId id) { return visible(id); }, opts_);
  Verdict verdict;
  verdict.target_name = target.name();
  verdict.holds = search.path.empty();
  for (StateId id : search.path) verdict.counterexample.push_back(visible(id));
  verdict.pairs_visited = search.pairs;
  // A partial product makes every "holds" verdict on it partial too.
  verdict.stop_reason =
      stop_reason() != run::StopReason::kCompleted ? stop_reason() : search.stop_reason;
  return verdict;
}

}  // namespace opentla

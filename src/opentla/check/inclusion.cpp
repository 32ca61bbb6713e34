#include "opentla/check/inclusion.hpp"

#include <algorithm>
#include <optional>
#include <string>

#include "opentla/expr/analysis.hpp"
#include "opentla/obs/obs.hpp"
#include "opentla/tla/disjoint.hpp"

namespace opentla {

Mover mover_from_spec(const CanonicalSpec& spec, int constraint_index,
                      const std::vector<VarId>& normalized) {
  Mover m;
  m.step.next = spec.next;
  for (VarId v : spec.sub) {
    if (std::find(normalized.begin(), normalized.end(), v) == normalized.end()) {
      m.step.sub.push_back(v);
    }
  }
  m.step.hidden = spec.hidden;
  m.step.label = spec.name;
  m.machine_index = constraint_index;
  return m;
}

namespace {

/// `vars` with extra state slots appended. Their values (machine
/// configurations, state ids) are never enumerated; the one-value domain
/// only names the slot, and the state store writes any other value there
/// out in full (an escaped slot, fingerprint.hpp).
VarTable with_slots(VarTable vars, const std::vector<std::string>& names) {
  for (const std::string& name : names) vars.declare(name, Domain({Value::integer(0)}));
  return vars;
}

}  // namespace

DeadPairSearch find_dead_pair(const StateGraph& graph,
                              const std::vector<const SafetyMachine*>& machines,
                              const std::function<State(StateId)>& state_of,
                              ExploreOptions opts) {
  const std::size_t k = machines.size();
  std::vector<std::string> slots = {"__state"};
  for (std::size_t i = 0; i < k; ++i) slots.push_back("__config" + std::to_string(i));
  const VarTable pair_vars = with_slots(VarTable(), slots);

  // first_dead[i]: the first pair emitted with machine i dead. From then on
  // machine i is settled: no pair steps it again, and every pair emitted
  // later carries that pair's dead configuration in its slot.
  std::vector<std::optional<State>> first_dead(k);
  std::size_t live = k;  // machines not yet settled
  const auto note_dead = [&](const State& p) {
    for (std::size_t i = 0; i < k; ++i) {
      if (!first_dead[i] && !machines[i]->alive(p[1 + i])) {
        first_dead[i] = p;
        --live;
      }
    }
  };

  std::vector<State> inits;
  for (StateId id : graph.initial()) {
    if (live == 0) break;
    const State s = state_of(id);
    std::vector<Value> values = {Value::integer(id)};
    for (std::size_t i = 0; i < k; ++i) {
      values.push_back(first_dead[i] ? (*first_dead[i])[1 + i] : machines[i]->initial(s));
    }
    inits.emplace_back(std::move(values));
    note_dead(inits.back());
  }
  auto succ = [&](const State& p, const std::function<void(const State&)>& emit) {
    // Once every machine has died nothing expands, and the BFS drains
    // without growing.
    if (live == 0) return;
    const StateId u = static_cast<StateId>(p[0].as_int());
    const State s = state_of(u);
    for (StateId v : graph.successors(u)) {
      const State t = state_of(v);
      std::vector<Value> values = {Value::integer(v)};
      for (std::size_t i = 0; i < k; ++i) {
        values.push_back(first_dead[i] ? (*first_dead[i])[1 + i]
                                       : machines[i]->step(p[1 + i], s, t));
      }
      const State next(std::move(values));
      note_dead(next);
      emit(next);
      if (live == 0) return;
    }
  };
  opts.threads = 1;
  opts.add_self_loops = false;
  const StateGraph pairs(pair_vars, inits, succ, opts);
  OPENTLA_OBS_COUNT_N(InclusionPairs, pairs.num_states());

  DeadPairSearch result;
  result.paths.resize(k);
  result.pairs = pairs.num_states();
  result.stop_reason = pairs.stop_reason();
  for (std::size_t i = 0; i < k; ++i) {
    // A dead pair refused by the max_states cap is not in the graph; the
    // walk stops at that expansion, so no later pair equals it.
    const StateId goal = first_dead[i] ? pairs.store().find(*first_dead[i]) : StateStore::kNone;
    if (goal == StateStore::kNone) continue;
    for (StateId p : pairs.shortest_path_to([&](StateId p) { return p == goal; })) {
      result.paths[i].push_back(static_cast<StateId>(pairs.state(p)[0].as_int()));
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
      steps_(step_generator()),
      graph_(explore(init_enum)) {}

ConjunctionSuccessors ConstraintExplorer::step_generator() const {
  std::vector<StepMover> steps;
  for (const Mover& m : movers_) {
    StepMover step = m.step;
    step.held = false;
    if (m.machine_index < 0) {
      step.hidden.clear();
    } else {
      // Other machines' hidden variables are normalized like any other;
      // this mover's come from its own machine's configuration.
      const auto* own = dynamic_cast<const PrefixMachine*>(
          &constraints_.factor(static_cast<std::size_t>(m.machine_index)));
      step.held = own != nullptr && structurally_equal(own->spec().next, step.next);
    }
    steps.push_back(std::move(step));
  }
  std::vector<ConjunctionSuccessors::Disjoint> disjoints;
  for (std::size_t i = 0; i < constraints_.num_factors(); ++i) {
    const auto* pm = dynamic_cast<const PrefixMachine*>(&constraints_.factor(i));
    if (pm == nullptr) continue;
    ConjunctionSuccessors::Disjoint tuples = disjoint_tuples(pm->spec());
    if (!tuples.empty()) disjoints.push_back(std::move(tuples));
  }
  return ConjunctionSuccessors(*vars_, std::move(steps), normalize_, disjoints);
}

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

  // Successors: the stutter step, which can only grow configurations
  // (internal component moves), then the conjunction generator's steps,
  // with hidden sources drawn from the owning machine's configuration.
  // Each is stepped and emitted as it comes, so the emission order depends
  // only on the node, as the parallel engine requires; a repeat (two
  // sources reaching one visible state) only repeats an edge, which the
  // graph folds.
  auto succ = [&](const State& u, const std::function<void(const State&)>& emit) {
    const State s(std::vector<Value>(u.values().begin(), u.values().begin() + width));
    const Value& configs = u[width];
    auto offer = [&](const State& t) {
      Value next = constraints_.step(configs, s, t);
      if (!constraints_.alive(next)) return;
      if (t == s && next == configs) return;  // no-op stutter
      emit(node(t, std::move(next)));
    };
    offer(s);
    const auto sources = [&](std::size_t k) {
      const std::size_t i = static_cast<std::size_t>(movers_[k].machine_index);
      return constraints_.factor(i).mover_configs(constraints_.factor_config(configs, i));
    };
    steps_.for_each_successor(s, sources, [&](const State& t) { offer(normalized(t)); });
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

std::vector<ConstraintExplorer::Verdict> ConstraintExplorer::check_targets(
    const std::vector<const SafetyMachine*>& targets) const {
  OPENTLA_OBS_SPAN("ConstraintExplorer.target_walk");
  OPENTLA_OBS_PHASE("check.inclusion");
  const DeadPairSearch search =
      find_dead_pair(graph_, targets, [&](StateId id) { return visible(id); }, opts_);
  // A partial product makes every "holds" verdict on it partial too.
  const run::StopReason stop =
      stop_reason() != run::StopReason::kCompleted ? stop_reason() : search.stop_reason;
  std::vector<Verdict> verdicts;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    Verdict& verdict = verdicts.emplace_back();
    verdict.target_name = targets[i]->name();
    verdict.holds = search.paths[i].empty();
    for (StateId id : search.paths[i]) verdict.counterexample.push_back(visible(id));
    verdict.pairs_visited = search.pairs;
    verdict.stop_reason = stop;
  }
  return verdicts;
}

ConstraintExplorer::Verdict ConstraintExplorer::check_target(const SafetyMachine& target) const {
  return std::move(check_targets({&target}).front());
}

}  // namespace opentla

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

/// The first `width` values of `node`: the visible state of a product node.
State visible_part(const State& node, std::size_t width) {
  return State(std::vector<Value>(node.values().begin(), node.values().begin() + width));
}

/// The explorations of a check are serial and record no self-loops.
ExploreOptions check_options(ExploreOptions opts) {
  opts.threads = 1;
  opts.add_self_loops = false;
  return opts;
}

/// The ids of a shortest path in `g` to `goal`; empty if there is no goal.
/// A dead node refused by the max_states cap is not in `g`, and the check
/// stops at that expansion, so no later node equals it: its path is empty
/// too.
std::vector<StateId> path_to(const StateGraph& g, const std::optional<State>& goal) {
  const StateId id = goal ? g.store().find(*goal) : StateStore::kNone;
  if (id == StateStore::kNone) return {};
  return g.shortest_path_to([&](StateId p) { return p == id; });
}

}  // namespace

DeadPairSearch find_dead_pair(const StateGraph& graph, const SafetyMachine& machine,
                              ExploreOptions opts) {
  const VarTable pair_vars = with_slots(VarTable(), {"__state", "__config"});
  // The first pair emitted with the machine dead; nothing expands after it.
  std::optional<State> first_dead;
  const auto pair = [&](StateId id, Value config) {
    State p({Value::integer(id), std::move(config)});
    if (!first_dead && !machine.alive(p[1])) first_dead = p;
    return p;
  };
  std::vector<State> inits;
  for (StateId id : graph.initial()) {
    if (first_dead) break;
    inits.push_back(pair(id, machine.initial(graph.state(id))));
  }
  auto succ = [&](const State& p, const std::function<void(const State&)>& emit) {
    if (first_dead) return;
    const StateId u = static_cast<StateId>(p[0].as_int());
    const State s = graph.state(u);
    for (StateId v : graph.successors(u)) {
      emit(pair(v, machine.step(p[1], s, graph.state(v))));
      if (first_dead) return;
    }
  };
  const StateGraph pairs(pair_vars, inits, succ, check_options(std::move(opts)));
  OPENTLA_OBS_COUNT_N(InclusionPairs, pairs.num_states());

  DeadPairSearch result;
  for (StateId p : path_to(pairs, first_dead)) {
    result.path.push_back(static_cast<StateId>(pairs.state(p)[0].as_int()));
  }
  result.pairs = pairs.num_states();
  result.stop_reason = pairs.stop_reason();
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
      initial_(initial_nodes(init_enum)) {}

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

State ConstraintExplorer::normalized(State s) const {
  for (VarId v : normalize_) s[v] = vars_->domain(v)[0];
  return s;
}

std::vector<State> ConstraintExplorer::initial_nodes(const Expr& init_enum) const {
  std::vector<State> nodes;
  for (const State& raw : ActionSuccessors::states_satisfying(*vars_, init_enum, normalize_)) {
    const State s = normalized(raw);
    Value configs = constraints_.initial(s);
    if (!constraints_.alive(configs)) continue;
    std::vector<Value> values = s.values();
    values.push_back(std::move(configs));
    nodes.emplace_back(std::move(values));
  }
  return nodes;
}

void ConstraintExplorer::for_each_step(
    const State& s, const Value& configs,
    const std::function<bool(const State&, Value)>& keep) const {
  // The stutter step, which can only grow configurations (internal
  // component moves), then the conjunction generator's steps, with hidden
  // sources drawn from the owning machine's configuration. Each is offered
  // as it comes, so the order depends only on the node; a repeat (two
  // sources reaching one visible state) only repeats an edge, which the
  // graph folds.
  auto offer = [&](const State& t) {
    Value next = constraints_.step(configs, s, t);
    if (!constraints_.alive(next)) return false;
    if (t == s && next == configs) return false;  // no-op stutter
    return keep(t, std::move(next));
  };
  offer(s);
  const auto sources = [&](std::size_t k) {
    const std::size_t i = static_cast<std::size_t>(movers_[k].machine_index);
    return constraints_.factor(i).mover_configs(constraints_.factor_config(configs, i));
  };
  steps_.for_each_successor(s, sources, [&](const State& t) { return offer(normalized(t)); });
}

void ConstraintExplorer::for_each_successor(
    const State& node, const std::function<void(const State&)>& emit) const {
  const std::size_t width = vars_->size();
  for_each_step(visible_part(node, width), node[width], [&](const State& t, Value next) {
    std::vector<Value> values = t.values();
    values.push_back(std::move(next));
    emit(State(std::move(values)));
    return true;
  });
}

std::vector<ConstraintExplorer::Verdict> ConstraintExplorer::check_targets(
    const std::vector<const SafetyMachine*>& targets) const {
  OPENTLA_OBS_SPAN("ConstraintExplorer.explore");
  OPENTLA_OBS_PHASE("check.inclusion");
  // A node is a product node with each target's configuration appended.
  const std::size_t width = vars_->size();
  const std::size_t k = targets.size();
  std::vector<std::string> slots;
  for (std::size_t i = 0; i < k; ++i) slots.push_back("__target" + std::to_string(i));
  const VarTable node_vars = with_slots(product_vars_, slots);

  // first_dead[i]: the first node emitted with target i dead. From then on
  // target i is settled: no node steps it again, and every later node
  // carries that node's dead configuration.
  std::vector<std::optional<State>> first_dead(k);
  std::size_t live = k;  // targets not yet settled
  const auto node = [&](std::vector<Value> values, const auto& config_of) {
    for (std::size_t i = 0; i < k; ++i) {
      values.push_back(first_dead[i] ? (*first_dead[i])[width + 1 + i] : config_of(i));
    }
    State n(std::move(values));
    for (std::size_t i = 0; i < k; ++i) {
      if (!first_dead[i] && !targets[i]->alive(n[width + 1 + i])) {
        first_dead[i] = n;
        --live;
      }
    }
    return n;
  };

  std::vector<State> inits;
  for (const State& p : initial_) {
    if (live == 0) break;
    const State s = visible_part(p, width);
    inits.push_back(node(p.values(), [&](std::size_t i) { return targets[i]->initial(s); }));
  }
  auto succ = [&](const State& u, const std::function<void(const State&)>& emit) {
    // Once every target has died, nothing expands, and the rest of the
    // node that saw the last death is dropped.
    if (live == 0) return;
    const State s = visible_part(u, width);
    for_each_step(s, u[width], [&](const State& t, Value next) {
      if (live == 0) return false;
      std::vector<Value> values = t.values();
      values.push_back(std::move(next));
      emit(node(std::move(values),
                [&](std::size_t i) { return targets[i]->step(u[width + 1 + i], s, t); }));
      return true;
    });
  };
  const StateGraph graph(node_vars, inits, succ, check_options(opts_));
  OPENTLA_OBS_COUNT_N(ProductNodes, graph.num_states());
  OPENTLA_OBS_GAUGE_MAX(PeakProductNodes, graph.num_states());

  std::vector<Verdict> verdicts;
  for (std::size_t i = 0; i < k; ++i) {
    Verdict& verdict = verdicts.emplace_back();
    verdict.target_name = targets[i]->name();
    const std::vector<StateId> path = path_to(graph, first_dead[i]);
    verdict.holds = path.empty();
    for (StateId id : path) verdict.counterexample.push_back(visible_part(graph.state(id), width));
    verdict.nodes = graph.num_states();
    verdict.stop_reason = graph.stop_reason();
  }
  return verdicts;
}

ConstraintExplorer::Verdict ConstraintExplorer::check_target(const SafetyMachine& target) const {
  return std::move(check_targets({&target}).front());
}

}  // namespace opentla

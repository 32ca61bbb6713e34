#include "opentla/compose/compose.hpp"

#include <algorithm>
#include <stdexcept>

#include "opentla/expr/analysis.hpp"
#include "opentla/graph/conjunction.hpp"
#include "opentla/obs/obs.hpp"
#include "opentla/tla/disjoint.hpp"

namespace opentla {

CanonicalSpec conjunction_as_spec(const std::vector<CanonicalSpec>& parts, std::string name) {
  CanonicalSpec out;
  out.name = std::move(name);

  std::vector<Expr> inits;
  std::vector<Expr> steps;
  std::vector<VarId> sub;
  for (const CanonicalSpec& p : parts) {
    inits.push_back(p.init);
    steps.push_back(p.box_step_action());
    sub.insert(sub.end(), p.sub.begin(), p.sub.end());
    out.hidden.insert(out.hidden.end(), p.hidden.begin(), p.hidden.end());
    out.fairness.insert(out.fairness.end(), p.fairness.begin(), p.fairness.end());
  }
  std::sort(sub.begin(), sub.end());
  sub.erase(std::unique(sub.begin(), sub.end()), sub.end());
  std::sort(out.hidden.begin(), out.hidden.end());
  out.hidden.erase(std::unique(out.hidden.begin(), out.hidden.end()), out.hidden.end());

  out.init = ex::land(std::move(inits));
  // /\_j [N_j]_{v_j}, expanded so successor generation and prefix machines
  // get executable disjuncts with assignments.
  out.next = to_dnf(ex::land(std::move(steps)));
  out.sub = std::move(sub);
  return out;
}

std::vector<Fairness> all_fairness(const std::vector<CanonicalSpec>& parts) {
  std::vector<Fairness> out;
  for (const CanonicalSpec& p : parts) {
    out.insert(out.end(), p.fairness.begin(), p.fairness.end());
  }
  return out;
}

CanonicalSpec make_pin(const VarTable& vars, const std::vector<VarId>& tuple,
                       std::string name) {
  CanonicalSpec pin;
  pin.name = std::move(name);
  std::vector<Expr> init;
  for (VarId v : tuple) init.push_back(ex::eq(ex::var(v), ex::constant(vars.domain(v)[0])));
  pin.init = ex::land(std::move(init));
  pin.next = ex::bottom();  // [FALSE]_tuple: the tuple never changes
  pin.sub = tuple;
  return pin;
}

StateGraph build_composite_graph(const VarTable& vars, const std::vector<CompositePart>& parts,
                                 const std::vector<std::vector<VarId>>& free_tuples,
                                 const std::vector<VarId>& pinned, std::size_t max_states) {
  ExploreOptions opts;
  opts.max_states = max_states;
  return build_composite_graph(vars, parts, free_tuples, pinned, opts);
}

StateGraph build_composite_graph(const VarTable& vars, const std::vector<CompositePart>& parts,
                                 const std::vector<std::vector<VarId>>& free_tuples,
                                 const std::vector<VarId>& pinned, const ExploreOptions& opts) {
  // Coverage check: a variable outside every subscript is unconstrained.
  std::vector<char> covered(vars.size(), 0);
  for (const CompositePart& p : parts) {
    for (VarId v : p.spec.sub) covered[v] = 1;
  }
  for (VarId v = 0; v < vars.size(); ++v) {
    if (!covered[v]) {
      throw std::runtime_error("build_composite_graph: variable '" + vars.name(v) +
                               "' is in no part's subscript");
    }
  }

  std::vector<Expr> inits;
  std::vector<StepMover> movers;
  std::vector<ConjunctionSuccessors::Disjoint> disjoints;
  for (const CompositePart& p : parts) {
    inits.push_back(p.spec.init);
    ConjunctionSuccessors::Disjoint tuples = disjoint_tuples(p.spec);
    if (!tuples.empty()) disjoints.push_back(std::move(tuples));
    if (!p.mover) continue;
    // Per-action coverage attributes each mover's emissions to its spec.
    const std::string label =
        p.spec.name.empty() ? "part_" + std::to_string(movers.size() + 1) : p.spec.name;
    movers.push_back({p.spec.next, p.spec.sub, {}, /*held=*/true, label});
  }
  for (const std::vector<VarId>& tuple : free_tuples) {
    // Everything outside the tuple is pinned by assignment; the tuple's
    // variables range over their domains. No part confines the tuple to
    // these steps, so it is not held beside the parts' steps either.
    std::vector<VarId> complement;
    for (VarId v = 0; v < vars.size(); ++v) {
      if (std::find(tuple.begin(), tuple.end(), v) == tuple.end()) complement.push_back(v);
    }
    movers.push_back({ex::unchanged(complement), tuple, {}, /*held=*/false, ""});
  }

  const std::vector<State> init_states =
      ActionSuccessors::states_satisfying(vars, ex::land(std::move(inits)), pinned);

  // Every mover part is held, so each generator conjoins a mover's N_k or
  // holds its v_k UNCHANGED (graph/conjunction): [N_k]_{v_k} holds on every
  // emitted step, and only the filter-only parts are checked.
  std::vector<const CanonicalSpec*> filters;
  for (const CompositePart& p : parts) {
    if (!p.mover) filters.push_back(&p.spec);
  }

  // Determinism contract (relied on by the parallel engine's canonical
  // renumbering): for a fixed state `s`, this lambda emits successors in
  // the generator's fixed order (graph/conjunction), filtered by every
  // filter-only part. The lambda is safe to call concurrently on distinct
  // states: all captures are read-only.
  auto succ = [&vars, filters = std::move(filters),
               steps = ConjunctionSuccessors(vars, std::move(movers), pinned, disjoints)](
                  const State& s, const std::function<void(const State&)>& emit) {
    steps.for_each_successor(s, [&](const State& t) {
      for (const CanonicalSpec* f : filters) {
        OPENTLA_OBS_COUNT(CompositeFilterChecks);
        if (!f->step_ok(vars, s, t)) return false;
      }
      emit(t);
      return true;
    });
  };

  return StateGraph(vars, init_states, succ, opts);
}

std::vector<analysis::ActionUnit> composite_action_units(
    const VarTable& vars, const std::vector<CompositePart>& parts,
    const std::vector<std::vector<VarId>>& free_tuples, const std::vector<VarId>& pinned) {
  std::vector<analysis::ActionUnit> units;
  std::size_t mover_ordinal = 0;
  for (const CompositePart& p : parts) {
    if (!p.mover) continue;
    ++mover_ordinal;
    const std::string label =
        p.spec.name.empty() ? "part_" + std::to_string(mover_ordinal) : p.spec.name;
    // A step of this mover alone enumerates every universe variable its
    // action leaves unconstrained, except the pinned ones and the other
    // movers' subscripts; that is the unit's frame scope.
    std::vector<char> is_pinned(vars.size(), 0);
    for (VarId v : pinned) is_pinned[v] = 1;
    for (const CompositePart& other : parts) {
      if (&other == &p || !other.mover) continue;
      for (VarId v : other.spec.sub) is_pinned[v] = 1;
    }
    std::vector<VarId> scope;
    for (VarId v = 0; v < vars.size(); ++v) {
      if (!is_pinned[v]) scope.push_back(v);
    }
    CanonicalSpec scoped = p.spec;
    scoped.name = label;
    scoped.sub = std::move(scope);
    std::vector<analysis::ActionUnit> part_units = analysis::spec_action_units(scoped, label);
    units.insert(units.end(), std::make_move_iterator(part_units.begin()),
                 std::make_move_iterator(part_units.end()));
  }
  for (std::size_t k = 0; k < free_tuples.size(); ++k) {
    // A free-tuple mover sets the tuple to arbitrary domain values and
    // frames everything else: it writes the tuple and reads nothing.
    analysis::ActionUnit u;
    u.name = "free_" + std::to_string(k + 1);
    std::vector<VarId> complement;
    for (VarId v = 0; v < vars.size(); ++v) {
      const std::vector<VarId>& tuple = free_tuples[k];
      if (std::find(tuple.begin(), tuple.end(), v) == tuple.end()) complement.push_back(v);
    }
    u.action = ex::unchanged(complement);
    u.fp = analysis::action_footprint(u.action, vars.all_vars());
    units.push_back(std::move(u));
  }
  return units;
}

}  // namespace opentla

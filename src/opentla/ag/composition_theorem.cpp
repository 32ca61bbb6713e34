#include "opentla/ag/composition_theorem.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "opentla/ag/propositions.hpp"
#include "opentla/analysis/footprint.hpp"
#include "opentla/automata/freeze.hpp"
#include "opentla/check/inclusion.hpp"
#include "opentla/check/invariant.hpp"
#include "opentla/check/refinement.hpp"
#include "opentla/compose/compose.hpp"
#include "opentla/expr/analysis.hpp"
#include "opentla/obs/obs.hpp"
#include "opentla/tla/disjoint.hpp"

namespace opentla {

namespace {

bool is_trivial_spec(const CanonicalSpec& s) {
  return s.sub.empty() && s.fairness.empty() &&
         structurally_equal(s.init, ex::top());
}

std::string short_trace(const VarTable& vars, const std::vector<State>& states,
                        std::size_t max_states = 12) {
  std::vector<State> shown(states.begin(),
                           states.begin() + std::min(states.size(), max_states));
  std::string out = "counterexample (" + std::to_string(states.size()) + " states):\n" +
                    format_trace(vars, shown);
  if (shown.size() < states.size()) out += "  ...\n";
  return out;
}

/// An obligation the run budget prevented from being evaluated at all:
/// not discharged, not refuted — inconclusive, with the breach named.
Obligation skipped_obligation(std::string id, std::string description,
                              const run::RunBudget& budget) {
  Obligation ob;
  ob.id = std::move(id);
  ob.description = std::move(description);
  ob.method = "skipped(budget)";
  ob.inconclusive = true;
  ob.detail =
      std::string("not evaluated: run budget stop (") + run::to_string(budget.reason()) + ")";
  return ob;
}

/// Folds a possibly-partial verdict into `ob`: a counterexample refutes
/// regardless of budget state; "holds" on a truncated exploration is
/// inconclusive, never a discharge.
void adopt_verdict(Obligation& ob, bool holds, run::StopReason stop_reason) {
  if (!holds) {
    ob.discharged = false;
  } else if (stop_reason != run::StopReason::kCompleted) {
    ob.discharged = false;
    ob.inconclusive = true;
    ob.detail +=
        std::string(" [partial: run budget stop (") + run::to_string(stop_reason) + ")]";
  } else {
    ob.discharged = true;
  }
}

/// Folds a product check's verdict into `ob`: its node count, then `note`
/// on a line of its own, then the counterexample on failure.
void adopt_product_verdict(const VarTable& vars, Obligation& ob,
                           const ConstraintExplorer::Verdict& verdict,
                           const std::string& note = "") {
  ob.detail = "product nodes: " + std::to_string(verdict.nodes);
  adopt_verdict(ob, verdict.holds, verdict.stop_reason);
  if (!note.empty()) ob.detail += "\n" + note;
  if (!verdict.holds) ob.detail += "\n" + short_trace(vars, verdict.counterexample);
}

/// The settings every product and state graph of a proof explores with.
ExploreOptions explore_options(const CompositionOptions& opts) {
  ExploreOptions out;
  out.threads = opts.threads;
  out.max_states = opts.max_states;
  out.spill_at = opts.spill_at;
  out.budget = opts.budget;
  return out;
}

/// Whether a Disjoint among `parts` (tla/disjoint) forbids every step
/// that changes the hidden variables of two of `owners`. It does when each
/// owner's hidden variables lie in its subscript, so a step that changes
/// them is one of its action's steps, and for every two owners some
/// Disjoint has two tuples, one changed by every step of each
/// (analysis::must_change).
bool hidden_steps_kept_apart(const VarTable& vars, const std::vector<CanonicalSpec>& owners,
                             const std::vector<CompositePart>& parts) {
  std::vector<std::vector<std::vector<VarId>>> disjoints;
  for (const CompositePart& p : parts) {
    std::vector<std::vector<VarId>> tuples = disjoint_tuples(p.spec);
    if (!tuples.empty()) disjoints.push_back(std::move(tuples));
  }
  // Per owner, the <Disjoint, tuple> pairs its every step changes.
  std::vector<std::set<std::pair<std::size_t, std::size_t>>> changed(owners.size());
  for (std::size_t o = 0; o < owners.size(); ++o) {
    const CanonicalSpec& spec = owners[o];
    const std::set<VarId> sub(spec.sub.begin(), spec.sub.end());
    if (!std::all_of(spec.hidden.begin(), spec.hidden.end(),
                     [&](VarId v) { return sub.contains(v); })) {
      return false;
    }
    const std::vector<std::vector<VarId>> must = analysis::must_change_by_disjunct(spec.next, vars);
    for (std::size_t d = 0; d < disjoints.size(); ++d) {
      for (std::size_t a = 0; a < disjoints[d].size(); ++a) {
        const std::vector<VarId>& tuple = disjoints[d][a];
        const bool every_step = std::all_of(must.begin(), must.end(), [&](const auto& m) {
          return std::find_first_of(m.begin(), m.end(), tuple.begin(), tuple.end()) != m.end();
        });
        if (every_step) changed[o].insert({d, a});
      }
    }
  }
  for (std::size_t x = 0; x < owners.size(); ++x) {
    for (std::size_t y = x + 1; y < owners.size(); ++y) {
      const bool apart = std::any_of(changed[x].begin(), changed[x].end(), [&](const auto& cx) {
        return std::any_of(changed[y].begin(), changed[y].end(), [&](const auto& cy) {
          return cx.first == cy.first && cx.second != cy.second;
        });
      });
      if (!apart) return false;
    }
  }
  return true;
}

/// A mover setting `tuple` to arbitrary values and nothing else. No
/// machine confines it, so its tuple also ranges beside other movers'
/// steps.
Mover free_tuple_mover(const VarTable& vars, const std::vector<VarId>& tuple) {
  std::vector<VarId> complement;
  for (VarId v = 0; v < vars.size(); ++v) {
    if (std::find(tuple.begin(), tuple.end(), v) == tuple.end()) complement.push_back(v);
  }
  Mover m;
  m.step.next = ex::unchanged(complement);
  m.step.sub = tuple;
  m.step.label = "free-move";
  return m;
}

}  // namespace

ProofReport verify_composition(const VarTable& vars, const std::vector<AGSpec>& components,
                               const AGSpec& goal, const CompositionOptions& opts) {
  ProofReport report;
  {
    std::ostringstream os;
    for (std::size_t j = 0; j < components.size(); ++j) {
      if (j != 0) os << " /\\ ";
      os << "(" << components[j].name() << ")";
    }
    os << "  =>  (" << goal.name() << ")";
    report.theorem = os.str();
  }

  // --- 0. assumptions must be safety properties ---
  for (const AGSpec* ag : [&] {
         std::vector<const AGSpec*> all;
         for (const AGSpec& c : components) all.push_back(&c);
         all.push_back(&goal);
         return all;
       }()) {
    if (!ag->assumption.fairness.empty()) {
      Obligation ob;
      ob.id = "safety-assumption";
      ob.description = "environment assumption " + ag->assumption.name + " is a safety property";
      ob.method = "syntactic";
      ob.discharged = false;
      ob.detail = "assumption carries fairness conditions; write it as a safety property "
                  "(Section 3)";
      report.add(std::move(ob));
      return report;
    }
  }

  // --- hidden, relevant, and irrelevant variables; the freeze tuple ---
  std::set<VarId> hidden_set(goal.guarantee.hidden.begin(), goal.guarantee.hidden.end());
  std::set<VarId> relevant = spec_variables(goal.guarantee);
  {
    std::set<VarId> s = spec_variables(goal.assumption);
    relevant.insert(s.begin(), s.end());
  }
  for (const AGSpec& c : components) {
    hidden_set.insert(c.guarantee.hidden.begin(), c.guarantee.hidden.end());
    hidden_set.insert(c.assumption.hidden.begin(), c.assumption.hidden.end());
    for (const CanonicalSpec* s : {&c.guarantee, &c.assumption}) {
      std::set<VarId> sv = spec_variables(*s);
      relevant.insert(sv.begin(), sv.end());
    }
  }
  for (const auto& [name, witness] : opts.goal_witness) {
    FreeVars fv = free_vars(witness);
    relevant.insert(fv.unprimed.begin(), fv.unprimed.end());
  }
  // Universe variables no spec mentions can be held constant: neither side
  // of any hypothesis depends on them, and leaving them free would only
  // blow up the exploration.
  std::vector<VarId> irrelevant;
  for (VarId v = 0; v < vars.size(); ++v) {
    if (!relevant.contains(v)) irrelevant.push_back(v);
  }
  // Normalized variables: hidden ones (tracked by machines) plus the
  // irrelevant ones (pinned).
  std::vector<VarId> normalize(hidden_set.begin(), hidden_set.end());
  normalize.insert(normalize.end(), irrelevant.begin(), irrelevant.end());
  // The freeze tuple v of C(E)_{+v}: every relevant visible variable.
  std::vector<VarId> plus_v;
  for (VarId v = 0; v < vars.size(); ++v) {
    if (!hidden_set.contains(v) && relevant.contains(v)) plus_v.push_back(v);
  }

  // --- 1. Proposition 1: syntactic closures ---
  // Proof-step spans follow Figure 9's numbering: 1 (closures + side
  // conditions), 2.1.i (H1 per component), 2.2 (H2a), 2.3 (H2b), 3 (the
  // theorem's conclusion from the discharged hypotheses).
  std::vector<CanonicalSpec> closures;  // C(M_j)
  Prop1Result goal_p1;
  // Why H2a is not discharged by Propositions 3 and 4; empty when it is.
  std::string h2a_route_refused;
  {
    OPENTLA_OBS_SPAN("fig9:1");
    OPENTLA_OBS_PHASE("fig9:1");
    for (const AGSpec& c : components) {
      Prop1Result p1 = prop1_closure(c.guarantee);
      report.add(p1.obligation);
      closures.push_back(std::move(p1.closure));
    }
    goal_p1 = prop1_closure(goal.guarantee);
    report.add(goal_p1.obligation);
    if (!report.all_discharged()) return report;

    // --- Proposition 2: hidden variables are private ---
    std::vector<const CanonicalSpec*> all_specs;
    all_specs.push_back(&goal.assumption);
    for (const CanonicalSpec& c : closures) all_specs.push_back(&c);
    report.add(prop2_side_conditions(vars, all_specs, goal.guarantee));
    if (!report.all_discharged()) return report;

    // --- Propositions 3 and 4: H2a without the freeze operator ---
    // Figure 9 discharges H2a in two moves: Proposition 4 makes C(E) and
    // C(M) orthogonal under R = /\_j C(M_j), and Proposition 3 then reduces
    // H2a to C(E) /\ R => C(M), one more target on H1's product. Where a
    // side condition fails, H2a explores the freeze product instead.
    const Obligation prop3 = prop3_side_condition(vars, goal_p1.closure, plus_v);
    Obligation prop4 =
        prop4_orthogonality(vars, goal.assumption, goal.guarantee, closures, normalize);
    if (!prop3) {
      h2a_route_refused = prop3.detail;
    } else if (!prop4) {
      h2a_route_refused = prop4.detail;
    } else {
      report.add(std::move(prop4));
    }
  }

  // --- shared exploration pieces ---
  // R's initial states are those of /\_j Init_{M_j}; H1's product starts
  // where Init_E holds as well. C(E)_{+v} constrains no initial state:
  // from one that fails Init_E, it holds while v never changes.
  std::vector<Expr> r_inits;
  for (const CanonicalSpec& c : closures) r_inits.push_back(c.init);
  const Expr r_init = ex::land(r_inits);
  r_inits.push_back(goal.assumption.init);
  const Expr h1_init = ex::land(std::move(r_inits));

  auto build_movers = [&]() {
    std::vector<Mover> movers;
    std::set<VarId> covered;
    if (!is_trivial_spec(goal.assumption) && !goal.assumption.sub.empty()) {
      movers.push_back(mover_from_spec(goal.assumption, 0, normalize));
      covered.insert(goal.assumption.sub.begin(), goal.assumption.sub.end());
    }
    for (std::size_t j = 0; j < components.size(); ++j) {
      if (!components[j].guarantee_is_mover || components[j].guarantee.sub.empty()) continue;
      movers.push_back(mover_from_spec(closures[j], static_cast<int>(1 + j), normalize));
      covered.insert(closures[j].sub.begin(), closures[j].sub.end());
    }
    // Relevant visible variables no mover writes are unconstrained by the
    // conjunction (no [N]_v mentions them): they may change at any step.
    // Beside a component's move they range freely (the step generator
    // never holds them); changes while every component stutters need an
    // explicit free mover.
    std::vector<VarId> uncovered;
    for (VarId v = 0; v < vars.size(); ++v) {
      if (relevant.contains(v) && !hidden_set.contains(v) && !covered.contains(v)) {
        uncovered.push_back(v);
      }
    }
    if (!uncovered.empty()) movers.push_back(free_tuple_mover(vars, uncovered));
    return movers;
  };

  // Once the run budget latches, the remaining hypotheses are reported as
  // inconclusive skips rather than evaluated against a breached budget.
  auto budget_stopped = [&] { return opts.budget != nullptr && opts.budget->stopped(); };

  // --- H1: |= C(E) /\ /\_j C(M_j) => E_i, and H2a by Propositions 3/4 ---
  // One exploration of H1's product checks every target on it as it runs:
  // each nontrivial E_i, in component order, and C(M) when H2a takes the
  // route. It is charged to the shared build line rather than to any one
  // target.
  const PrefixMachine goal_closure(vars, goal_p1.closure);
  const bool h2a_on_product = h2a_route_refused.empty();
  std::vector<std::unique_ptr<PrefixMachine>> h1_targets(components.size());
  std::vector<const SafetyMachine*> product_targets;
  for (std::size_t i = 0; i < components.size(); ++i) {
    if (is_trivial_spec(components[i].assumption)) continue;
    h1_targets[i] = std::make_unique<PrefixMachine>(vars, components[i].assumption);
    product_targets.push_back(h1_targets[i].get());
  }
  if (h2a_on_product) product_targets.push_back(&goal_closure);
  // One verdict per product target; empty when there is none.
  std::vector<ConstraintExplorer::Verdict> verdicts;
  {
    OPENTLA_OBS_SPAN("fig9:2.1");
    OPENTLA_OBS_PHASE("fig9:2.1");
    if (!product_targets.empty()) {
      std::vector<std::shared_ptr<const SafetyMachine>> constraints;
      constraints.push_back(std::make_shared<PrefixMachine>(vars, goal.assumption));
      for (const CanonicalSpec& c : closures) {
        constraints.push_back(std::make_shared<PrefixMachine>(vars, c));
      }
      ObligationTimer timer(report.h1_build_millis);
      const ConstraintExplorer product(vars, constraints, build_movers(), h1_init, normalize,
                                       explore_options(opts));
      verdicts = product.check_targets(product_targets);
    }
    // H1 ids name the assumption; where several components share a name,
    // each of them also names its position, so every id is unique.
    std::map<std::string, std::size_t> name_count;
    for (const AGSpec& c : components) ++name_count[c.assumption.name];
    std::size_t next_verdict = 0;
    for (std::size_t i = 0; i < components.size(); ++i) {
      OPENTLA_OBS_SPAN("fig9:2.1." + std::to_string(i + 1));
      const std::string& name = components[i].assumption.name;
      Obligation ob;
      ob.id = "H1[" + name + "]";
      if (name_count[name] > 1) ob.id += "#" + std::to_string(i + 1);
      ob.description = "C(" + goal.assumption.name + ") /\\ /\\_j C(M_j) => " + name;
      if (h1_targets[i] == nullptr) {
        ob.method = "trivial";
        ob.discharged = true;
        report.add(std::move(ob));
        continue;
      }
      ob.method = "product-inclusion";
      adopt_product_verdict(vars, ob, verdicts[next_verdict++]);
      report.add(std::move(ob));
    }
  }

  // --- H2a: |= C(E)_{+v} /\ /\_j C(M_j) => C(M) ---
  const std::string h2a_description = "C(" + goal.assumption.name +
                                      ")_{+v} /\\ /\\_j C(M_j) => C(" +
                                      goal.guarantee.name + ")";
  if (!h2a_on_product && budget_stopped()) {
    report.add(skipped_obligation("H2a", h2a_description, *opts.budget));
  } else {
    Obligation ob;
    ob.id = "H2a";
    ob.description = h2a_description;
    {
      OPENTLA_OBS_SPAN("fig9:2.2");
      OPENTLA_OBS_PHASE("fig9:2.2");
      ObligationTimer timer(ob);
      if (h2a_on_product) {
        // Proposition 3: C(E) /\ R => C(M), checked on H1's product.
        ob.method = "product-inclusion(prop3)";
        adopt_product_verdict(vars, ob, verdicts.back());
      } else {
        ob.method = "product-inclusion(freeze)";
        std::vector<std::shared_ptr<const SafetyMachine>> constraints;
        constraints.push_back(std::make_shared<FreezeMachine>(
            std::make_shared<PrefixMachine>(vars, goal.assumption), plus_v));
        for (const CanonicalSpec& c : closures) {
          constraints.push_back(std::make_shared<PrefixMachine>(vars, c));
        }
        const ConstraintExplorer freeze(vars, constraints, build_movers(), r_init, normalize,
                                        explore_options(opts));
        adopt_product_verdict(vars, ob, freeze.check_target(goal_closure),
                              "not by Propositions 3/4: " + h2a_route_refused);
      }
    }
    report.add(std::move(ob));
  }

  // --- H2b: |= E /\ /\_j M_j => M ---
  if (budget_stopped()) {
    report.add(skipped_obligation(
        "H2b", goal.assumption.name + " /\\ /\\_j M_j => " + goal.guarantee.name,
        *opts.budget));
  } else {
    Obligation ob;
    ob.id = "H2b";
    ob.description =
        goal.assumption.name + " /\\ /\\_j M_j => " + goal.guarantee.name;
    ob.method = "complete-system refinement";
    {
    OPENTLA_OBS_SPAN("fig9:2.3");
    OPENTLA_OBS_PHASE("fig9:2.3");
    ObligationTimer timer_guard(ob);
    std::vector<CompositePart> parts;
    if (!is_trivial_spec(goal.assumption)) parts.push_back({goal.assumption, /*mover=*/true});
    std::vector<Fairness> low_fairness = goal.assumption.fairness;
    std::vector<CanonicalSpec> hidden_owners;
    if (goal.assumption.has_hidden()) hidden_owners.push_back(goal.assumption);
    for (const AGSpec& c : components) {
      // The unhidden part's buffer variables move with its own actions.
      parts.push_back({c.guarantee.unhidden(), c.guarantee_is_mover});
      low_fairness.insert(low_fairness.end(), c.guarantee.fairness.begin(),
                          c.guarantee.fairness.end());
      if (c.guarantee.has_hidden()) hidden_owners.push_back(c.guarantee);
    }
    // The parts' hidden variables change in separate steps: two components
    // never update their internal state in one step. It keeps the low
    // graph the one this verifier has always checked. When no Disjoint
    // among the parts (G) already implies it, it is an assumption the
    // conjunction does not make (ROADMAP lists it), and the detail says so.
    bool assumes_hidden_interleaving = false;
    if (hidden_owners.size() > 1) {
      assumes_hidden_interleaving = !hidden_steps_kept_apart(vars, hidden_owners, parts);
      std::vector<std::vector<VarId>> hidden_tuples;
      for (const CanonicalSpec& h : hidden_owners) hidden_tuples.push_back(h.hidden);
      parts.push_back({make_disjoint(hidden_tuples, "HiddenInterleaving"), /*mover=*/false});
    }
    // Pin whatever no part constrains: the goal guarantee's hidden
    // variables when they are fresh (the refinement witness supplies their
    // values), and the irrelevant variables.
    std::vector<VarId> pin_tuple;
    {
      std::set<VarId> covered;
      for (const CompositePart& p : parts) covered.insert(p.spec.sub.begin(), p.spec.sub.end());
      for (VarId v : goal.guarantee.hidden) {
        if (!covered.contains(v)) pin_tuple.push_back(v);
      }
      for (VarId v : irrelevant) {
        if (!covered.contains(v)) pin_tuple.push_back(v);
      }
    }
    if (!pin_tuple.empty()) {
      parts.push_back({make_pin(vars, pin_tuple, "PinUnconstrained"), /*mover=*/false});
    }
    try {
      StateGraph low = build_composite_graph(vars, parts, {}, pin_tuple, explore_options(opts));
      if (low.stop_reason() != run::StopReason::kCompleted) {
        // Refinement (incl. its liveness side) is only meaningful on the
        // complete low graph; a truncated one can neither discharge nor
        // refute, so the obligation stays inconclusive.
        ob.discharged = false;
        ob.inconclusive = true;
        ob.detail = "low states: " + std::to_string(low.num_states()) +
                    " [partial: run budget stop (" + run::to_string(low.stop_reason()) +
                    "), refinement not evaluated]";
      } else {
        RefinementMapping mapping = mapping_by_name(vars, vars, opts.goal_witness);
        RefinementResult r =
            check_refinement(low, low_fairness, goal.guarantee, mapping, opts.budget);
        ob.discharged = r.holds;
        ob.detail = "low states: " + std::to_string(r.states) +
                    ", edges: " + std::to_string(r.edges);
        if (assumes_hidden_interleaving) ob.detail += " [assumes HiddenInterleaving]";
        if (r.stop_reason != run::StopReason::kCompleted) {
          // Stopped mid-check: neither discharged nor refuted.
          ob.inconclusive = true;
          ob.detail += std::string(" [partial: run budget stop (") +
                       run::to_string(r.stop_reason) + "), refinement not completed]";
        } else if (!r.holds) {
          ob.detail += "\nfailed: " + r.failed_part + "\n" +
                       short_trace(vars, r.counterexample_prefix);
          if (!r.counterexample_cycle.empty()) {
            ob.detail += "cycle:\n" + format_trace(vars, r.counterexample_cycle);
          }
        }
      }
    } catch (const std::exception& e) {
      ob.discharged = false;
      ob.detail = std::string("exploration failed: ") + e.what();
    }
    }  // timer scope
    report.add(std::move(ob));
  }

  {
    // Step 3: the Composition Theorem's conclusion — assembling the verdict
    // from the discharged hypotheses (no further exploration).
    OPENTLA_OBS_SPAN("fig9:3");
    OPENTLA_OBS_PHASE("fig9:3");
    report.all_discharged();
  }
  return report;
}

ProofReport verify_refinement_corollary(const VarTable& vars, const CanonicalSpec& assumption,
                                        const CanonicalSpec& low, const CanonicalSpec& high,
                                        const CompositionOptions& opts) {
  AGSpec component{assumption, low};
  AGSpec goal{assumption, high};
  return verify_composition(vars, {component}, goal, opts);
}

}  // namespace opentla

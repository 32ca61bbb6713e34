// opentla/check/inclusion.hpp
//
// Safety-inclusion checking: the engine behind the Composition Theorem's
// hypotheses 1 and 2(a), which have the shape
//
//     |= P /\ /\_j Q_j  =>  R
//
// with P, Q_j safety properties (closures, possibly with hidden variables)
// and R a safety property. Hypothesis 2(a) wraps P = C(E) in the freeze
// operator; where Propositions 3 and 4 apply, the verifier drops the
// freeze and checks 2(a) as one more target on hypothesis 1's product (see
// ag/composition_theorem). As the paper observes (Section 5), the
// left-hand side is the specification of a *complete system*; we explore
// that system as a product, on the StateGraph engine like every other
// exploration (budgets, spill, obs), but serially:
//
//   product node  =  visible state (hidden entries normalized), with the
//                    ProductMachine configuration of the left-hand-side
//                    machines appended as one extra value
//
// Steps come from the components' next-state actions ("movers") through
// the conjunction-aware generator of graph/conjunction, plus stuttering.
// A step that changes the visible subscript of a mover whose own prefix
// machine is among the constraints is an action step of that mover, and
// the generator builds each set of such movers' joint steps once, from
// their conjoined actions. That is not true of every step the left-hand
// side allows: a freeze-wrapped machine (the freeze product's C(E)_{+v})
// admits one step that breaks the wrapped property. Such a step is explored only beside
// another mover's action step, where the wrapped part's subscript ranges
// freely (formula (3)'s H2a counterexample flips i.ack and o.ack in one
// step); a step that breaks E while no other mover moves is not explored.
// The union is complete under that rule as long as every visible variable
// belongs to some mover's subscript.
//
// R holds iff its machine stays alive along every reachable product path.
// ConstraintExplorer::check_targets decides that for every target at once,
// while it explores the product, as kofola's inclusion check explores a
// product on the fly through one successor function: each node carries
// every target's configuration beside the left-hand side's. A target's
// first dead node settles that target; no later node steps it, and each
// carries its dead configuration. Once every target has died nothing else
// expands, and each dead target gets a shortest path to its own first dead
// node. find_dead_pair makes the same check for one machine on a graph
// already explored; check/orthogonality, a library checker the verifier
// does not call, runs it for E _|_ M.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "opentla/automata/prefix_machine.hpp"
#include "opentla/automata/product.hpp"
#include "opentla/graph/conjunction.hpp"
#include "opentla/graph/state_graph.hpp"
#include "opentla/run/budget.hpp"
#include "opentla/state/state.hpp"
#include "opentla/tla/spec.hpp"

namespace opentla {

/// A component whose next-state action generates the product's steps.
struct Mover {
  /// The action, its subscript without the normalized variables, and its
  /// hidden variables, substituted from the configurations of constraint
  /// machine `machine_index` before generating. `held` is not read: the
  /// explorer decides it from the machine.
  StepMover step;
  /// Position of the component's machine among the constraints (-1: none;
  /// `step.hidden` is then ignored). The mover is held (graph/conjunction)
  /// when that machine is a plain PrefixMachine of the same action; a
  /// freeze-wrapped machine, or none, leaves the mover's subscript free
  /// beside other movers' steps.
  int machine_index = -1;
};

/// Builds the mover for a canonical spec; `constraint_index` is the
/// position of the spec's machine in the explorer's constraint list (or
/// -1 if it has none). `normalized` lists all variables the exploration
/// normalizes away; they leave the mover's subscript and are never
/// enumerated.
Mover mover_from_spec(const CanonicalSpec& spec, int constraint_index,
                      const std::vector<VarId>& normalized);

/// A dead-pair search's answer (see find_dead_pair).
struct DeadPairSearch {
  /// Graph state ids from an initial state to one after which the machine
  /// is dead, along a shortest such path; empty if the search found none.
  std::vector<StateId> path;
  /// Pairs <graph state, configuration> the search interned.
  std::size_t pairs = 0;
  /// kCompleted unless opts.max_states or opts.budget cut the search short.
  run::StopReason stop_reason = run::StopReason::kCompleted;
};

/// Runs `machine` along every path of `graph`, reading each graph state as
/// it is stored: it explores the pairs <state id, configuration> as a
/// StateGraph of their own, and nothing expands after the first dead pair.
/// The search is serial whatever opts.threads says. opts.max_states caps
/// the pairs, and opts.budget is polled.
DeadPairSearch find_dead_pair(const StateGraph& graph, const SafetyMachine& machine,
                              ExploreOptions opts);

/// The product of the left-hand-side machines, explored on the fly with
/// the targets it is checked against.
class ConstraintExplorer {
 public:
  /// A Disjoint among the constraints (a PrefixMachine whose spec
  /// tla/disjoint recognizes) filters every step, so the step generator
  /// drops the joint steps it forbids when it is built.
  /// `init_enum` enumerates candidate initial states of the universe
  /// (typically the conjunction of all components' Init predicates, with
  /// hidden variables included; their values are normalized away and
  /// re-derived by the machines). `opts` configures every check's
  /// exploration (spill_at, max_states, budget). It runs serially whatever
  /// opts.threads says, because its early exit depends on expansion order,
  /// and add_self_loops is ignored. Reaching opts.max_states, or a breach
  /// of opts.budget, stops the exploration gracefully, and the verdicts
  /// carry the stop reason.
  ConstraintExplorer(const VarTable& vars,
                     std::vector<std::shared_ptr<const SafetyMachine>> constraints,
                     std::vector<Mover> movers, const Expr& init_enum,
                     std::vector<VarId> normalize, const ExploreOptions& opts = {});

  /// The product as a successor function. A product node is a visible
  /// state with the left-hand side's ProductMachine configuration appended
  /// as one extra value, over product_vars(); initial() lists the initial
  /// ones, and for_each_successor emits every successor of one.
  const VarTable& product_vars() const { return product_vars_; }
  const std::vector<State>& initial() const { return initial_; }
  void for_each_successor(const State& node, const std::function<void(const State&)>& emit) const;

  /// The answer to |= LHS => target. On failure it carries a finite trace
  /// of visible states after which the target's prefix machine is dead.
  struct Verdict {
    std::string target_name;
    bool holds = false;
    std::vector<State> counterexample;
    /// Nodes of the exploration that checked the target, shared by every
    /// target of that exploration.
    std::size_t nodes = 0;
    /// kCompleted = definitive. Otherwise the exploration was cut short by
    /// a budget: a counterexample is still a real refutation (the partial
    /// product only contains reachable nodes), but `holds` merely means
    /// "no violation found within the budget".
    run::StopReason stop_reason = run::StopReason::kCompleted;

    explicit operator bool() const { return holds; }
  };
  /// Checks |= LHS => T for every target T while exploring the product
  /// once; one verdict per target, in order. Each node carries every
  /// target's configuration, a target's first dead node settles it, and
  /// nothing expands once every target has died. Each target's
  /// counterexample is a shortest one.
  std::vector<Verdict> check_targets(const std::vector<const SafetyMachine*>& targets) const;
  /// check_targets for one target.
  Verdict check_target(const SafetyMachine& target) const;

 private:
  ConjunctionSuccessors step_generator() const;
  std::vector<State> initial_nodes(const Expr& init_enum) const;
  State normalized(State s) const;
  /// Offers every step from visible state `s` under left-hand-side
  /// configuration `configs` that keeps the left-hand side alive to
  /// `keep(t, next)`, which returns whether it kept the step.
  void for_each_step(const State& s, const Value& configs,
                     const std::function<bool(const State&, Value)>& keep) const;

  const VarTable* vars_;
  /// vars_ plus the configuration slot.
  VarTable product_vars_;
  ProductMachine constraints_;
  std::vector<Mover> movers_;
  std::vector<VarId> normalize_;
  ExploreOptions opts_;
  ConjunctionSuccessors steps_;
  std::vector<State> initial_;
};

}  // namespace opentla

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
// that system as a product, which is a StateGraph like every other
// exploration (budgets, spill, threads, obs):
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
// find_dead_pair decides that for every target at once, in one walk: it
// explores the pairs <product node, each target's configuration> as one
// more StateGraph, and each target that dies gets a shortest path to its
// own first dead pair. check/orthogonality, a library checker the verifier
// does not call, runs the same walk with one machine for E _|_ M.

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

/// A dead-pair walk's answer (see find_dead_pair).
struct DeadPairSearch {
  /// Per machine, in the order given: graph state ids from an initial state
  /// to one after which that machine is dead, along a shortest such path;
  /// empty if the walk found no dead pair for it.
  std::vector<std::vector<StateId>> paths;
  /// Pairs <graph state, configurations> the walk interned.
  std::size_t pairs = 0;
  /// kCompleted unless opts.max_states or opts.budget cut the walk short.
  run::StopReason stop_reason = run::StopReason::kCompleted;
};

/// Runs every machine of `machines` along every path of `graph` in one
/// walk, reading `state_of(id)` for graph state `id`: it explores the pairs
/// <state id, each machine's configuration> as a StateGraph of their own.
/// The first pair at which a machine is dead settles that machine: it is
/// never stepped again, and every later pair carries that dead
/// configuration. Once every machine has died nothing else expands.
/// Because that early exit depends on expansion order, the walk is serial
/// whatever opts.threads says. opts.max_states caps the pairs, and
/// opts.budget is polled.
DeadPairSearch find_dead_pair(const StateGraph& graph,
                              const std::vector<const SafetyMachine*>& machines,
                              const std::function<State(StateId)>& state_of,
                              ExploreOptions opts);

/// Explores the product of the left-hand-side machines once; targets are
/// then checked in one walk of the reified product graph.
class ConstraintExplorer {
 public:
  /// A Disjoint among the constraints (a PrefixMachine whose spec
  /// tla/disjoint recognizes) filters every step, so the step generator
  /// drops the joint steps it forbids when it is built.
  /// `init_enum` enumerates candidate initial states of the universe
  /// (typically the conjunction of all components' Init predicates, with
  /// hidden variables included; their values are normalized away and
  /// re-derived by the machines). `opts` configures the product's
  /// exploration and every target walk on it (threads, spill_at,
  /// max_states, budget; add_self_loops is ignored). Reaching
  /// opts.max_states, or a breach of opts.budget, stops the exploration
  /// gracefully; stop_reason() reports why and the verdicts on the partial
  /// product are marked partial.
  ConstraintExplorer(const VarTable& vars,
                     std::vector<std::shared_ptr<const SafetyMachine>> constraints,
                     std::vector<Mover> movers, const Expr& init_enum,
                     std::vector<VarId> normalize, const ExploreOptions& opts = {});
  /// graph_ points at product_vars_.
  ConstraintExplorer(ConstraintExplorer&&) = delete;

  std::size_t num_nodes() const { return graph_.num_states(); }
  /// The product: each node is a visible state with the left-hand side's
  /// ProductMachine configuration appended as one extra value.
  const StateGraph& graph() const { return graph_; }
  /// Why product exploration ended (kCompleted = full product built).
  run::StopReason stop_reason() const { return graph_.stop_reason(); }

  /// The answer to |= LHS => target. On failure it carries a finite trace
  /// of visible states after which the target's prefix machine is dead.
  struct Verdict {
    std::string target_name;
    bool holds = false;
    std::vector<State> counterexample;
    /// Pairs of the walk that checked the target, shared by every target
    /// of that walk.
    std::size_t pairs_visited = 0;
    /// kCompleted = definitive. Otherwise the product or the walk was cut
    /// short by a budget: a counterexample is still a real refutation (the
    /// partial product only contains reachable nodes), but `holds` merely
    /// means "no violation found within the budget".
    run::StopReason stop_reason = run::StopReason::kCompleted;

    explicit operator bool() const { return holds; }
  };
  /// Checks |= LHS => T for every target T in one walk of the product
  /// (find_dead_pair); one verdict per target, in order. Each target's
  /// counterexample is a shortest one.
  std::vector<Verdict> check_targets(const std::vector<const SafetyMachine*>& targets) const;
  /// check_targets for one target.
  Verdict check_target(const SafetyMachine& target) const;

 private:
  ConjunctionSuccessors step_generator() const;
  StateGraph explore(const Expr& init_enum) const;
  /// Product node `id` without its configuration slot.
  State visible(StateId id) const;

  const VarTable* vars_;
  /// vars_ plus the configuration slot.
  VarTable product_vars_;
  ProductMachine constraints_;
  std::vector<Mover> movers_;
  std::vector<VarId> normalize_;
  ExploreOptions opts_;
  ConjunctionSuccessors steps_;
  StateGraph graph_;
};

}  // namespace opentla

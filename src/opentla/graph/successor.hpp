// opentla/graph/successor.hpp
//
// TLC-style successor generation. Given an action A over a finite-domain
// universe, enumerates all states t with A(s, t) for a given s, using the
// guard/assignment decomposition of expr/analysis: guards prune disjuncts
// without touching the next state, assignments determine most primed
// variables by evaluation, and only genuinely unconstrained primed
// variables are enumerated over their domains.
//
// Nested disjunctions are distributed before the decomposition
// (expr/analysis decompose_distributed), up to 4096 disjuncts: a \/ inside
// a conjunct whose branches mention primed variables, such as the
// Enq \/ Deq inside a fairness step <A>_v or the (Put \/ Get) of a
// stuttering queue environment, becomes one disjunct per branch. Each
// branch then carries its own guards and assignments, and a variable one
// branch assigns is not enumerated in another. A \/ with no primed
// variable, and the primed-free branches of a distributed one, stay one
// guard and keep their short-circuit. Each primed branch, however, is
// evaluated on its own, as TLC explores it: in x' = 1 /\ (q = <<>> \/
// y' = Head(q)) the second branch takes Head(<<>>) and throws at
// q = <<>>, although the first branch holds there. Past the cap only the
// source disjuncts are split. Lint, footprints, prefix machines and the
// tree ENABLED keep the source split: they report on, or step through,
// the disjuncts the author wrote, and distributing there would turn dead
// branches of a live action into dead actions and multiply the disjuncts
// every prefix-machine step evaluates.
//
// Guards, assignment right-hand sides and residual conjuncts are
// evaluated by the tree evaluator (expr/eval) straight from the
// decomposition, through one EvalContext per run().
//
// TLA actions have no frame condition: a primed variable that does not
// occur in a disjunct is unconstrained and is enumerated over its domain.
// Successor generation therefore produces exactly the A-successors within
// the declared finite space.
//
// Frames. An assignment v' = v (UNCHANGED v) is neither evaluated nor
// copied: the base state already holds s[v]. Its only work is the test
// that s[v] lies in v's domain, made at the frame's place in the
// assignment order, so a state outside the declared space gets no
// successor through the frame and no later right-hand side of that
// disjunct is evaluated.
//
// Repeats. The completions of one distributed disjunct differ in the
// variables they enumerate, so a successor can only repeat when two
// disjuncts emit it. At construction two disjuncts are *exclusive* when
// some variable is changed by every step of one (analysis::must_change)
// and held by the other: framed v' = v, or pinned and neither assigned nor
// enumerated there. When every pair is exclusive, no run keeps a set of
// the successors it emitted; otherwise each full run hashes its
// successors into one and drops the repeats. The proof ranges over the
// declared domains, so it covers every state of the declared space, which
// holds every state an exploration reaches.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "opentla/expr/analysis.hpp"
#include "opentla/expr/expr.hpp"
#include "opentla/state/state.hpp"
#include "opentla/state/state_space.hpp"
#include "opentla/state/var_table.hpp"

namespace opentla {

class ActionSuccessors {
 public:
  /// `pinned` variables are never enumerated: if a disjunct leaves one
  /// unconstrained, it keeps its current value instead of ranging over its
  /// domain. Callers use this for variables whose successor values are
  /// tracked elsewhere (e.g. other components' hidden variables in a
  /// product exploration). A pinned variable that occurs primed in a
  /// residual constraint is still enumerated, so pinning never loses
  /// genuine constraints. "Disjunct" means each distributed disjunct: in
  /// x < 2 /\ (x' = x + 1 \/ (x' = 0 /\ y' = 3)) a pinned y keeps its
  /// value in the first branch and is assigned 3 in the second. Past the
  /// distribution cap the rule applies to the source disjuncts, so a
  /// pinned variable that a nested \/ mentions primed is enumerated there.
  ActionSuccessors(const VarTable& vars, Expr action, std::vector<VarId> pinned = {});

  const Expr& action() const { return action_; }

  /// Attributes this generator's emissions to `label` in the obs
  /// labeled-counter families: every emitted successor counts toward
  /// ActionFired{action=label} and every run() with at least one
  /// emission counts toward ActionEnabled{action=label}. Cold path
  /// (interns the label) — call once at construction time.
  void set_label(const std::string& label);

  /// Calls `fn` for every state t with action(s, t), each once when s lies
  /// in the declared space (see "Repeats" in the header).
  void for_each_successor(const State& s, const std::function<void(const State&)>& fn) const;

  /// Whether full runs keep a set of emitted successors to drop repeats:
  /// false when the action has one disjunct or every pair of its
  /// disjuncts is exclusive. Decided at construction.
  bool keeps_duplicate_set() const { return keeps_duplicate_set_; }

  /// Convenience: the successor list of s.
  std::vector<State> successors(const State& s) const;

  /// True iff s has at least one successor (= ENABLED action at s).
  bool enabled(const State& s) const;

  /// True iff some distributed disjunct's guards (its primed-free
  /// conjuncts) hold at s.
  /// Weaker than enabled(): guards may pass while every completion fails
  /// the residual or an assignment leaves the declared space. Coverage
  /// reporting uses this to distinguish "the precondition held but the
  /// action could not fire" from "the precondition never held".
  bool guards_enabled(const State& s) const;

  /// Test hook: when set, run() enumerates completions with the flat
  /// odometer and tests the full residual at every leaf (the historical
  /// enumerate-and-test path) instead of the pruned search. The two paths
  /// must produce identical emissions in identical order — the
  /// differential tests toggle this to prove it. Global; not for
  /// concurrent use with live generators.
  static void set_naive_enumeration_for_test(bool naive);

  /// Enumerates all states satisfying a state predicate, by treating the
  /// primed predicate as an action from an arbitrary base state. Used to
  /// enumerate initial states. `pinned` variables not constrained by the
  /// predicate keep the first value of their domain instead of being
  /// enumerated (for variables whose value the caller normalizes anyway).
  static std::vector<State> states_satisfying(const VarTable& vars, const Expr& predicate,
                                              std::vector<VarId> pinned = {});

 private:
  struct CompiledDisjunct {
    ActionDisjunct parts;
    /// Per assignment: whether it is a frame v' = v.
    std::vector<bool> is_frame;
    std::vector<VarId> free_vars;  // all variables with no assignment
    /// Pruned-search schedules, precompiled once: `full_sched` orders
    /// free_vars (full successor generation), `existential_sched` orders
    /// only unassigned_primed (enabled() queries). Residual checks fire at
    /// the shallowest depth where their variables are bound.
    ResidualSchedule full_sched;
    ResidualSchedule existential_sched;
  };

  /// `existential_only`: enumerate only the residual-constrained primed
  /// variables (sufficient for the EXISTENCE of a successor — any other
  /// variable can keep its current value); full generation enumerates
  /// every unassigned variable.
  bool run(const State& s, bool existential_only,
           const std::function<bool(const State&)>& fn) const;

  const VarTable* vars_;
  Expr action_;
  StateSpace space_;
  std::vector<CompiledDisjunct> disjuncts_;
  bool keeps_duplicate_set_ = false;
  /// Obs attribution label (see set_label); 0 = unlabeled.
  std::uint32_t label_ = 0;
  bool has_label_ = false;
};

}  // namespace opentla

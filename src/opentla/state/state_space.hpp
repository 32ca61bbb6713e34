// opentla/state/state_space.hpp
//
// Enumeration of the full cartesian state space of a VarTable, and of
// partial assignments over a subset of variables. Used by the universe
// graph ("all behaviors" for validity checking) and by successor generation
// when an action leaves a primed variable unconstrained.
//
// Two enumeration shapes are offered: the flat odometer
// (for_each_completion), and a pruned depth-first search
// (for_each_completion_pruned) that evaluates residual checks the moment
// their variables are bound and cuts the whole subtree on failure. Both
// take bool-returning callbacks so a caller that only needs one witness
// (ENABLED) stops the enumeration instead of spinning through the rest of
// the space.
//
// The `check` callbacks the engine passes in evaluate one residual
// conjunct each with the tree evaluator (expr/eval), so a bind point costs
// one conjunct's evaluation. The enumeration itself knows nothing of
// expressions: which leaves it visits, and in what order, depends only on
// the schedule and on the callbacks' verdicts.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "opentla/state/state.hpp"
#include "opentla/state/var_table.hpp"

namespace opentla {

/// A pruned-enumeration schedule over a set of free variables, produced by
/// expr/analysis's schedule_residual. `order` is the DFS assignment order:
/// order[0] is assigned outermost (most significant, slowest varying).
/// at_depth[d] lists the indices of residual checks that become decidable
/// once order[0..d-1] are bound; at_depth[0] holds checks that need no
/// enumerated variable at all (their primed variables are already fixed by
/// assignments or by the base state). The schedule carries indices only —
/// the expressions they refer to stay with the caller, so the state layer
/// never depends on the expression layer.
struct ResidualSchedule {
  std::vector<VarId> order;
  std::vector<std::vector<std::size_t>> at_depth;  // size order.size() + 1
};

/// The (finite) cartesian state space over a VarTable.
class StateSpace {
 public:
  explicit StateSpace(const VarTable& vars) : vars_(&vars) {}

  const VarTable& vars() const { return *vars_; }

  /// Number of states in the full space (product of domain sizes).
  /// Throws if the product overflows 2^63.
  std::uint64_t total_states() const;

  /// Invokes `fn` on every state of the full space.
  void for_each_state(const std::function<void(const State&)>& fn) const;

  /// Invokes `fn` on every completion of `base` obtained by assigning all
  /// values of their domains to the variables in `free_vars` (other
  /// variables keep their value from `base`). `free_vars` may be empty, in
  /// which case `fn` is called once with `base` itself. `fn` returns true
  /// to stop the enumeration; the return value is true iff it stopped.
  bool for_each_completion(const State& base, const std::vector<VarId>& free_vars,
                           const std::function<bool(const State&)>& fn) const;

  /// Pruned completion enumeration: depth-first over `sched.order`, with
  /// `check(idx, partial)` invoked for each schedule entry the moment the
  /// last variable it needs is bound. A check returning false cuts the
  /// whole subtree below the current binding (counted in the
  /// completions_pruned / residual_early_cuts obs counters). `fn` runs at
  /// the leaves and returns true to stop everything; the return value is
  /// true iff `fn` stopped the search. The leaves visited are exactly the
  /// completions the flat odometer over reversed(sched.order) would visit
  /// whose scheduled checks all pass, in the same relative order — pruning
  /// only skips, it never reorders.
  bool for_each_completion_pruned(
      const State& base, const ResidualSchedule& sched,
      const std::function<bool(std::size_t, const State&)>& check,
      const std::function<bool(const State&)>& fn) const;

  /// An arbitrary state: every variable at its first domain value.
  State first_state() const;

 private:
  const VarTable* vars_;
};

}  // namespace opentla

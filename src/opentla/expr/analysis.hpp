// opentla/expr/analysis.hpp
//
// Syntactic analysis of expressions: free-variable collection, flattening
// of n-ary connectives, and TLC-style decomposition of a next-state action
// into disjuncts with guards and explicit assignments. The decomposition is
// what makes successor generation cheap: instead of enumerating the full
// next-state space, each disjunct determines most primed variables by
// evaluating assignment right-hand sides.

#pragma once

#include <optional>
#include <set>
#include <vector>

#include "opentla/expr/expr.hpp"
#include "opentla/state/state_space.hpp"

namespace opentla {

/// Free flexible variables of an expression, split by primed-ness.
struct FreeVars {
  std::set<VarId> unprimed;
  std::set<VarId> primed;
};

/// Collects free flexible variables. Variables under ENABLED count only as
/// unprimed occurrences of the ENABLED expression (ENABLED A is a state
/// predicate; its primed variables are internally quantified).
FreeVars free_vars(const Expr& e);

/// True iff `e` mentions no primed variable (i.e. is a state function).
bool is_state_function(const Expr& e);

/// Flattens nested conjunctions into a conjunct list (top() vanishes).
std::vector<Expr> flatten_and(const Expr& e);
/// Flattens nested disjunctions into a disjunct list (bottom() vanishes).
std::vector<Expr> flatten_or(const Expr& e);

/// One disjunct of a next-state action, decomposed for execution.
///
/// The disjunct is equivalent to
///     /\ guards  /\ (v' = rhs for each assignment)  /\ residual
/// where guards mention no primed variable, each assignment's rhs mentions
/// no primed variable, and `unassigned_primed` lists primed variables that
/// occur in `residual` but have no assignment (successor generation
/// enumerates their domains). Primed variables that occur nowhere in the
/// disjunct are unconstrained by it (TLA actions have no frame condition).
struct ActionDisjunct {
  std::vector<Expr> guards;
  std::vector<std::pair<VarId, Expr>> assignments;
  std::vector<Expr> residual;
  std::vector<VarId> unassigned_primed;
  /// Every primed variable occurring in `residual` (ascending), including
  /// variables that also carry an assignment. This is the residual half of
  /// the disjunct's write set; analysis/footprint.hpp unions it with the
  /// non-frame assignments.
  std::vector<VarId> residual_primed;
  /// Per residual conjunct: the unassigned primed variables it mentions
  /// (ascending). residual_needs[i] annotates residual[i]; a conjunct with
  /// an empty entry is decidable as soon as the assignments are evaluated.
  /// This is what schedule_residual turns into a pruned-search schedule.
  std::vector<std::vector<VarId>> residual_needs;
};

/// True iff the assignment v' = rhs is the frame v' = v (UNCHANGED v).
bool is_identity_frame(VarId v, const Expr& rhs);

/// Decomposes `action` into executable disjuncts. Always succeeds; in the
/// worst case a disjunct has no assignments and everything in `residual`.
std::vector<ActionDisjunct> decompose_action(const Expr& action);

/// decompose_action after distributing each nested \/ that mentions a
/// primed variable over the conjunction around it, so that each of its
/// primed branches becomes a disjunct with its own guards and assignments.
/// A \/ that mentions no primed variable stays one guard, and so do the
/// primed-free branches of a \/ that is distributed: a guard keeps its
/// left-to-right short-circuit, so `q = <<>> \/ Head(q) = 0` never takes
/// Head of an empty sequence. The top-level \/ splits as in
/// decompose_action, so an action without nested \/ decomposes exactly as
/// there. Returns nullopt once the expansion would exceed `max_disjuncts`.
std::optional<std::vector<ActionDisjunct>> decompose_distributed(const Expr& action,
                                                                 std::size_t max_disjuncts = 4096);

/// Builds the pruned-enumeration schedule for a disjunct's residual over
/// the variable set `enumerate` (the variables successor generation will
/// range over; any needed variable outside it is treated as already bound
/// in the base state). Free variables are ordered greedily so each
/// residual conjunct becomes checkable at the shallowest possible depth:
/// the conjunct with the fewest still-unbound variables is bound next
/// (ties by conjunct index, variables in ascending VarId order), and
/// variables no conjunct needs go last — they are pure frame enumeration
/// and only run under bindings the residual has already accepted. The
/// result is a pure function of (needs, enumerate): deterministic, so the
/// serial/parallel bit-identity contract survives.
ResidualSchedule schedule_residual(const std::vector<std::vector<VarId>>& needs,
                                   const std::vector<VarId>& enumerate);

/// Structural equality of expression trees (same shape, same leaves).
/// Used for syntactic side conditions such as Proposition 1's "A implies N"
/// check when A is literally a sub-disjunct of N.
bool structurally_equal(const Expr& a, const Expr& b);

/// Evaluates `e` if it is a compile-time constant: no flexible or bound
/// variables and no ENABLED reachable along the folded spine. Short-circuit
/// rules apply (a FALSE conjunct folds the conjunction even when siblings
/// are non-constant), so a fold result can exist for expressions that still
/// mention variables. Returns nullopt when the value is not determined
/// syntactically; never throws on spec-level type errors (those fold to
/// nullopt and are left for evaluation to report).
std::optional<Value> fold_constant(const Expr& e);

/// Distributes \/ over /\ at the boolean skeleton level, producing a
/// disjunction of conjunctions. Leaves (comparisons, quantifiers, ...) are
/// treated as atoms. Throws if the expansion would exceed `max_disjuncts`.
/// Used to turn conjunctions of step formulas /\_j [N_j]_{v_j} into
/// executable disjuncts for successor generation and prefix machines.
Expr to_dnf(const Expr& e, std::size_t max_disjuncts = 4096);

}  // namespace opentla

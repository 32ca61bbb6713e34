// opentla/check/refinement.hpp
//
// Refinement under a refinement mapping (Section A.4: "This result is
// proved by standard TLA reasoning using a simple refinement mapping").
//
// Given a low-level system explored as a StateGraph (with its fairness
// conditions as constraints) and a high-level canonical specification over
// a separate universe, a RefinementMapping assigns to every high-level
// variable a state function over the low-level variables (for hidden
// high-level variables this is the classical witness, e.g. the paper's
// q-bar = q2 o buffer(z) o q1 for the double queue). The checker verifies:
//
//   (init)  every low-level initial state maps into the high Init;
//   (step)  every low-level edge maps to a [HighNext]_v step;
//   (live)  no low-fair lasso violates a high fairness condition, where
//           high ENABLED is evaluated in the *high* universe at the mapped
//           state (not under syntactic substitution, which would be
//           unsound for ENABLED).

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "opentla/check/liveness.hpp"
#include "opentla/expr/expr.hpp"
#include "opentla/graph/state_graph.hpp"
#include "opentla/run/budget.hpp"
#include "opentla/tla/spec.hpp"

namespace opentla {

/// A refinement mapping from a low universe to a high universe: one state
/// function over low variables per high variable.
class RefinementMapping {
 public:
  RefinementMapping(const VarTable& low, const VarTable& high, std::vector<Expr> witness);

  /// The mapped (high) state of a low state.
  State map(const State& low_state) const;

  const VarTable& low() const { return *low_; }
  const VarTable& high() const { return *high_; }

 private:
  const VarTable* low_;
  const VarTable* high_;
  std::vector<Expr> witness_;  // indexed by high VarId
};

/// Convenience builder: high variables with the same name as a low variable
/// map to it; the remaining ones must be given explicitly by name.
RefinementMapping mapping_by_name(const VarTable& low, const VarTable& high,
                                  const std::vector<std::pair<std::string, Expr>>& extra);

struct RefinementResult {
  bool holds = false;
  std::string failed_part;  // "init" | "step" | fairness label; empty when ok
  std::vector<State> counterexample_prefix;  // low-level states
  std::vector<State> counterexample_cycle;   // low-level states (liveness)
  std::size_t states = 0;
  std::size_t edges = 0;
  /// kCompleted unless the run budget stopped the check first. Then
  /// `holds` is false and there is no counterexample: the verdict is
  /// inconclusive, neither a proof nor a refutation.
  run::StopReason stop_reason = run::StopReason::kCompleted;

  explicit operator bool() const { return holds; }
};

/// Checks that `low_graph` (whose behaviors are additionally constrained by
/// `low_fairness`) refines `high` under `mapping`. Verifies init, step, and
/// every high fairness condition. `budget` (optional, not owned) is polled
/// once per low state in the step loop and before each fairness condition.
RefinementResult check_refinement(const StateGraph& low_graph,
                                  const std::vector<Fairness>& low_fairness,
                                  const CanonicalSpec& high, const RefinementMapping& mapping,
                                  run::RunBudget* budget = nullptr);

}  // namespace opentla

// opentla/tla/spec.hpp
//
// Canonical-form specifications (Section 2.2). A component specification is
//
//     EE x : Init /\ [][N]_v /\ L
//
// where v is the tuple <m, x> of the component's output and internal
// variables, Init constrains their initial values, N is the next-state
// action, and L is a conjunction of WF/SF fairness conditions.
//
// A CanonicalSpec lives in one universe (VarTable) that also contains its
// internal ("hidden") variables; the `hidden` list records which variables
// are EE-bound. The paper's substitution idiom F[z/o, q1/q] is supported by
// `renamed`.

#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "opentla/expr/expr.hpp"
#include "opentla/state/state.hpp"
#include "opentla/state/var_table.hpp"

namespace opentla {

/// One fairness conjunct WF_v(A) or SF_v(A). The subscript is a tuple of
/// variables, as in all of the paper's specifications.
struct Fairness {
  enum class Kind { Weak, Strong };
  Kind kind = Kind::Weak;
  std::vector<VarId> sub;
  Expr action;
  std::string label;  // for reports, e.g. "WF_<<i,o,q>>(QM)"
};

/// A canonical-form specification EE hidden : Init /\ [][Next]_sub /\ L.
struct CanonicalSpec {
  std::string name;
  Expr init;
  Expr next;
  std::vector<VarId> sub;      // the subscript tuple v of [][N]_v
  std::vector<Fairness> fairness;
  std::vector<VarId> hidden;   // EE-bound internal variables (subset of sub)

  bool has_hidden() const { return !hidden.empty(); }
  bool has_fairness() const { return !fairness.empty(); }

  /// The step formula [Next]_sub = Next \/ UNCHANGED <<sub>> as an action.
  Expr box_step_action() const;

  /// True iff <s, t> satisfies [Next]_sub.
  bool step_ok(const VarTable& vars, const State& s, const State& t) const;

  /// The same specification with fairness dropped. If the spec is
  /// machine-closed (Proposition 1), this is its closure C(spec).
  CanonicalSpec safety_part() const;

  /// The spec with hidden variables exposed (no EE): the paper's ISpec.
  CanonicalSpec unhidden() const;

  /// The paper's substitution F[w/v, ...]: renames variables everywhere
  /// (init, next, subscript, fairness, hidden). Ids absent from the map are
  /// unchanged.
  CanonicalSpec renamed(const std::map<VarId, VarId>& renaming, std::string new_name) const;

  /// Human-readable rendering of the full formula.
  std::string to_string(const VarTable& vars) const;
};

/// `tuple` as TLA+ writes it, e.g. "<<i.sig, i.val>>".
std::string tuple_to_string(const VarTable& vars, const std::vector<VarId>& tuple);

/// True iff the step <s, t> changes the value of some variable in `tuple`.
bool changes_tuple(const std::vector<VarId>& tuple, const State& s, const State& t);

/// All variables a specification mentions (init, next, subscript, fairness).
std::set<VarId> spec_variables(const CanonicalSpec& spec);

/// The action A /\ (<<tuple>>' # <<tuple>>): an A step that changes the
/// subscript. This is the step WF/SF count as "the action happening".
Expr action_changing(const Expr& action, const std::vector<VarId>& tuple);

}  // namespace opentla

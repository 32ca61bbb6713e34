// opentla/ag/propositions.hpp
//
// The paper's Propositions 1-4 as checkable reduction rules. Each returns
// an Obligation describing what was established (or why it failed), so the
// theorem verifier's reports read like the paper's proofs.
//
//   Proposition 1 (machine closure): if every fairness action implies N,
//     C(Init /\ [][N]_v /\ L) = Init /\ [][N]_v; the closure of a spec is
//     then computed syntactically by dropping L.
//
//   Proposition 2 (closure vs hiding): if the hidden tuples x_i are
//     pairwise disjoint and do not occur in the other specs,
//     |= /\ C(M_i) => EE x : C(M)  implies  |= /\ C(EE x_i : M_i) => C(EE x : M).
//     Operationally this is what justifies checking closures with prefix
//     machines that carry their own hidden assignments; the rule here
//     verifies the variable side conditions.
//
//   Proposition 3 (freeze elimination): for safety E, M, R with vars(M)
//     included in v:  |= E /\ R => M  and  |= R => (E _|_ M)  imply
//     |= E_{+v} /\ R => M. With Proposition 4 this is Figure 9's route for
//     hypothesis 2(a); `prop3_side_condition` checks the variable inclusion.
//
//   Proposition 4 (interleaving orthogonality): for component specs
//     E == EE x : Init_E /\ [][N_E]_<<e, x>>  and
//     M == EE y : Init_M /\ [][N_M]_<<m, y>>,
//     |= (EE x: Init_E \/ EE y: Init_M) /\ Disjoint(e, m) => C(E) _|_ C(M).
//     `prop4_orthogonality` concludes R => C(E) _|_ C(M) for a conjunction R
//     of component closures by showing that R implies both conjuncts of
//     the left-hand side: Disjoint(e, m) from a Disjoint among R's specs,
//     and the initial condition on R's initial states.

#pragma once

#include <vector>

#include "opentla/proof/obligation.hpp"
#include "opentla/tla/spec.hpp"

namespace opentla {

/// Proposition 1: returns the closure (the safety part) when the spec is
/// syntactically machine-closed; the obligation records the check.
struct Prop1Result {
  Obligation obligation;
  CanonicalSpec closure;
};
Prop1Result prop1_closure(const CanonicalSpec& spec);

/// Proposition 2's side conditions: each spec's hidden variables occur in
/// no other spec of `specs` (including the goal `m`).
Obligation prop2_side_conditions(const VarTable& vars,
                                 const std::vector<const CanonicalSpec*>& specs,
                                 const CanonicalSpec& m);

/// Proposition 3's side condition: every free variable of M is in v.
Obligation prop3_side_condition(const VarTable& vars, const CanonicalSpec& m,
                                const std::vector<VarId>& v);

/// Proposition 4 for R = /\_j r[j]: concludes |= R => C(e) _|_ C(m), where
/// e's output tuple is its subscript without its hidden variables, and
/// likewise for m. Discharged iff
///   - both closures are computed syntactically (Proposition 1);
///   - R implies Disjoint(outputs of e, outputs of m): an output tuple is
///     empty, or some spec of `r` is a Disjoint that tla/disjoint
///     recognizes, each output variable lies in one of its tuples, and no
///     tuple meets both output tuples;
///   - every initial state of R, a state satisfying /\_j Init_{r[j]},
///     starts e's or m's prefix machine alive.
/// `pinned` lists variables that neither e nor m reads freely (hidden ones,
/// and those no spec mentions): R's initial states leave them at the first
/// value of their domain where its Init predicates leave them free.
Obligation prop4_orthogonality(const VarTable& vars, const CanonicalSpec& e,
                               const CanonicalSpec& m, const std::vector<CanonicalSpec>& r,
                               const std::vector<VarId>& pinned);

}  // namespace opentla

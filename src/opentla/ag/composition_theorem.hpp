// opentla/ag/composition_theorem.hpp
//
// The Composition Theorem (Section 5) as a mechanical verifier. To
// establish
//
//     |= /\_{j=1..n} (E_j +> M_j)  =>  (E +> M)
//
// it discharges, for i = 1..n,
//
//   (H1)   |= C(E) /\ /\_j C(M_j)        => E_i
//   (H2a)  |= C(E)_{+v} /\ /\_j C(M_j)   => C(M)
//   (H2b)  |= E /\ /\_j M_j              => M
//
// Closures are computed syntactically after verifying machine closure
// (Proposition 1); hidden variables are handled by the prefix machines'
// subset constructions (justified by Proposition 2, whose side conditions
// are checked). H1 is a safety inclusion checked by product exploration
// (check/inclusion): one product of C(E) /\ /\_j C(M_j), one target per
// E_i, all checked while the product is explored, which stops once every
// target has died. H2a follows Figure 9: when
// Proposition 4 shows /\_j C(M_j) => C(E) _|_ C(M) (a Disjoint among the
// components keeps E's and M's output tuples apart, and every initial
// state of /\_j C(M_j) satisfies Init_E or Init_M) and Proposition 3's side
// condition holds, H2a reduces to C(E) /\ /\_j C(M_j) => C(M), one more
// target of that exploration, and the report lists Prop4[E _|_ M].
// Otherwise H2a explores the freeze product, with C(E)_{+v} as the machine
// transform of automata/freeze, from the initial states of /\_j C(M_j),
// checking C(M) the same way, and its detail names the failed condition.
// H2b is a full (safety + liveness) implication checked on the explicit
// complete system (compose) against the goal guarantee under a refinement
// mapping (check/refinement), which supplies the witness for the goal's
// hidden variables — exactly the paper's "standard TLA reasoning using a
// simple refinement mapping".
//
// The products and H2b's complete system generate their steps with the
// conjunction-aware generator of graph/conjunction. A step that changes
// the visible subscript of a component whose own machine is among the
// constraints is that component's action step, and the joint steps of each
// set of components are built once, from their conjoined actions. The
// freeze product's C(E)_{+v} is the exception: the freeze machine admits
// one step that breaks E. Such a step is explored only beside another
// component's action step, where E's subscript ranges freely (formula
// (3)'s 3-state H2a counterexample flips i.ack and o.ack together); a step
// that breaks E while no component moves is never explored. A Disjoint
// among the components (the paper's G) is recognized syntactically, and
// the joint steps it forbids are never generated. H2b keeps the
// components' hidden variables changing in separate steps (a
// HiddenInterleaving Disjoint): with G this already holds, without G it is
// an assumption the conjunction does not make, and H2b's detail ends in
// "[assumes HiddenInterleaving]" whenever no recognized Disjoint implies
// it. A run budget that stops H2b's refinement check leaves H2b
// inconclusive.
//
// The refinement Corollary ((E +> M') => (E +> M) for safety E) is the
// n = 1 instance.

#pragma once

#include <string>
#include <utility>
#include <vector>

#include "opentla/ag/ag_spec.hpp"
#include "opentla/proof/report.hpp"
#include "opentla/run/budget.hpp"

namespace opentla {

struct CompositionOptions {
  /// Refinement witnesses for H2b, by high-variable name. Must cover the
  /// goal guarantee's hidden variables (e.g. the double queue's
  /// q |-> q2 \o buffer(z) \o q1); identically-named variables map to
  /// themselves.
  std::vector<std::pair<std::string, Expr>> goal_witness;
  /// Cap on the states of each exploration: the nodes of the H1 and freeze
  /// products and of H2b's low graph.
  /// Reaching it leaves the obligation inconclusive (see
  /// ExploreOptions::max_states).
  std::size_t max_states = 2'000'000;
  /// Optional run budget (deadline / RSS / signal stop), polled by every
  /// exploration the verifier runs. On a breach the remaining obligations
  /// come back inconclusive instead of the run throwing. Not owned.
  run::RunBudget* budget = nullptr;
  /// Worker threads for H2b's low graph. 1 = serial, 0 = hardware
  /// concurrency. The H1 and freeze products are explored serially
  /// whatever this says, because they stop once every target has died,
  /// and that depends on expansion order. The verdicts and graphs are
  /// identical for every value (see ExploreOptions).
  unsigned threads = 1;
  /// Resident-byte budget for every exploration's state store arenas,
  /// products included (see ExploreOptions::spill_at).
  /// 0 = never spill.
  std::uint64_t spill_at = 0;
};

/// Verifies the Composition Theorem instance
///     /\_j components[j]  =>  goal
/// over the single universe `vars` (which contains every variable,
/// including all hidden ones). Returns the full obligation report; the
/// conclusion holds iff report.all_discharged(). An exploration may hold
/// at most ConjunctionSuccessors::kMaxHeld (20) movers, the components and
/// the goal assumption whose machines confine them to their own steps;
/// past that, building it throws std::runtime_error. Without a
/// Disjoint among the components, each set of two or more held movers
/// gets its own generator (2^n - n - 1 of them for n held movers).
ProofReport verify_composition(const VarTable& vars, const std::vector<AGSpec>& components,
                               const AGSpec& goal, const CompositionOptions& opts = {});

/// The Corollary: |= (E +> M_low) => (E +> M_high) for a safety E, i.e.
/// refinement under a fixed environment assumption.
ProofReport verify_refinement_corollary(const VarTable& vars, const CanonicalSpec& assumption,
                                        const CanonicalSpec& low, const CanonicalSpec& high,
                                        const CompositionOptions& opts = {});

}  // namespace opentla

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
// are checked). H1 and H2a are safety inclusions checked by product
// exploration (check/inclusion); the freeze operator of H2a is the
// machine transform of automata/freeze. H2b is a full (safety + liveness)
// implication checked on the explicit complete system (compose) against
// the goal guarantee under a refinement mapping (check/refinement), which
// supplies the witness for the goal's hidden variables — exactly the
// paper's "standard TLA reasoning using a simple refinement mapping".
//
// The products and H2b's complete system generate their steps with the
// conjunction-aware generator of graph/conjunction. A step that changes
// the visible subscript of a component whose own machine is among the
// constraints is that component's action step, and the joint steps of each
// set of components are built once, from their conjoined actions. H2a's
// C(E)_{+v} is the exception: the freeze machine admits one step that
// breaks E. Such a step is explored only beside another component's action
// step, where E's subscript ranges freely (formula (3)'s 3-state H2a
// counterexample flips i.ack and o.ack together); a step that breaks E
// while no component moves is never explored. A Disjoint among the
// components (the paper's G) is recognized syntactically, and the joint
// steps it forbids are never generated. H2b keeps the components' hidden
// variables changing in separate steps (a HiddenInterleaving Disjoint):
// with G this already holds, without G it is an assumption the
// conjunction does not make, and H2b's detail ends in
// "[assumes HiddenInterleaving]" whenever no recognized Disjoint implies
// it. A run budget that stops H2b's refinement check leaves H2b
// inconclusive.
//
// The refinement Corollary ((E +> M') => (E +> M) for safety E) is the
// n = 1 instance.

#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "opentla/ag/ag_spec.hpp"
#include "opentla/proof/report.hpp"
#include "opentla/run/budget.hpp"

namespace opentla {

struct CompositionOptions {
  /// The freeze tuple v of C(E)_{+v} in H2a. Empty: all universe variables
  /// that are hidden in no spec (the paper's <<i, o, z>> for the queues).
  std::vector<VarId> plus_tuple;
  /// Refinement witnesses for H2b, by high-variable name. Must cover the
  /// goal guarantee's hidden variables (e.g. the double queue's
  /// q |-> q2 \o buffer(z) \o q1); identically-named variables map to
  /// themselves.
  std::vector<std::pair<std::string, Expr>> goal_witness;
  /// Extra "free environment move" tuples for the product explorations:
  /// for each tuple, steps setting exactly those variables to arbitrary
  /// values (no machine confines them, so beside a component's step they
  /// range freely too). Needed only when no component's action generates
  /// the steps some assumption permits. Interleaving needs no option: a
  /// Disjoint among the components is recognized and used.
  std::vector<std::vector<VarId>> free_tuples;
  /// Cap on the states of each exploration: the nodes of the H1, H2a and
  /// step 2.2 products, the pairs of each target or orthogonality search,
  /// H2b's low graph and Proposition 3's R graph. Reaching it leaves the
  /// obligation inconclusive (see ExploreOptions::max_states).
  std::size_t max_states = 2'000'000;
  /// Optional run budget (deadline / RSS / signal stop), polled by every
  /// exploration the verifier runs. On a breach the remaining obligations
  /// come back inconclusive instead of the run throwing. Not owned.
  run::RunBudget* budget = nullptr;
  /// Worker threads for the explorations: the H1, H2a and step 2.2
  /// products, H2b's low graph and Proposition 3's R graph (pair searches
  /// stay serial). 1 = serial, 0 = hardware concurrency. The verdicts and
  /// graphs are identical for every value (see ExploreOptions).
  unsigned threads = 1;
  /// Resident-byte budget for every exploration's state store arenas,
  /// products and pair searches included (see ExploreOptions::spill_at).
  /// 0 = never spill.
  std::uint64_t spill_at = 0;
  /// Also verify H1/H2a's closure side conditions semantically on graphs
  /// (slower; default is the syntactic Proposition 1 check only).
  bool semantic_machine_closure = false;
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

/// Inputs for the paper's own discharge of hypothesis 2(a) — Figure 9's
/// steps 2.1/2.2 — via Propositions 3 and 4 instead of the direct
/// freeze-product exploration:
///
///   2.2  |= C(E) /\ R => C(M)            (a plain product inclusion)
///   2.1  |= R => C(E) _|_ C(M)           (orthogonality: by Proposition 4's
///        side conditions, and checked semantically on R's behaviors)
///   side |= vars(M) within v             (Proposition 3's side condition)
///   =>   |= C(E)_{+v} /\ R => C(M)       (hypothesis 2(a))
///
/// where R = /\_j C(M_j). `env_outputs` / `guarantee_outputs` are the
/// output tuples e and m of the goal's environment and system components
/// (Proposition 4's interleaving shape).
struct Prop3Route {
  std::vector<VarId> env_outputs;
  std::vector<VarId> guarantee_outputs;
};

/// Returns the Figure-9-style obligations for H2a discharged by the
/// Proposition 3/4 route. All obligations discharged iff H2a holds by this
/// route (the route is sound but may be less complete than the direct
/// check when its side conditions fail).
std::vector<Obligation> discharge_h2a_via_prop3(const VarTable& vars,
                                                const std::vector<AGSpec>& components,
                                                const AGSpec& goal, const Prop3Route& route,
                                                const CompositionOptions& opts = {});

}  // namespace opentla

// opentla/compose/compose.hpp
//
// Composition is conjunction (Section 1). This module builds the explicit
// complete system denoted by a conjunction of canonical specifications
// over one universe:
//
//   - `conjunction_as_spec` realizes the paper's observation (Section 5)
//     that P /\ /\_j Q_j is itself a canonical-form complete-system
//     specification: Init = conjunction of Inits, N = /\_j [N_j]_{v_j}
//     (expanded to DNF so it stays executable), v = the union of the
//     subscripts, L = the union of the fairness conditions.
//
//   - `build_composite_graph` explores the conjunction directly. Every
//     step allowed by the conjunction that changes the subscript of some
//     mover part is an action step of that part, so the steps come from
//     the conjunction-aware generator of graph/conjunction (each set of
//     movers' joint steps built once from their conjoined actions, a
//     Disjoint part dropping the sets it forbids). Every mover part is
//     held, so each generator conjoins a mover's N_k or holds its v_k
//     UNCHANGED, and [N_k]_{v_k} holds on every step it emits by
//     construction: only the filter-only parts' [N_j]_{v_j} (a Disjoint,
//     pins, an environment frame) are checked on each candidate. Hidden
//     variables are explored explicitly (hiding on the left of an
//     implication is free).

#pragma once

#include <vector>

#include "opentla/analysis/footprint.hpp"
#include "opentla/graph/state_graph.hpp"
#include "opentla/tla/spec.hpp"

namespace opentla {

/// The conjunction of `parts` as one canonical complete-system spec.
/// All parts' hidden variables become hidden variables of the result (the
/// caller must ensure they are distinct, which renaming guarantees).
CanonicalSpec conjunction_as_spec(const std::vector<CanonicalSpec>& parts, std::string name);

/// One conjunct of an explicit composition.
struct CompositePart {
  CanonicalSpec spec;
  /// Whether the part's next-state action generates steps. Parts whose
  /// actions have no executable assignments (e.g. Disjoint, or a
  /// variable-pinning frame) should be filter-only; steps they would allow
  /// must then come from other movers or `free_tuples`. A filter-only part
  /// that tla/disjoint recognizes as a Disjoint lets the generator drop the
  /// joint steps it forbids.
  bool mover = true;

  CompositePart(CanonicalSpec s, bool is_mover = true) : spec(std::move(s)), mover(is_mover) {}
};

/// Explores the complete system /\_j parts[j] with hidden variables
/// explicit. `free_tuples` adds, for each tuple, steps that set the
/// tuple's variables to arbitrary domain values and leave every other
/// variable unchanged — the "unconstrained environment" moves that a
/// composition without an environment conjunct permits (within Disjoint);
/// beside a part's step the tuple ranges freely too.
/// Throws if some universe variable is in no part's subscript (such a
/// variable could change arbitrarily at every step; cover it with a part
/// or pin it).
/// `pinned` variables are excluded from successor enumeration when no
/// part's action constrains them (use for variables a filter-only part pins
/// anyway, e.g. a make_pin frame — the enumeration would generate
/// candidates the pin rejects).
StateGraph build_composite_graph(const VarTable& vars, const std::vector<CompositePart>& parts,
                                 const std::vector<std::vector<VarId>>& free_tuples = {},
                                 const std::vector<VarId>& pinned = {},
                                 std::size_t max_states = 2'000'000);

/// Same composition, explored per `opts` (serial or parallel; see
/// ExploreOptions). The graph is identical for every opts.threads value.
StateGraph build_composite_graph(const VarTable& vars, const std::vector<CompositePart>& parts,
                                 const std::vector<std::vector<VarId>>& free_tuples,
                                 const std::vector<VarId>& pinned, const ExploreOptions& opts);

/// The static-analysis view of the same composition: one ActionUnit per
/// NEXT disjunct of each mover part (labeled the way build_composite_graph
/// labels its movers — the spec name, or "part_N" for the N-th unnamed
/// mover — with "#i" appended when a mover has several disjuncts), plus
/// one "free_K" unit per free tuple. Each unit's footprint uses the frame
/// scope a step of that mover alone enumerates: every universe variable
/// except the pinned ones and the other movers' subscripts, which the
/// step holds unchanged. Feeding these units to
/// analysis::compute_independence yields the composed system's
/// independence matrix (OTL012, `tlacheck analyze`, the POR precompute).
std::vector<analysis::ActionUnit> composite_action_units(
    const VarTable& vars, const std::vector<CompositePart>& parts,
    const std::vector<std::vector<VarId>>& free_tuples = {},
    const std::vector<VarId>& pinned = {});

/// A canonical frame spec pinning `tuple` to its initial values: init sets
/// each variable to its first domain value, and no step may change them.
/// Used to close a composition over variables none of its parts constrain
/// (e.g. the goal specification's hidden variable in hypothesis 2(b)).
CanonicalSpec make_pin(const VarTable& vars, const std::vector<VarId>& tuple, std::string name);

/// All fairness conditions of the parts, concatenated.
std::vector<Fairness> all_fairness(const std::vector<CanonicalSpec>& parts);

}  // namespace opentla

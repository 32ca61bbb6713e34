// opentla/check/orthogonality.hpp
//
// Orthogonality (Section 4.2): E _|_ M holds of a behavior iff there is no
// n such that E and M both hold for the first n states and both fail for
// the first n+1 states — no single step falsifies both. This is the key to
// removing the freeze operator from proof obligations (Proposition 3), and
// interleaving (Disjoint) guarantees it (Proposition 4).
//
// The checker decides |= R => (E _|_ M) where the behaviors of R are given
// by an explored StateGraph and E, M by safety machines: it runs
// check/inclusion's dead-pair search with one machine for E _|_ M over
// <E's configuration, M's configuration>, which dies on the first step
// that kills both at once.

#pragma once

#include <string>
#include <vector>

#include "opentla/automata/prefix_machine.hpp"
#include "opentla/graph/state_graph.hpp"

namespace opentla {

struct OrthogonalityResult {
  bool holds = false;
  /// On failure: states of a finite R-behavior whose last step falsifies
  /// both E and M simultaneously.
  std::vector<State> counterexample;
  std::size_t pairs_visited = 0;
  /// kCompleted = definitive. Otherwise opts.max_states or opts.budget cut
  /// the search short: a counterexample still refutes, but `holds` means
  /// only "no violation found".
  run::StopReason stop_reason = run::StopReason::kCompleted;

  explicit operator bool() const { return holds; }
};

/// Checks |= (behaviors of `generator`) => (E _|_ M). `opts` caps the
/// pairs (max_states), sets their spill budget and carries the run budget
/// the search polls; the search is serial whatever opts.threads says.
OrthogonalityResult check_orthogonality(const StateGraph& generator, const SafetyMachine& e,
                                        const SafetyMachine& m,
                                        const ExploreOptions& opts = {});

}  // namespace opentla

// opentla/graph/conjunction.hpp
//
// Successor generation for a complete system written as a conjunction of
// step formulas /\_k [N_k]_{v_k}, plus filters (Section 5: the left-hand
// side of every Composition Theorem hypothesis is such a system). The
// conjunction itself is the action: nothing ranges over a variable that
// another mover's subscript holds and then gets filtered out.
//
// A mover is *held* when some filter admits only [N_k]_{v_k} steps, so a
// step that changes v_k is an N_k step. For each nonempty set S of held
// movers one ActionSuccessors is built, once, over
//
//     /\_{k in S} N_k  /\  UNCHANGED <<v_j : j held, j not in S>>
//
// and a successor counts for S only when it changes every v_k, k in S. A
// step of the conjunction that changes some held subscript belongs to
// exactly one S (the held movers whose subscripts it changes), and the
// filters admit it only if N_k holds for each k in S; so the sets split
// these steps and none is generated twice. Each set's ActionSuccessors
// distributes the nested disjunctions (graph/successor) and binds every
// held variable by assignment, so the residual schedule prunes at bind
// time. The steps that change no held subscript come from one more
// generator per mover m, over N_m /\ UNCHANGED <<every held subscript>>.
// It is not built when its steps could only stutter (m's write footprint
// lies inside the held subscripts and the pinned variables) or when every
// disjunct of N_m must change a held variable (analysis::must_change).
// A system with a single mover keeps that mover's action as its only
// generator, so its emission order is the action's own.
//
// Invariant: every generator conjoins N_k or holds v_k UNCHANGED for each
// held mover k. A set S conjoins N_k for k in S and holds the other held
// subscripts, a no-held-change generator holds them all, and a lone
// mover's generator is its own action. So, without sources, [N_k]_{v_k}
// holds on every step emitted for every held mover k by construction:
// build_composite_graph, whose mover parts are all held, checks only its
// filter-only parts.
//
// A mover is *unheld* when no filter confines its subscript to its own
// steps: a free move (UNCHANGED outside a tuple), or a part whose machine
// is freeze-wrapped (automata/freeze admits one step that breaks the
// wrapped property). Generate-and-test let such a subscript range freely
// beside any other mover's step, and so does this generator; an unheld
// mover's own steps come from its generator of the second kind. Variables
// in no mover's subscript, which only filters govern, range freely too.
//
// Disjoint. When a syntactic Disjoint (tla/disjoint) filters every step,
// a generator whose every step must change two of its tuples is
// dropped when the generator is built, and one whose every step must
// change tuple T holds every other tuple unchanged. A step of set S must
// change T when some k in S has its subscript inside T, or has T changed
// by every disjunct of N_k (analysis::must_change: the handshake flip
// v' = 1 - v). Under the paper's G every set of two or more components
// is dropped, and each component's steps hold the other components'
// outputs: what the hand-written interleaving hints used to encode.
//
// Hidden sources. A mover's hidden variables are substituted from the
// caller's source tuples before its generators run (a product draws them
// from the owning machine's configuration); a set S runs once per
// combination of its movers' sources.
//
// Determinism contract: for a fixed state and fixed sources, successors
// are emitted in a fixed order (generators in construction order, each in
// its ActionSuccessors order, sources in the order given). Safe to call
// concurrently on distinct states: nothing mutable is shared.

#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "opentla/expr/expr.hpp"
#include "opentla/graph/successor.hpp"
#include "opentla/state/state.hpp"
#include "opentla/state/var_table.hpp"

namespace opentla {

/// One conjunct of a complete system that generates steps.
struct StepMover {
  /// N_k, the next-state action.
  Expr next;
  /// v_k without the variables the caller normalizes away: a step is this
  /// mover's when it changes one of these.
  std::vector<VarId> sub;
  /// Substituted from the caller's sources before this mover's generators
  /// run (never pinned for them).
  std::vector<VarId> hidden;
  /// Whether some filter admits only [next]_sub steps (see the header).
  bool held = true;
  /// Obs attribution (ActionSuccessors::set_label); a set of several
  /// movers is labeled with their labels joined by '+'.
  std::string label;
};

class ConjunctionSuccessors {
 public:
  /// The tuples of one Disjoint (tla/disjoint).
  using Disjoint = std::vector<std::vector<VarId>>;

  /// `pinned`: variables never enumerated when no conjunct constrains them
  /// (see ActionSuccessors); a step that changes no other variable and no
  /// held subscript is dropped, so outside the held subscripts they must be
  /// variables a filter pins or the caller normalizes. `disjoints`: the
  /// Disjoints among the filters. Throws if more than kMaxHeld movers are
  /// held: the sets of held movers are enumerated as a bitmask, and
  /// without a Disjoint each set of two or more gets its own generator.
  static constexpr std::size_t kMaxHeld = 20;
  ConjunctionSuccessors(const VarTable& vars, std::vector<StepMover> movers,
                        std::vector<VarId> pinned, const std::vector<Disjoint>& disjoints = {});

  /// For mover k (only asked for movers with hidden variables): the hidden
  /// value tuples its steps start from, as a tuple Value of tuples aligned
  /// with movers[k].hidden.
  using SourceFn = std::function<Value(std::size_t mover)>;

  /// Offers every successor of `s` to `keep`, which returns whether the
  /// exploration kept it as a step. Without `sources`, hidden variables
  /// keep their values in `s`. Every candidate an action generates counts
  /// toward CandidatesGenerated, and every one `keep` accepts toward
  /// CandidatesKept, so the two counters (obs::Snapshot::waste_ratio)
  /// describe the same explorations.
  using KeepFn = std::function<bool(const State&)>;
  void for_each_successor(const State& s, const SourceFn& sources, const KeepFn& keep) const;
  void for_each_successor(const State& s, const KeepFn& keep) const {
    for_each_successor(s, nullptr, keep);
  }

 private:
  /// What a generator's successor must change to count.
  enum class Check {
    kNone,            // the single mover's own action
    kEachSubscript,   // every subscript of `movers` (a set S of held movers)
    kUnpinned,        // some variable outside `pinned` (the no-held-change steps)
  };
  struct Generator {
    ActionSuccessors action;
    std::vector<std::size_t> movers;
    Check check;
    /// Some mover of the generator has hidden variables to substitute.
    bool sourced;
  };

  void add(std::vector<std::size_t> movers, std::vector<Expr> conjuncts, Check check);

  const VarTable* vars_;
  std::vector<StepMover> movers_;
  std::vector<VarId> pinned_;
  std::vector<VarId> unpinned_;
  std::vector<Generator> generators_;
};

}  // namespace opentla

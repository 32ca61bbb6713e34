// opentla/analysis/footprint.hpp
//
// Per-action-disjunct read/write footprints — the whole-spec dataflow
// layer on top of expr/analysis's decompose_action. A footprint
// over-approximates the variables an action disjunct depends on (reads:
// guard variables, assignment right-hand sides, residual state
// variables) and the variables it can change (writes: non-frame
// assignments, residual primed variables, and — crucially — every
// in-scope primed variable the disjunct leaves unmentioned: TLA actions
// have no frame condition, so successor generation enumerates those over
// their full domains, which is a nondeterministic write).
//
// The frame scope is what distinguishes a closed module (scope = whole
// universe) from an open module living in a shared universe (scope = its
// subscript tuple; variables outside it belong to the environment and are
// framed by the explorer, not enumerated). Both the independence relation
// (independence.hpp) and the sound half of the lint checks consume these
// footprints; the purely syntactic OTL006 footprint is the scope-free
// projection `write_footprint`.

#pragma once

#include <string>
#include <vector>

#include "opentla/expr/analysis.hpp"
#include "opentla/expr/expr.hpp"
#include "opentla/parser/parser.hpp"
#include "opentla/tla/spec.hpp"

namespace opentla::analysis {

/// Read/write sets of one action disjunct (or a union over several).
/// All vectors are ascending and deduplicated.
struct Footprint {
  std::vector<VarId> reads;        // unprimed variables the effect depends on
  std::vector<VarId> writes;       // primed variables the step can change
  std::vector<VarId> guard_reads;  // subset of reads occurring in guards
  /// Set when the analysis could not decompose the action faithfully; a
  /// conservative footprint must be treated as touching everything.
  bool conservative = false;

  /// In-place union with `other` (conservative absorbs).
  void merge(const Footprint& other);
};

/// Footprint of one decomposed disjunct. `frame_scope` lists the variables
/// successor generation enumerates when a disjunct leaves them
/// unconstrained (the subscript of an open module, or every universe
/// variable for a closed one); unmentioned primed variables inside it
/// count as writes. Identity frames (v' = v, i.e. UNCHANGED) are neither
/// reads nor writes: copying a variable commutes with any concurrent
/// update of it.
Footprint disjunct_footprint(const ActionDisjunct& d,
                             const std::vector<VarId>& frame_scope);

/// Variables `d` changes in every step it allows: v counts when `d`
/// assigns v' = e and e differs from v under every valuation of the
/// variables e reads that satisfies the guards reading nothing else (the
/// handshake flip v' = 1 - v; q' = Tail(q) under Len(q) > 0). Decided by
/// evaluation over the domains, at most 4096 valuations per assignment; an
/// assignment past the cap, or one whose evaluation throws, does not
/// count. Ascending. This is the must-write half of a footprint: the
/// conjunction generator (graph/conjunction) uses it to prove that a
/// mover's every step changes a Disjoint tuple.
std::vector<VarId> must_change(const ActionDisjunct& d, const VarTable& vars);

/// must_change of each disjunct successor generation runs for `action`
/// (decompose_distributed, or decompose_action past its cap). Every step
/// of `action` changes some variable of a set when each entry meets it.
std::vector<std::vector<VarId>> must_change_by_disjunct(const Expr& action,
                                                        const VarTable& vars);

/// Union of disjunct footprints over every disjunct of `action`.
Footprint action_footprint(const Expr& action, const std::vector<VarId>& frame_scope);

/// Variables `next` can explicitly change: non-frame assignments plus
/// residual primed variables, unioned over all disjuncts, with no frame
/// scope applied. This is the syntactic written footprint lint's OTL006
/// compares between modules.
std::vector<VarId> write_footprint(const Expr& next);

/// One unit of the independence matrix: a named action disjunct with its
/// footprint.
struct ActionUnit {
  std::string name;    // "Incr", "QE1#2", "disjunct_3", ...
  std::string module;  // owning module/spec name ("" when anonymous)
  Expr action;         // the unit's disjunct (one element of flatten_or)
  Footprint fp;
};

/// The units of a parsed module: one per top-level NEXT disjunct, named
/// after the ACTION whose body it is (the scheme `tlacheck coverage`
/// uses), with `disjunct_<i>` as the fallback. The frame scope is the
/// module's subscript (unhidden), so an open module's footprints stay
/// inside the variables it governs.
std::vector<ActionUnit> module_action_units(const ParsedModule& mod);

/// The units of a canonical spec built programmatically (composition
/// parts, the queue systems): one per NEXT disjunct, named
/// `<spec>#<i>` (`<spec>` alone when NEXT has a single disjunct). The
/// frame scope is the spec's subscript.
std::vector<ActionUnit> spec_action_units(const CanonicalSpec& spec,
                                          const std::string& fallback_name = "");

}  // namespace opentla::analysis

// opentla/tla/disjoint.hpp
//
// The interleaving assumption of Section 2.3:
//
//   Disjoint(v1, ..., vn)  ==  /\_{i # j} [][(vi' = vi) \/ (vj' = vj)]_<<vi, vj>>
//
// i.e. no two of the variable tuples change in the same step. We represent
// it as a canonical-form safety specification (Init = TRUE, N = the pairwise
// disjointness action, subscript = the union of the tuples), which is
// logically equivalent: a step that changes any variable of the union must
// leave one tuple of every pair unchanged.

#pragma once

#include <vector>

#include "opentla/tla/spec.hpp"

namespace opentla {

/// Builds Disjoint(tuples[0], ..., tuples[n-1]) as a canonical safety spec.
CanonicalSpec make_disjoint(const std::vector<std::vector<VarId>>& tuples,
                            std::string name = "Disjoint");

/// True iff the step <s, t> changes variables from at most one tuple.
bool step_disjoint(const std::vector<std::vector<VarId>>& tuples, const State& s,
                   const State& t);

/// The tuples of `spec` when it is syntactically a Disjoint: every conjunct
/// of its NEXT reads <<vi'>> = <<vi>> \/ <<vj'>> = <<vj>> (either side may
/// be written first), every pair of the tuples so named has its conjunct,
/// and the subscript covers every tuple variable, so that [NEXT]_sub admits
/// exactly the steps that change at most one tuple. Empty otherwise (and
/// for a Disjoint of fewer than two tuples, which constrains nothing).
std::vector<std::vector<VarId>> disjoint_tuples(const CanonicalSpec& spec);

}  // namespace opentla

#include "opentla/tla/disjoint.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <utility>

#include "opentla/expr/analysis.hpp"

namespace opentla {

CanonicalSpec make_disjoint(const std::vector<std::vector<VarId>>& tuples, std::string name) {
  std::vector<Expr> pair_conditions;
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    for (std::size_t j = i + 1; j < tuples.size(); ++j) {
      pair_conditions.push_back(
          ex::lor(ex::eq(ex::primed_var_tuple(tuples[i]), ex::var_tuple(tuples[i])),
                  ex::eq(ex::primed_var_tuple(tuples[j]), ex::var_tuple(tuples[j]))));
    }
  }
  std::vector<VarId> all;
  for (const auto& t : tuples) all.insert(all.end(), t.begin(), t.end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());

  CanonicalSpec spec;
  spec.name = std::move(name);
  spec.init = ex::top();
  spec.next = ex::land(std::move(pair_conditions));
  spec.sub = std::move(all);
  return spec;
}

bool step_disjoint(const std::vector<std::vector<VarId>>& tuples, const State& s,
                   const State& t) {
  bool one_changed = false;
  for (const auto& tuple : tuples) {
    if (changes_tuple(tuple, s, t)) {
      if (one_changed) return false;
      one_changed = true;
    }
  }
  return true;
}

namespace {

/// The tuple v of a conjunct branch <<v'>> = <<v>>, or nullopt.
std::optional<std::vector<VarId>> frame_tuple(const Expr& e) {
  const ExprNode& n = e.node();
  if (n.kind != ExprKind::Eq) return std::nullopt;
  auto vars_of = [](const Expr& t, bool primed) -> std::optional<std::vector<VarId>> {
    const ExprNode& m = t.node();
    if (m.kind != ExprKind::MakeTuple || m.kids.empty()) return std::nullopt;
    std::vector<VarId> out;
    for (const Expr& k : m.kids) {
      const ExprNode& kn = k.node();
      if (kn.kind != ExprKind::Var || kn.primed != primed) return std::nullopt;
      out.push_back(kn.var);
    }
    return out;
  };
  for (int primed_side = 0; primed_side < 2; ++primed_side) {
    const auto next = vars_of(n.kids[primed_side], true);
    const auto now = vars_of(n.kids[1 - primed_side], false);
    if (next && now && *next == *now) return next;
  }
  return std::nullopt;
}

}  // namespace

std::vector<std::vector<VarId>> disjoint_tuples(const CanonicalSpec& spec) {
  if (spec.next.is_null()) return {};
  std::vector<std::vector<VarId>> tuples;
  std::set<std::pair<std::size_t, std::size_t>> pairs;
  auto index_of = [&](std::vector<VarId> t) {
    const auto it = std::find(tuples.begin(), tuples.end(), t);
    if (it != tuples.end()) return static_cast<std::size_t>(it - tuples.begin());
    tuples.push_back(std::move(t));
    return tuples.size() - 1;
  };
  for (const Expr& conjunct : flatten_and(spec.next)) {
    const std::vector<Expr> branches = flatten_or(conjunct);
    if (branches.size() != 2) return {};
    const auto a = frame_tuple(branches[0]);
    const auto b = frame_tuple(branches[1]);
    if (!a || !b) return {};
    const std::size_t i = index_of(*a);
    const std::size_t j = index_of(*b);
    if (i == j) return {};
    pairs.insert({std::min(i, j), std::max(i, j)});
  }
  if (tuples.size() < 2 || pairs.size() != tuples.size() * (tuples.size() - 1) / 2) return {};
  const std::set<VarId> sub(spec.sub.begin(), spec.sub.end());
  for (const std::vector<VarId>& t : tuples) {
    for (VarId v : t) {
      if (!sub.contains(v)) return {};
    }
  }
  return tuples;
}

}  // namespace opentla

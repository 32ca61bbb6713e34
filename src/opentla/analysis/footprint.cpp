#include "opentla/analysis/footprint.hpp"

#include <algorithm>
#include <functional>
#include <optional>
#include <set>
#include <stdexcept>

#include "opentla/expr/eval.hpp"
#include "opentla/state/state_space.hpp"

namespace opentla::analysis {

namespace {

std::vector<VarId> sorted_vec(const std::set<VarId>& s) {
  return {s.begin(), s.end()};
}

void merge_sorted(std::vector<VarId>& into, const std::vector<VarId>& from) {
  std::vector<VarId> merged;
  merged.reserve(into.size() + from.size());
  std::set_union(into.begin(), into.end(), from.begin(), from.end(),
                 std::back_inserter(merged));
  into = std::move(merged);
}

}  // namespace

void Footprint::merge(const Footprint& other) {
  conservative = conservative || other.conservative;
  merge_sorted(reads, other.reads);
  merge_sorted(writes, other.writes);
  merge_sorted(guard_reads, other.guard_reads);
}

Footprint disjunct_footprint(const ActionDisjunct& d,
                             const std::vector<VarId>& frame_scope) {
  std::set<VarId> reads, writes, guard_reads;
  std::set<VarId> constrained;  // primed variables the disjunct mentions
  for (const Expr& g : d.guards) {
    const FreeVars fv = free_vars(g);
    guard_reads.insert(fv.unprimed.begin(), fv.unprimed.end());
  }
  reads = guard_reads;
  for (const auto& [v, rhs] : d.assignments) {
    constrained.insert(v);
    // UNCHANGED v (v' = v) copies the variable: the copy commutes with any
    // concurrent update, so it is neither a read nor a write.
    if (is_identity_frame(v, rhs)) continue;
    writes.insert(v);
    const FreeVars fv = free_vars(rhs);
    reads.insert(fv.unprimed.begin(), fv.unprimed.end());
  }
  for (const Expr& c : d.residual) {
    const FreeVars fv = free_vars(c);
    reads.insert(fv.unprimed.begin(), fv.unprimed.end());
  }
  writes.insert(d.residual_primed.begin(), d.residual_primed.end());
  constrained.insert(d.residual_primed.begin(), d.residual_primed.end());
  // No frame condition: an in-scope primed variable the disjunct never
  // mentions is enumerated over its whole domain — a nondeterministic
  // write.
  for (VarId v : frame_scope) {
    if (!constrained.contains(v)) writes.insert(v);
  }
  Footprint fp;
  fp.reads = sorted_vec(reads);
  fp.writes = sorted_vec(writes);
  fp.guard_reads = sorted_vec(guard_reads);
  return fp;
}

std::vector<VarId> must_change(const ActionDisjunct& d, const VarTable& vars) {
  constexpr std::size_t kMaxValuations = 4096;
  const StateSpace space(vars);
  std::set<VarId> out;
  for (const auto& [v, rhs] : d.assignments) {
    if (is_identity_frame(v, rhs)) continue;
    std::set<VarId> read = free_vars(rhs).unprimed;
    read.insert(v);
    std::size_t valuations = 1;
    for (VarId r : read) {
      valuations *= vars.domain(r).size();
      if (valuations > kMaxValuations) break;
    }
    if (valuations > kMaxValuations) continue;
    std::vector<const Expr*> guards;
    for (const Expr& g : d.guards) {
      const std::set<VarId> gv = free_vars(g).unprimed;
      if (std::includes(read.begin(), read.end(), gv.begin(), gv.end())) guards.push_back(&g);
    }
    bool always = true;
    space.for_each_completion(space.first_state(), sorted_vec(read), [&](const State& w) {
      EvalContext ctx;
      ctx.vars = &vars;
      ctx.current = &w;
      try {
        for (const Expr* g : guards) {
          if (!eval_bool(*g, ctx)) return false;  // no step from this valuation
        }
        always = eval(rhs, ctx) != w[v];
      } catch (const std::exception&) {
        always = false;
      }
      return !always;
    });
    if (always) out.insert(v);
  }
  return sorted_vec(out);
}

std::vector<std::vector<VarId>> must_change_by_disjunct(const Expr& action,
                                                        const VarTable& vars) {
  std::optional<std::vector<ActionDisjunct>> disjuncts = decompose_distributed(action);
  if (!disjuncts) disjuncts = decompose_action(action);
  std::vector<std::vector<VarId>> out;
  for (const ActionDisjunct& d : *disjuncts) out.push_back(must_change(d, vars));
  return out;
}

Footprint action_footprint(const Expr& action, const std::vector<VarId>& frame_scope) {
  Footprint fp;
  if (action.is_null()) {
    fp.conservative = true;
    return fp;
  }
  for (const ActionDisjunct& d : decompose_action(action)) {
    fp.merge(disjunct_footprint(d, frame_scope));
  }
  return fp;
}

std::vector<VarId> write_footprint(const Expr& next) {
  std::set<VarId> written;
  if (!next.is_null()) {
    for (const ActionDisjunct& d : decompose_action(next)) {
      for (const auto& [v, rhs] : d.assignments) {
        if (!is_identity_frame(v, rhs)) written.insert(v);
      }
      written.insert(d.residual_primed.begin(), d.residual_primed.end());
    }
  }
  return sorted_vec(written);
}

namespace {

std::vector<VarId> sorted_scope(std::vector<VarId> scope) {
  std::sort(scope.begin(), scope.end());
  scope.erase(std::unique(scope.begin(), scope.end()), scope.end());
  return scope;
}

std::vector<ActionUnit> units_over(const Expr& next, const std::string& module,
                                   const std::vector<VarId>& scope,
                                   const std::function<std::string(const Expr&, std::size_t)>& name_of) {
  std::vector<ActionUnit> units;
  if (next.is_null()) return units;
  const std::vector<Expr> disjuncts = flatten_or(next);
  units.reserve(disjuncts.size());
  for (std::size_t i = 0; i < disjuncts.size(); ++i) {
    ActionUnit u;
    u.name = name_of(disjuncts[i], i);
    u.module = module;
    u.action = disjuncts[i];
    u.fp = action_footprint(disjuncts[i], scope);
    units.push_back(std::move(u));
  }
  return units;
}

}  // namespace

std::vector<ActionUnit> module_action_units(const ParsedModule& mod) {
  std::vector<VarId> scope = mod.spec.sub.empty() ? mod.declared : mod.spec.sub;
  scope = sorted_scope(std::move(scope));
  return units_over(
      mod.spec.next, mod.name, scope, [&](const Expr& d, std::size_t i) -> std::string {
        for (const std::string& name : mod.action_names) {
          auto it = mod.definitions.find(name);
          if (it != mod.definitions.end() && structurally_equal(d, it->second)) return name;
        }
        return "disjunct_" + std::to_string(i);
      });
}

std::vector<ActionUnit> spec_action_units(const CanonicalSpec& spec,
                                          const std::string& fallback_name) {
  const std::string base =
      !spec.name.empty() ? spec.name : (!fallback_name.empty() ? fallback_name : "action");
  std::vector<VarId> scope = spec.sub;
  if (scope.empty()) {
    const std::set<VarId> all = spec_variables(spec);
    scope.assign(all.begin(), all.end());
  }
  scope = sorted_scope(std::move(scope));
  const std::size_t n = spec.next.is_null() ? 0 : flatten_or(spec.next).size();
  return units_over(spec.next, base, scope, [&](const Expr&, std::size_t i) -> std::string {
    return n <= 1 ? base : base + "#" + std::to_string(i);
  });
}

}  // namespace opentla::analysis

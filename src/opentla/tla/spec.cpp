#include "opentla/tla/spec.hpp"

#include <algorithm>
#include <sstream>

#include "opentla/expr/analysis.hpp"
#include "opentla/expr/eval.hpp"
#include "opentla/expr/substitute.hpp"

namespace opentla {

Expr CanonicalSpec::box_step_action() const {
  return ex::lor(next, ex::unchanged(sub));
}

bool CanonicalSpec::step_ok(const VarTable& vars, const State& s, const State& t) const {
  if (!changes_tuple(sub, s, t)) return true;
  return eval_action(next, vars, s, t);
}

CanonicalSpec CanonicalSpec::safety_part() const {
  CanonicalSpec out = *this;
  out.fairness.clear();
  out.name = name + "_safety";
  return out;
}

CanonicalSpec CanonicalSpec::unhidden() const {
  CanonicalSpec out = *this;
  out.hidden.clear();
  out.name = "I" + name;
  return out;
}

CanonicalSpec CanonicalSpec::renamed(const std::map<VarId, VarId>& renaming,
                                     std::string new_name) const {
  CanonicalSpec out;
  out.name = std::move(new_name);
  out.init = rename_vars(init, renaming);
  out.next = rename_vars(next, renaming);
  auto rename_id = [&](VarId v) {
    auto it = renaming.find(v);
    return it == renaming.end() ? v : it->second;
  };
  out.sub.reserve(sub.size());
  for (VarId v : sub) out.sub.push_back(rename_id(v));
  out.hidden.reserve(hidden.size());
  for (VarId v : hidden) out.hidden.push_back(rename_id(v));
  out.fairness.reserve(fairness.size());
  for (const Fairness& f : fairness) {
    Fairness nf;
    nf.kind = f.kind;
    nf.action = rename_vars(f.action, renaming);
    nf.sub.reserve(f.sub.size());
    for (VarId v : f.sub) nf.sub.push_back(rename_id(v));
    nf.label = f.label;
    out.fairness.push_back(std::move(nf));
  }
  return out;
}

std::string tuple_to_string(const VarTable& vars, const std::vector<VarId>& tuple) {
  std::ostringstream os;
  os << "<<";
  for (std::size_t i = 0; i < tuple.size(); ++i) {
    if (i != 0) os << ", ";
    os << vars.name(tuple[i]);
  }
  os << ">>";
  return os.str();
}

std::string CanonicalSpec::to_string(const VarTable& vars) const {
  std::ostringstream os;
  os << name << " == ";
  if (has_hidden()) os << "EE " << tuple_to_string(vars, hidden) << " : ";
  os << "(" << init.to_string(vars) << ")";
  os << " /\\ [][" << next.to_string(vars) << "]_" << tuple_to_string(vars, sub);
  for (const Fairness& f : fairness) {
    os << " /\\ " << (f.kind == Fairness::Kind::Weak ? "WF_" : "SF_")
       << tuple_to_string(vars, f.sub) << "(" << f.action.to_string(vars) << ")";
  }
  return os.str();
}

bool changes_tuple(const std::vector<VarId>& tuple, const State& s, const State& t) {
  return std::any_of(tuple.begin(), tuple.end(),
                     [&](VarId v) { return !(s[v] == t[v]); });
}

Expr action_changing(const Expr& action, const std::vector<VarId>& tuple) {
  return ex::land(action,
                  ex::neq(ex::primed_var_tuple(tuple), ex::var_tuple(tuple)));
}

std::set<VarId> spec_variables(const CanonicalSpec& spec) {
  std::set<VarId> out;
  auto add_expr = [&out](const Expr& e) {
    FreeVars fv = free_vars(e);
    out.insert(fv.unprimed.begin(), fv.unprimed.end());
    out.insert(fv.primed.begin(), fv.primed.end());
  };
  add_expr(spec.init);
  add_expr(spec.next);
  for (const Fairness& f : spec.fairness) {
    add_expr(f.action);
    out.insert(f.sub.begin(), f.sub.end());
  }
  out.insert(spec.sub.begin(), spec.sub.end());
  out.insert(spec.hidden.begin(), spec.hidden.end());
  return out;
}

}  // namespace opentla

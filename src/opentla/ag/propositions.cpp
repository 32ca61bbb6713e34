#include "opentla/ag/propositions.hpp"

#include <algorithm>
#include <string>

#include "opentla/automata/prefix_machine.hpp"
#include "opentla/check/machine_closure.hpp"
#include "opentla/expr/analysis.hpp"
#include "opentla/graph/successor.hpp"
#include "opentla/tla/disjoint.hpp"

namespace opentla {

Prop1Result prop1_closure(const CanonicalSpec& spec) {
  Prop1Result result;
  result.obligation.id = "Prop1[" + spec.name + "]";
  result.obligation.description =
      "C(" + spec.name + ") = Init /\\ [][N]_v  (machine closure)";
  result.obligation.method = "prop1-syntactic";
  MachineClosureResult mc = check_prop1_syntactic(spec);
  result.obligation.discharged = mc.machine_closed;
  result.obligation.detail = mc.detail;
  result.closure = spec.safety_part();
  return result;
}

Obligation prop2_side_conditions(const VarTable& vars,
                                 const std::vector<const CanonicalSpec*>& specs,
                                 const CanonicalSpec& m) {
  Obligation ob;
  ob.id = "Prop2";
  ob.description = "hidden variables are private to their components";
  ob.method = "prop2-syntactic";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (VarId x : specs[i]->hidden) {
      for (std::size_t j = 0; j < specs.size(); ++j) {
        if (i == j) continue;
        if (spec_variables(*specs[j]).contains(x)) {
          ob.discharged = false;
          ob.detail = "hidden variable '" + vars.name(x) + "' of " + specs[i]->name +
                      " occurs in " + specs[j]->name;
          return ob;
        }
      }
      // x must not occur in M's formula except as M's own hidden variable.
      if (spec_variables(m).contains(x) &&
          std::find(m.hidden.begin(), m.hidden.end(), x) == m.hidden.end()) {
        ob.discharged = false;
        ob.detail = "hidden variable '" + vars.name(x) + "' of " + specs[i]->name +
                    " occurs free in " + m.name;
        return ob;
      }
    }
  }
  ob.discharged = true;
  ob.detail = "quantifiers commute with the closure implication (Proposition 2)";
  return ob;
}

Obligation prop3_side_condition(const VarTable& vars, const CanonicalSpec& m,
                                const std::vector<VarId>& v) {
  Obligation ob;
  ob.id = "Prop3-side";
  ob.description = "every variable of " + m.name + " occurs in the freeze tuple v";
  ob.method = "prop3-syntactic";
  for (VarId x : spec_variables(m)) {
    // Hidden variables are bound by the quantifier, not free in M.
    if (std::find(m.hidden.begin(), m.hidden.end(), x) != m.hidden.end()) continue;
    if (std::find(v.begin(), v.end(), x) == v.end()) {
      ob.discharged = false;
      ob.detail = "variable '" + vars.name(x) + "' of " + m.name + " is not in v";
      return ob;
    }
  }
  ob.discharged = true;
  return ob;
}

namespace {

/// `spec`'s subscript without its hidden variables: by Proposition 4's
/// shape, the component's output tuple.
std::vector<VarId> output_tuple(const CanonicalSpec& spec) {
  std::vector<VarId> out;
  for (VarId v : spec.sub) {
    if (std::find(spec.hidden.begin(), spec.hidden.end(), v) == spec.hidden.end()) {
      out.push_back(v);
    }
  }
  return out;
}

/// Whether Disjoint(tuples) implies Disjoint(a, b) for nonempty a and b:
/// every variable of a and b lies in some tuple, and no tuple meets both. A
/// step changing a and b would then change two different tuples.
bool keeps_apart(const std::vector<std::vector<VarId>>& tuples, const std::vector<VarId>& a,
                 const std::vector<VarId>& b) {
  auto in = [](const std::vector<VarId>& tuple, VarId v) {
    return std::find(tuple.begin(), tuple.end(), v) != tuple.end();
  };
  auto covered = [&](const std::vector<VarId>& vs) {
    return std::all_of(vs.begin(), vs.end(), [&](VarId v) {
      return std::any_of(tuples.begin(), tuples.end(), [&](const auto& t) { return in(t, v); });
    });
  };
  auto meets = [&](const std::vector<VarId>& tuple, const std::vector<VarId>& vs) {
    return std::any_of(vs.begin(), vs.end(), [&](VarId v) { return in(tuple, v); });
  };
  return covered(a) && covered(b) &&
         std::none_of(tuples.begin(), tuples.end(),
                      [&](const auto& t) { return meets(t, a) && meets(t, b); });
}

}  // namespace

Obligation prop4_orthogonality(const VarTable& vars, const CanonicalSpec& e,
                               const CanonicalSpec& m, const std::vector<CanonicalSpec>& r,
                               const std::vector<VarId>& pinned) {
  Obligation ob;
  ob.id = "Prop4[" + e.name + " _|_ " + m.name + "]";
  ob.description = "/\\_j C(M_j) => C(" + e.name + ") _|_ C(" + m.name + ")";
  ob.method = "prop4";
  auto refuse = [&](std::string why) {
    ob.discharged = false;
    ob.detail = std::move(why);
    return ob;
  };
  // The closures are the safety parts the prefix machines recognize.
  if (!prop1_closure(e).obligation || !prop1_closure(m).obligation) {
    return refuse("a closure is not syntactically computable (Proposition 1)");
  }
  // A step that leaves a spec's output tuple unchanged extends each of its
  // runs by a stutter step that keeps the hidden variables as they are, so
  // only a step changing both output tuples can falsify both closures; R's
  // Disjoint forbids it. An empty tuple never changes, so then no Disjoint
  // is needed.
  const std::vector<VarId> e_out = output_tuple(e);
  const std::vector<VarId> m_out = output_tuple(m);
  const std::string outputs =
      tuple_to_string(vars, e_out) + " and " + tuple_to_string(vars, m_out);
  std::string apart;
  if (e_out.empty() || m_out.empty()) {
    apart = "an empty output tuple keeps " + outputs + " apart";
  } else {
    const auto disjoint = std::find_if(r.begin(), r.end(), [&](const CanonicalSpec& s) {
      return keeps_apart(disjoint_tuples(s), e_out, m_out);
    });
    if (disjoint == r.end()) {
      return refuse("no Disjoint among /\\_j M_j keeps " + outputs + " apart");
    }
    apart = disjoint->name + " keeps " + outputs + " apart";
  }
  // Both closures must not already fail on the first state.
  std::vector<Expr> inits;
  for (const CanonicalSpec& s : r) inits.push_back(s.init);
  const PrefixMachine e_machine(vars, e);
  const PrefixMachine m_machine(vars, m);
  const std::vector<State> starts =
      ActionSuccessors::states_satisfying(vars, ex::land(std::move(inits)), pinned);
  for (const State& s : starts) {
    if (!e_machine.alive(e_machine.initial(s)) && !m_machine.alive(m_machine.initial(s))) {
      return refuse("an initial state of /\\_j M_j satisfies neither Init of " + e.name +
                    " nor Init of " + m.name + ": " + s.to_string(vars));
    }
  }
  ob.discharged = true;
  ob.detail = apart + "; Init of " + e.name + " or of " + m.name + " holds in each of the " +
              std::to_string(starts.size()) + " initial states of /\\_j M_j";
  return ob;
}

}  // namespace opentla

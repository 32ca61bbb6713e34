#include "opentla/automata/prefix_machine.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "opentla/analysis/footprint.hpp"
#include "opentla/expr/eval.hpp"
#include "opentla/obs/obs.hpp"
#include "opentla/state/state_space.hpp"

namespace opentla {

Value encode_config(std::vector<Value> assignments) {
  std::sort(assignments.begin(), assignments.end());
  assignments.erase(std::unique(assignments.begin(), assignments.end()), assignments.end());
  return Value::tuple(std::move(assignments));
}

Value dead_config() { return Value::tuple({}); }

PrefixMachine::PrefixMachine(const VarTable& vars, CanonicalSpec spec)
    : vars_(&vars), spec_(std::move(spec)), is_hidden_(vars.size(), 0) {
  for (VarId v : spec_.hidden) is_hidden_[v] = 1;
  for (VarId v : spec_.sub) {
    (is_hidden_[v] ? hidden_sub_ : visible_sub_).push_back(v);
  }
  // Canonical form (Section 2.2) has v = <m, x>: every hidden variable is
  // part of the subscript. The stuttering branch below relies on this (a
  // [N]_v stutter pins the hidden assignment).
  if (hidden_sub_.size() != spec_.hidden.size()) {
    throw std::runtime_error("PrefixMachine: spec '" + spec_.name +
                             "' has hidden variables outside its subscript");
  }
  for (ActionDisjunct& d : decompose_action(spec_.next)) {
    Disjunct cd;
    cd.parts = std::move(d);
    std::vector<char> assigned(vars.size(), 0);
    for (const auto& [v, rhs] : cd.parts.assignments) assigned[v] = 1;
    for (VarId v : spec_.hidden) {
      if (!assigned[v]) cd.hidden_free.push_back(v);
    }
    cd.hidden_sched = schedule_residual(cd.parts.residual_needs, cd.hidden_free);
    disjuncts_.push_back(std::move(cd));
  }
  stutter_keeps_config_ = spec_.hidden.empty();
  if (!stutter_keeps_config_) {
    const std::vector<std::vector<VarId>> must =
        analysis::must_change_by_disjunct(spec_.next, vars);
    stutter_keeps_config_ = std::all_of(must.begin(), must.end(), [&](const auto& m) {
      return std::find_first_of(m.begin(), m.end(), visible_sub_.begin(),
                                visible_sub_.end()) != m.end();
    });
  }
}

State PrefixMachine::compose(const State& visible, const Value& hidden_vals) const {
  State out = visible;
  const Value::Tuple& h = hidden_vals.as_tuple();
  for (std::size_t i = 0; i < spec_.hidden.size(); ++i) out[spec_.hidden[i]] = h[i];
  return out;
}

Value PrefixMachine::initial(const State& s) const {
  std::vector<Value> alive_assignments;
  StateSpace space(*vars_);
  space.for_each_completion(s, spec_.hidden, [&](const State& full) {
    if (eval_pred(spec_.init, *vars_, full)) {
      Value::Tuple h;
      h.reserve(spec_.hidden.size());
      for (VarId v : spec_.hidden) h.push_back(full[v]);
      alive_assignments.push_back(Value::tuple(std::move(h)));
    }
    return false;
  });
  Value config = encode_config(std::move(alive_assignments));
  OPENTLA_OBS_GAUGE_MAX(PeakConfigurationCount, config.length());
  return config;
}

void PrefixMachine::hidden_successors(const State& s_full, const State& t,
                                      const std::function<void(Value)>& emit) const {
  StateSpace space(*vars_);
  // One scratch context per call; emission order across disjuncts changes
  // with the schedule, but configurations are sorted sets (encode_config),
  // so only the set of emissions matters here.
  EvalContext ctx;
  ctx.vars = vars_;
  ctx.current = &s_full;
  for (const Disjunct& cd : disjuncts_) {
    ctx.next = nullptr;

    bool feasible = true;
    for (const Expr& g : cd.parts.guards) {
      if (!eval_bool(g, ctx)) {
        feasible = false;
        break;
      }
    }
    if (!feasible) continue;

    // Assignments either pin a hidden variable of the successor or must
    // agree with the given visible successor t.
    State t_full = t;
    for (const auto& [v, rhs] : cd.parts.assignments) {
      Value val = eval(rhs, ctx);
      if (is_hidden_[v]) {
        if (!vars_->domain(v).contains(val)) {
          feasible = false;
          break;
        }
        t_full[v] = std::move(val);
      } else if (!(t[v] == val)) {
        feasible = false;
        break;
      }
    }
    if (!feasible) continue;

    space.for_each_completion_pruned(
        t_full, cd.hidden_sched,
        [&](std::size_t i, const State& cand) {
          ctx.next = &cand;
          return eval_bool(cd.parts.residual[i], ctx);
        },
        [&](const State& cand) {
          Value::Tuple h;
          h.reserve(spec_.hidden.size());
          for (VarId v : spec_.hidden) h.push_back(cand[v]);
          emit(Value::tuple(std::move(h)));
          return false;
        });
  }
}

Value PrefixMachine::step(const Value& config, const State& s, const State& t) const {
  const bool visible_stutter = !changes_tuple(visible_sub_, s, t);
  // The stutter shortcut (stutter_keeps_config): only configurations that
  // are still expanded count toward ConfigsExpanded.
  if (visible_stutter && stutter_keeps_config_) return config;
  OPENTLA_OBS_COUNT_N(ConfigsExpanded, config.length());
  std::vector<Value> next_assignments;
  for (const Value& h : config.as_tuple()) {
    // Stuttering branch of [N]_v: the whole subscript (visible and hidden
    // parts) is unchanged, which the choice h' = h realizes.
    if (visible_stutter) next_assignments.push_back(h);
    const State s_full = compose(s, h);
    hidden_successors(s_full, t,
                      [&](Value h_next) { next_assignments.push_back(std::move(h_next)); });
  }
  Value next = encode_config(std::move(next_assignments));
  OPENTLA_OBS_GAUGE_MAX(PeakConfigurationCount, next.length());
  return next;
}

bool PrefixMachine::alive(const Value& config) const { return config.length() > 0; }

}  // namespace opentla

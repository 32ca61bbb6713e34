#include "opentla/semantics/oracle.hpp"

#include <algorithm>

#include "opentla/automata/prefix_machine.hpp"
#include "opentla/check/liveness.hpp"
#include "opentla/check/machine_closure.hpp"
#include "opentla/expr/eval.hpp"
#include "opentla/graph/fair_cycle.hpp"
#include "opentla/graph/state_graph.hpp"
#include "opentla/obs/obs.hpp"
#include "opentla/state/state_space.hpp"

namespace opentla {

bool Oracle::evaluate(const Formula& f, const LassoBehavior& sigma) {
  return evaluate_at(f, sigma, 0);
}

bool Oracle::evaluate_at(const Formula& f, const LassoBehavior& sigma, std::size_t pos) {
  // The memo is only valid within a single top-level evaluation: callers
  // routinely pass distinct temporary behaviors that reuse the same stack
  // address, so address-based caching across calls would be unsound.
  memo_.clear();
  mem_.release();
  memo_sigma_ = &sigma;
  return eval(f, sigma, pos);
}

void Oracle::require_machine_closed(const CanonicalSpec& spec) const {
  if (spec.fairness.empty()) return;
  MachineClosureResult r = check_prop1_syntactic(spec);
  if (!r) {
    throw std::runtime_error("Oracle: spec '" + spec.name +
                             "' is not (syntactically) machine-closed; prefix semantics "
                             "would be unsound: " + r.detail);
  }
}

bool Oracle::tuple_constant_from(const std::vector<VarId>& v, const LassoBehavior& sigma,
                                 std::size_t from) {
  const std::size_t start = sigma.canonical(from);
  const State& ref = sigma.at(start);
  // Positions >= start (canonically): [start, length) always includes the
  // whole loop when start < loop_start; when start is inside the loop the
  // range [loop_start, length) is what repeats.
  const std::size_t lo = std::min(start, sigma.loop_start());
  for (std::size_t q = lo; q < sigma.length(); ++q) {
    if (q < start && q < sigma.loop_start()) continue;  // strictly before suffix
    if (changes_tuple(v, ref, sigma.at(q))) return false;
  }
  return true;
}

Oracle::MachineTrace Oracle::run_machines(const std::vector<const CanonicalSpec*>& specs,
                                          const LassoBehavior& sigma, std::size_t pos) const {
  std::vector<PrefixMachine> machines;
  machines.reserve(specs.size());
  for (const CanonicalSpec* s : specs) {
    require_machine_closed(*s);
    machines.emplace_back(*vars_, s->safety_part());
  }

  MachineTrace trace;
  trace.alive.resize(machines.size());

  std::vector<Value> configs;
  configs.reserve(machines.size());
  std::size_t position = sigma.canonical(pos);
  for (const PrefixMachine& m : machines) configs.push_back(m.initial(sigma.at(position)));

  std::map<std::pair<std::size_t, Value>, std::size_t> seen;  // (pos, joint cfg) -> index
  std::size_t index = 0;
  constexpr std::size_t kCap = 1 << 20;
  while (true) {
    Value joint = Value::tuple(configs);
    auto [it, inserted] = seen.try_emplace({position, joint}, index);
    if (!inserted) {
      trace.wrap_from = index;
      trace.wrap_to = it->second;
      return trace;
    }
    for (std::size_t j = 0; j < machines.size(); ++j) {
      trace.alive[j].push_back(machines[j].alive(configs[j]) ? 1 : 0);
    }
    const std::size_t next_position = sigma.successor(position);
    for (std::size_t j = 0; j < machines.size(); ++j) {
      configs[j] = machines[j].step(configs[j], sigma.at(position), sigma.at(next_position));
    }
    position = next_position;
    if (++index > kCap) {
      throw std::runtime_error("Oracle: machine run did not become periodic (cap hit)");
    }
  }
}

bool Oracle::eval_spec(const CanonicalSpec& spec, const LassoBehavior& sigma, std::size_t pos) {
  OPENTLA_OBS_SPAN("Oracle.eval_spec");
  // sigma^pos |= EE hidden : Init /\ [][N]_v /\ L  iff the product of the
  // lasso suffix with the spec's hidden-variable transition system has a
  // reachable cycle satisfying all fairness constraints.
  VarTable ext;
  for (VarId v = 0; v < vars_->size(); ++v) {
    ext.declare(vars_->name(v), vars_->domain(v));
  }
  const VarId pos_var =
      ext.declare("__pos", range_domain(0, static_cast<std::int64_t>(sigma.length()) - 1));

  StateSpace ext_space(ext);
  auto extend = [&](const State& base, std::size_t position) {
    std::vector<Value> values = base.values();
    values.push_back(Value::integer(static_cast<std::int64_t>(position)));
    return State(std::move(values));
  };

  const std::size_t start = sigma.canonical(pos);
  std::vector<State> inits;
  {
    const State ext_start = extend(sigma.at(start), start);
    ext_space.for_each_completion(ext_start, spec.hidden, [&](const State& full) {
      if (eval_pred(spec.init, ext, full)) inits.push_back(full);
      return false;
    });
  }

  auto succ = [&](const State& s, const std::function<void(const State&)>& emit) {
    const std::size_t i = static_cast<std::size_t>(s[pos_var].as_int());
    const std::size_t j = sigma.successor(i);
    const State ext_next = extend(sigma.at(j), j);
    ext_space.for_each_completion(ext_next, spec.hidden, [&](const State& t) {
      if (spec.step_ok(ext, s, t)) emit(t);
      return false;
    });
  };

  StateGraph product(ext, inits, succ, /*add_self_loops=*/false,
                     /*max_states=*/1 << 22);
  if (product.initial().empty()) return false;

  FairnessCompiler compiler(product);
  FairCycleQuery query;
  compiler.add_constraints(spec.fairness, query);
  return find_fair_cycle(product, query).has_value();
}

bool Oracle::eval(const Formula& f, const LassoBehavior& sigma, std::size_t pos) {
  OPENTLA_OBS_COUNT(OracleEvaluations);
  pos = sigma.canonical(pos);
  const FormulaNode& n = f.node();
  const std::pair<const FormulaNode*, std::size_t> key{&n, pos};
  if (auto it = memo_.find(key); it != memo_.end()) return it->second;

  // The range of canonical positions occurring at or after `pos`.
  const std::size_t range_lo = std::min(pos, sigma.loop_start());
  auto positions_from = [&](std::size_t p, const std::function<bool(std::size_t)>& pred,
                            bool want) {
    for (std::size_t q = range_lo; q < sigma.length(); ++q) {
      if (q < p && q < sigma.loop_start()) continue;
      if (pred(q) == want) return want;
    }
    return !want;
  };
  auto loop_positions = [&](const std::function<bool(std::size_t)>& pred, bool want) {
    for (std::size_t q = sigma.loop_start(); q < sigma.length(); ++q) {
      if (pred(q) == want) return want;
    }
    return !want;
  };

  bool result = false;
  switch (n.kind) {
    case FormulaKind::Pred:
      result = eval_pred(n.expr, *vars_, sigma.at(pos));
      break;

    case FormulaKind::ActionBox: {
      // [][A]_v from pos: no later step changes v without being an A step.
      result = !positions_from(
          pos,
          [&](std::size_t q) {
            const State& s = sigma.at(q);
            const State& t = sigma.at(sigma.successor(q));
            return changes_tuple(n.sub, s, t) && !eval_action(n.expr, *vars_, s, t);
          },
          /*want=*/true);
      break;
    }

    case FormulaKind::Always:
      result = !positions_from(
          pos, [&](std::size_t q) { return !eval(n.kids[0], sigma, q); }, true);
      break;

    case FormulaKind::Eventually:
      result = positions_from(
          pos, [&](std::size_t q) { return eval(n.kids[0], sigma, q); }, true);
      break;

    case FormulaKind::WeakFair:
    case FormulaKind::StrongFair: {
      // Suffix-invariant: determined by the loop alone.
      const Expr act = action_changing(n.expr, n.sub);
      const bool step_in_loop = loop_positions(
          [&](std::size_t q) {
            return eval_action(act, *vars_, sigma.at(q), sigma.at(sigma.successor(q)));
          },
          true);
      const bool enabled_somewhere = loop_positions(
          [&](std::size_t q) { return eval_enabled(act, *vars_, sigma.at(q)); }, true);
      if (n.kind == FormulaKind::WeakFair) {
        const bool disabled_somewhere = loop_positions(
            [&](std::size_t q) { return !eval_enabled(act, *vars_, sigma.at(q)); }, true);
        result = step_in_loop || disabled_somewhere;
      } else {
        result = step_in_loop || !enabled_somewhere;
      }
      break;
    }

    case FormulaKind::Not:
      result = !eval(n.kids[0], sigma, pos);
      break;
    case FormulaKind::And:
      result = std::all_of(n.kids.begin(), n.kids.end(),
                           [&](const Formula& k) { return eval(k, sigma, pos); });
      break;
    case FormulaKind::Or:
      result = std::any_of(n.kids.begin(), n.kids.end(),
                           [&](const Formula& k) { return eval(k, sigma, pos); });
      break;
    case FormulaKind::Implies:
      result = !eval(n.kids[0], sigma, pos) || eval(n.kids[1], sigma, pos);
      break;
    case FormulaKind::Equiv:
      result = eval(n.kids[0], sigma, pos) == eval(n.kids[1], sigma, pos);
      break;

    case FormulaKind::Spec:
      result = eval_spec(*n.spec_e, sigma, pos);
      break;

    case FormulaKind::Closure: {
      // Alive forever iff alive through every index up to the wrap.
      MachineTrace trace = run_machines({n.spec_e.get()}, sigma, pos);
      result = true;
      for (std::size_t k = 0; k < trace.horizon() && result; ++k) {
        if (!trace.at(0, k)) result = false;
      }
      break;
    }

    case FormulaKind::WhilePlus: {
      // For all n >= 0: (E through n states) => (M through n+1 states);
      // and E => M over the whole behavior.
      MachineTrace trace = run_machines({n.spec_e.get(), n.spec_m.get()}, sigma, pos);
      result = true;
      for (std::size_t cnt = 0; cnt <= trace.horizon() && result; ++cnt) {
        const bool e_ok = (cnt == 0) || trace.at(0, cnt - 1);
        const bool m_ok = trace.at(1, cnt);
        if (e_ok && !m_ok) result = false;
      }
      if (result && eval_spec(*n.spec_e, sigma, pos)) {
        result = eval_spec(*n.spec_m, sigma, pos);
      }
      break;
    }

    case FormulaKind::ArrowWhile: {
      // For all n >= 1: (E through n states) => (M through n states);
      // and E => M over the whole behavior.
      MachineTrace trace = run_machines({n.spec_e.get(), n.spec_m.get()}, sigma, pos);
      result = true;
      for (std::size_t cnt = 1; cnt <= trace.horizon() && result; ++cnt) {
        if (trace.at(0, cnt - 1) && !trace.at(1, cnt - 1)) result = false;
      }
      if (result && eval_spec(*n.spec_e, sigma, pos)) {
        result = eval_spec(*n.spec_m, sigma, pos);
      }
      break;
    }

    case FormulaKind::Plus: {
      // sigma |= F or: F through n states and v constant from (0-indexed)
      // position pos+n on.
      if (eval_spec(*n.spec_e, sigma, pos)) {
        result = true;
        break;
      }
      MachineTrace trace = run_machines({n.spec_e.get()}, sigma, pos);
      // Covers one full period beyond both the recorded trace and the
      // behavior's canonical positions, so every distinct (alive,
      // v-constant-from) combination is inspected.
      const std::size_t bound = sigma.length() + trace.horizon() + 1;
      result = false;
      for (std::size_t cnt = 0; cnt <= bound && !result; ++cnt) {
        const bool f_ok = (cnt == 0) || trace.at(0, cnt - 1);
        if (f_ok && tuple_constant_from(n.sub, sigma, pos + cnt)) result = true;
      }
      break;
    }

    case FormulaKind::Orthogonal: {
      // No n: E and M both hold through n states and both fail through n+1.
      MachineTrace trace = run_machines({n.spec_e.get(), n.spec_m.get()}, sigma, pos);
      result = true;
      for (std::size_t cnt = 0; cnt <= trace.horizon() && result; ++cnt) {
        const bool e_n = (cnt == 0) || trace.at(0, cnt - 1);
        const bool m_n = (cnt == 0) || trace.at(1, cnt - 1);
        const bool e_n1 = trace.at(0, cnt);
        const bool m_n1 = trace.at(1, cnt);
        if (e_n && m_n && !e_n1 && !m_n1) result = false;
      }
      break;
    }
  }
  memo_.emplace(key, result);
  OPENTLA_OBS_MEM_TALLY_ADD(
      mem_, sizeof(std::pair<const std::pair<const FormulaNode*, std::size_t>, bool>) + 48);
  return result;
}

}  // namespace opentla

#include "opentla/graph/successor.hpp"

#include <atomic>
#include <unordered_set>

#include "opentla/expr/eval.hpp"
#include "opentla/expr/substitute.hpp"
#include "opentla/obs/obs.hpp"

namespace opentla {

namespace {
std::atomic<bool> g_naive_enumeration{false};
}  // namespace

void ActionSuccessors::set_naive_enumeration_for_test(bool naive) {
  g_naive_enumeration.store(naive, std::memory_order_relaxed);
}

ActionSuccessors::ActionSuccessors(const VarTable& vars, Expr action, std::vector<VarId> pinned)
    : vars_(&vars), action_(std::move(action)), space_(vars) {
  std::vector<bool> is_pinned(vars.size(), false);
  for (VarId v : pinned) is_pinned[v] = true;
  // Distribute nested disjunctions (see the header); past the cap, split
  // only the source disjuncts.
  std::optional<std::vector<ActionDisjunct>> distributed = decompose_distributed(action_);
  for (ActionDisjunct& d : distributed ? std::move(*distributed) : decompose_action(action_)) {
    CompiledDisjunct cd;
    cd.parts = std::move(d);
    std::vector<bool> assigned(vars.size(), false);
    for (const auto& [v, rhs] : cd.parts.assignments) assigned[v] = true;
    std::vector<bool> in_residual(vars.size(), false);
    for (VarId v : cd.parts.unassigned_primed) in_residual[v] = true;
    for (VarId v = 0; v < vars.size(); ++v) {
      if (assigned[v]) continue;
      if (is_pinned[v] && !in_residual[v]) continue;  // keeps current value
      cd.free_vars.push_back(v);
    }
    cd.full_sched = schedule_residual(cd.parts.residual_needs, cd.free_vars);
    cd.existential_sched =
        schedule_residual(cd.parts.residual_needs, cd.parts.unassigned_primed);
    disjuncts_.push_back(std::move(cd));
  }
}

void ActionSuccessors::set_label(const std::string& label) {
  label_ = obs::intern_label(label);
  has_label_ = true;
}

bool ActionSuccessors::run(const State& s, bool existential_only,
                           const std::function<bool(const State&)>& fn) const {
  // `fn` returns true to stop early; the enumeration stops immediately —
  // no odometer keeps spinning past the caller's exit. Duplicates across
  // disjuncts are filtered here so callers see each successor once.
  //
  // Determinism contract: for a fixed `s`, successors are visited in a
  // fixed order — disjuncts in decompose_distributed order, completions in the
  // order of the precompiled ResidualSchedule (the pruned search visits
  // exactly the surviving leaves of the flat odometer over
  // reversed(sched.order), in that odometer's order — pruning only skips,
  // it never reorders). The unordered `seen` set only suppresses repeats.
  // The parallel engine's canonical renumbering (opentla/par/explore.hpp)
  // depends on this. `run` is also safe to call concurrently on distinct
  // states: it mutates no member data.
  std::unordered_set<State, StateHash> seen;
  // Per-run attribution for coverage: `fired` counts emissions;
  // `guard_enabled` records that some disjunct's guards held at s, even
  // when the residual or a domain check then rejected every completion.
  // Both are local, so the concurrency guarantee above is unaffected.
  std::uint64_t fired = 0;
  bool guard_enabled = false;
  const auto note_run = [&] {
    if (!has_label_) return;
    if (fired > 0) OPENTLA_OBS_COUNT_LABELED(ActionFired, label_, fired);
    if (guard_enabled) OPENTLA_OBS_COUNT_LABELED(ActionEnabled, label_, 1);
  };
  // One scratch context for the whole run: guards, right-hand sides, and
  // residual checks all evaluate through it.
  EvalContext ctx;
  ctx.vars = vars_;
  ctx.current = &s;
  for (const CompiledDisjunct& cd : disjuncts_) {
    ctx.next = nullptr;

    bool feasible = true;
    for (const Expr& g : cd.parts.guards) {
      if (!eval_bool(g, ctx)) {
        feasible = false;
        break;
      }
    }
    if (!feasible) continue;
    guard_enabled = true;

    State base = s;
    for (const auto& [v, rhs] : cd.parts.assignments) {
      Value val = eval(rhs, ctx);
      if (!vars_->domain(v).contains(val)) {
        feasible = false;  // successor falls outside the declared space
        break;
      }
      base[v] = std::move(val);
    }
    if (!feasible) continue;

    const ResidualSchedule& sched =
        existential_only ? cd.existential_sched : cd.full_sched;
    const auto emit = [&](const State& t) {
      if (!seen.insert(t).second) return false;
      OPENTLA_OBS_COUNT(SuccessorsEnumerated);
      ++fired;
      return fn(t);
    };
    bool stopped;
    if (g_naive_enumeration.load(std::memory_order_relaxed)) {
      // Historical enumerate-and-test path, kept behind the test hook: a
      // flat odometer over reversed(sched.order) (the same total order the
      // pruned search walks) with the full residual tested at every leaf.
      const std::vector<VarId> naive(sched.order.rbegin(), sched.order.rend());
      stopped = space_.for_each_completion(base, naive, [&](const State& t) {
        ctx.next = &t;
        for (const Expr& r : cd.parts.residual) {
          if (!eval_bool(r, ctx)) return false;
        }
        return emit(t);
      });
    } else {
      stopped = space_.for_each_completion_pruned(
          base, sched,
          [&](std::size_t i, const State& t) {
            ctx.next = &t;
            return eval_bool(cd.parts.residual[i], ctx);
          },
          emit);
    }
    if (stopped) {
      note_run();
      return true;
    }
  }
  note_run();
  return false;
}

bool ActionSuccessors::guards_enabled(const State& s) const {
  EvalContext ctx;
  ctx.vars = vars_;
  ctx.current = &s;
  for (const CompiledDisjunct& cd : disjuncts_) {
    bool ok = true;
    for (const Expr& g : cd.parts.guards) {
      if (!eval_bool(g, ctx)) {
        ok = false;
        break;
      }
    }
    if (ok) return true;
  }
  return false;
}

void ActionSuccessors::for_each_successor(
    const State& s, const std::function<void(const State&)>& fn) const {
  run(s, /*existential_only=*/false, [&](const State& t) {
    fn(t);
    return false;
  });
}

std::vector<State> ActionSuccessors::successors(const State& s) const {
  std::vector<State> out;
  for_each_successor(s, [&](const State& t) { out.push_back(t); });
  return out;
}

bool ActionSuccessors::enabled(const State& s) const {
  OPENTLA_OBS_COUNT(EnabledEvaluations);
  return run(s, /*existential_only=*/true, [](const State&) { return true; });
}

std::vector<State> ActionSuccessors::states_satisfying(const VarTable& vars,
                                                       const Expr& predicate,
                                                       std::vector<VarId> pinned) {
  ActionSuccessors gen(vars, prime(predicate), std::move(pinned));
  StateSpace space(vars);
  return gen.successors(space.first_state());
}

}  // namespace opentla

#include "opentla/graph/successor.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <unordered_set>

#include "opentla/analysis/footprint.hpp"
#include "opentla/expr/eval.hpp"
#include "opentla/expr/substitute.hpp"
#include "opentla/obs/obs.hpp"

namespace opentla {

namespace {

std::atomic<bool> g_naive_enumeration{false};

/// True when every two of `disjuncts` are exclusive: some variable changes
/// in every step of one (analysis::must_change) and keeps its current
/// value in every step of the other (`held[i][v]`). Stops at the first
/// pair that is not.
bool pairwise_exclusive(const std::vector<const ActionDisjunct*>& disjuncts,
                        const std::vector<std::vector<char>>& held, const VarTable& vars) {
  const std::size_t n = disjuncts.size();
  // must_change of each disjunct, computed once when a pair first needs it.
  std::vector<std::optional<std::vector<VarId>>> must(n);
  const auto changes_held = [&](std::size_t i, std::size_t j) {
    if (!must[i]) must[i] = analysis::must_change(*disjuncts[i], vars);
    return std::any_of(must[i]->begin(), must[i]->end(), [&](VarId v) { return held[j][v] != 0; });
  };
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (!changes_held(i, j) && !changes_held(j, i)) return false;
    }
  }
  return true;
}

}  // namespace

void ActionSuccessors::set_naive_enumeration_for_test(bool naive) {
  g_naive_enumeration.store(naive, std::memory_order_relaxed);
}

ActionSuccessors::ActionSuccessors(const VarTable& vars, Expr action, std::vector<VarId> pinned)
    : vars_(&vars), action_(std::move(action)), space_(vars) {
  std::vector<bool> is_pinned(vars.size(), false);
  for (VarId v : pinned) is_pinned[v] = true;
  // held[i][v]: every step of disjunct i keeps v at its current value.
  std::vector<std::vector<char>> held;
  // Distribute nested disjunctions (see the header); past the cap, split
  // only the source disjuncts.
  std::optional<std::vector<ActionDisjunct>> distributed = decompose_distributed(action_);
  for (ActionDisjunct& d : distributed ? std::move(*distributed) : decompose_action(action_)) {
    CompiledDisjunct cd;
    cd.parts = std::move(d);
    std::vector<char> holds(vars.size(), 0);
    std::vector<bool> assigned(vars.size(), false);
    for (const auto& [v, rhs] : cd.parts.assignments) {
      assigned[v] = true;
      cd.is_frame.push_back(is_identity_frame(v, rhs));
      if (cd.is_frame.back()) holds[v] = 1;
    }
    std::vector<bool> in_residual(vars.size(), false);
    for (VarId v : cd.parts.unassigned_primed) in_residual[v] = true;
    for (VarId v = 0; v < vars.size(); ++v) {
      if (assigned[v]) continue;
      if (is_pinned[v] && !in_residual[v]) {
        holds[v] = 1;  // keeps current value
        continue;
      }
      cd.free_vars.push_back(v);
    }
    cd.full_sched = schedule_residual(cd.parts.residual_needs, cd.free_vars);
    cd.existential_sched =
        schedule_residual(cd.parts.residual_needs, cd.parts.unassigned_primed);
    disjuncts_.push_back(std::move(cd));
    held.push_back(std::move(holds));
  }
  if (disjuncts_.size() > 1) {
    std::vector<const ActionDisjunct*> parts;
    for (const CompiledDisjunct& cd : disjuncts_) parts.push_back(&cd.parts);
    keeps_duplicate_set_ = !pairwise_exclusive(parts, held, vars);
  }
}

void ActionSuccessors::set_label(const std::string& label) {
  label_ = obs::intern_label(label);
  has_label_ = true;
}

bool ActionSuccessors::run(const State& s, bool existential_only,
                           const std::function<bool(const State&)>& fn) const {
  // `fn` returns true to stop early; the enumeration stops immediately —
  // no odometer keeps spinning past the caller's exit. A successor can
  // only repeat across disjuncts that are not exclusive (see the header);
  // when the constructor found such a pair, a full run drops the repeats
  // through `seen`. An existential run stops at its first successor and
  // never needs it.
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
  const bool dedup = keeps_duplicate_set_ && !existential_only;
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
    for (std::size_t a = 0; a < cd.parts.assignments.size(); ++a) {
      const auto& [v, rhs] = cd.parts.assignments[a];
      if (cd.is_frame[a]) {
        // v' = v: base already holds s[v]; only its domain is tested.
        feasible = vars_->domain(v).contains(s[v]);
        if (!feasible) break;
        continue;
      }
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
      if (dedup && !seen.insert(t).second) return false;
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

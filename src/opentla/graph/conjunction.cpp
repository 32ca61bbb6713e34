#include "opentla/graph/conjunction.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <set>
#include <stdexcept>

#include "opentla/analysis/footprint.hpp"
#include "opentla/obs/obs.hpp"
#include "opentla/tla/spec.hpp"

namespace opentla {

namespace {

bool meets(const std::vector<VarId>& vs, const std::set<VarId>& targets) {
  return std::any_of(vs.begin(), vs.end(), [&](VarId v) { return targets.contains(v); });
}

}  // namespace

ConjunctionSuccessors::ConjunctionSuccessors(const VarTable& vars, std::vector<StepMover> movers,
                                             std::vector<VarId> pinned,
                                             const std::vector<Disjoint>& disjoints)
    : vars_(&vars), movers_(std::move(movers)), pinned_(std::move(pinned)) {
  const std::size_t n = movers_.size();
  std::sort(pinned_.begin(), pinned_.end());
  pinned_.erase(std::unique(pinned_.begin(), pinned_.end()), pinned_.end());
  for (VarId v = 0; v < vars.size(); ++v) {
    if (!std::binary_search(pinned_.begin(), pinned_.end(), v)) unpinned_.push_back(v);
  }
  if (n == 1) {
    add({0}, {movers_[0].next}, Check::kNone);
    return;
  }

  std::set<VarId> held_vars;
  std::vector<std::size_t> held;
  for (std::size_t k = 0; k < n; ++k) {
    if (!movers_[k].held) continue;
    held.push_back(k);
    held_vars.insert(movers_[k].sub.begin(), movers_[k].sub.end());
  }
  if (held.size() > kMaxHeld) {
    throw std::runtime_error("ConjunctionSuccessors: more than " + std::to_string(kMaxHeld) +
                             " held movers");
  }

  // All Disjoints' tuples in one list, each tagged with its Disjoint.
  std::vector<std::vector<VarId>> tuples;
  std::vector<std::size_t> owner;
  for (std::size_t d = 0; d < disjoints.size(); ++d) {
    for (const std::vector<VarId>& t : disjoints[d]) {
      tuples.push_back(t);
      owner.push_back(d);
    }
  }

  // Per mover, from its action's disjuncts: the tuples every step must
  // change (`must_tuples`), the tuples holding its whole subscript
  // (`sub_tuples`: every step that changes the subscript changes them),
  // and whether every step must change a held variable.
  std::vector<std::set<std::size_t>> must_tuples(n), sub_tuples(n);
  std::vector<char> changes_held(n, 0);
  for (std::size_t k = 0; k < n; ++k) {
    const std::vector<std::vector<VarId>> must =
        analysis::must_change_by_disjunct(movers_[k].next, vars);
    auto every_step_meets = [&](const std::set<VarId>& targets) {
      return std::all_of(must.begin(), must.end(),
                         [&](const std::vector<VarId>& m) { return meets(m, targets); });
    };
    changes_held[k] = every_step_meets(held_vars);
    for (std::size_t a = 0; a < tuples.size(); ++a) {
      const std::set<VarId> tuple(tuples[a].begin(), tuples[a].end());
      if (every_step_meets(tuple)) must_tuples[k].insert(a);
      const std::vector<VarId>& sub = movers_[k].sub;
      if (!sub.empty() &&
          std::all_of(sub.begin(), sub.end(), [&](VarId v) { return tuple.contains(v); })) {
        sub_tuples[k].insert(a);
      }
    }
  }

  // Under each Disjoint, a generator whose every step changes one of its
  // tuples holds the others; false when its steps must change two tuples
  // of one Disjoint.
  auto disjoint_frame = [&](const std::set<std::size_t>& forced, std::set<VarId>& frame) {
    for (std::size_t d = 0; d < disjoints.size(); ++d) {
      std::size_t changed = 0;
      for (std::size_t a : forced) changed += owner[a] == d;
      if (changed > 1) return false;
      if (changed == 0) continue;
      for (std::size_t a = 0; a < tuples.size(); ++a) {
        if (owner[a] == d && !forced.contains(a)) frame.insert(tuples[a].begin(), tuples[a].end());
      }
    }
    return true;
  };

  // The steps of a set S of held movers: each changes its subscript, the
  // other held subscripts stay.
  auto add_set = [&](const std::vector<std::size_t>& set) {
    std::set<std::size_t> forced;
    std::vector<Expr> conjuncts;
    for (std::size_t k : set) {
      forced.insert(must_tuples[k].begin(), must_tuples[k].end());
      forced.insert(sub_tuples[k].begin(), sub_tuples[k].end());
      conjuncts.push_back(movers_[k].next);
    }
    std::set<VarId> frame;
    if (!disjoint_frame(forced, frame)) return;
    for (std::size_t j : held) {
      if (std::find(set.begin(), set.end(), j) != set.end()) continue;
      frame.insert(movers_[j].sub.begin(), movers_[j].sub.end());
    }
    if (!frame.empty()) conjuncts.push_back(ex::unchanged({frame.begin(), frame.end()}));
    add(set, std::move(conjuncts), Check::kEachSubscript);
  };

  // The steps of mover m that change no held subscript; none unless m can
  // write an unpinned variable outside them.
  auto add_steps_outside_held = [&](std::size_t m) {
    if (changes_held[m]) return;
    const std::vector<VarId> writes = analysis::action_footprint(movers_[m].next, unpinned_).writes;
    const bool moves_elsewhere = std::any_of(writes.begin(), writes.end(), [&](VarId v) {
      return !held_vars.contains(v) && std::binary_search(unpinned_.begin(), unpinned_.end(), v);
    });
    if (!moves_elsewhere) return;
    std::set<VarId> frame = held_vars;
    if (!disjoint_frame(must_tuples[m], frame)) return;
    std::vector<Expr> conjuncts = {movers_[m].next};
    if (!frame.empty()) conjuncts.push_back(ex::unchanged({frame.begin(), frame.end()}));
    add({m}, std::move(conjuncts), Check::kUnpinned);
  };

  // Order: each mover's own steps in mover order, then the sets of two or
  // more held movers (by bitmask over `held`), then the held movers' other
  // steps.
  for (std::size_t k = 0; k < n; ++k) {
    if (movers_[k].held) {
      add_set({k});
    } else {
      add_steps_outside_held(k);
    }
  }
  for (std::uint32_t mask = 1; mask < (1u << held.size()); ++mask) {
    if (std::popcount(mask) < 2) continue;
    std::vector<std::size_t> set;
    for (std::size_t i = 0; i < held.size(); ++i) {
      if (mask & (1u << i)) set.push_back(held[i]);
    }
    add_set(set);
  }
  for (std::size_t k : held) add_steps_outside_held(k);
}

void ConjunctionSuccessors::add(std::vector<std::size_t> movers, std::vector<Expr> conjuncts,
                                Check check) {
  std::set<VarId> own_hidden;
  std::string label;
  bool sourced = false;
  for (std::size_t k : movers) {
    sourced = sourced || !movers_[k].hidden.empty();
    own_hidden.insert(movers_[k].hidden.begin(), movers_[k].hidden.end());
    if (movers_[k].label.empty()) continue;
    if (!label.empty()) label += "+";
    label += movers_[k].label;
  }
  std::vector<VarId> pinned;
  for (VarId v : pinned_) {
    if (!own_hidden.contains(v)) pinned.push_back(v);
  }
  Expr action = conjuncts.size() == 1 ? conjuncts[0] : ex::land(std::move(conjuncts));
  Generator g{ActionSuccessors(*vars_, std::move(action), std::move(pinned)), std::move(movers),
              check, sourced};
  if (!label.empty()) g.action.set_label(label);
  generators_.push_back(std::move(g));
}

void ConjunctionSuccessors::for_each_successor(
    const State& s, const SourceFn& sources,
    const KeepFn& keep) const {
  // Each mover's sources are fetched once per state, on first use.
  std::vector<std::optional<Value>> fetched(movers_.size());
  for (const Generator& g : generators_) {
    // The one place a candidate is kept or dropped: by the generator's
    // check, then by the caller.
    const auto accept = [&](const State& t) {
      OPENTLA_OBS_COUNT(CandidatesGenerated);
      switch (g.check) {
        case Check::kNone:
          break;
        case Check::kEachSubscript:
          for (std::size_t k : g.movers) {
            if (!changes_tuple(movers_[k].sub, s, t)) return;
          }
          break;
        case Check::kUnpinned:
          if (!changes_tuple(unpinned_, s, t)) return;
          break;
      }
      if (keep(t)) OPENTLA_OBS_COUNT(CandidatesKept);
    };
    // One captured reference keeps the std::function below allocation-free.
    const std::function<void(const State&)> on_successor = [&accept](const State& t) {
      accept(t);
    };
    if (!sources || !g.sourced) {
      g.action.for_each_successor(s, on_successor);
      continue;
    }
    State source = s;
    auto run = [&](auto& self, std::size_t i) -> void {
      while (i < g.movers.size() && movers_[g.movers[i]].hidden.empty()) ++i;
      if (i == g.movers.size()) {
        g.action.for_each_successor(source, on_successor);
        return;
      }
      const StepMover& m = movers_[g.movers[i]];
      std::optional<Value>& tuples = fetched[g.movers[i]];
      if (!tuples) tuples = sources(g.movers[i]);
      for (const Value& h : tuples->as_tuple()) {
        const Value::Tuple& hv = h.as_tuple();
        for (std::size_t x = 0; x < m.hidden.size(); ++x) source[m.hidden[x]] = hv[x];
        self(self, i + 1);
      }
    };
    run(run, 0);
  }
}

}  // namespace opentla

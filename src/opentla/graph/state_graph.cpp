#include "opentla/graph/state_graph.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <thread>

#include "opentla/obs/memory.hpp"
#include "opentla/obs/obs.hpp"
#include "opentla/par/explore.hpp"

namespace opentla {

StateGraph::StateGraph(const VarTable& vars, const std::vector<State>& init_states,
                       const SuccessorFn& succ, bool add_self_loops, std::size_t max_states)
    : vars_(&vars), store_(&vars) {
  explore_serial(init_states, succ, add_self_loops, max_states, nullptr);
}

StateGraph::StateGraph(const VarTable& vars, const std::vector<State>& init_states,
                       const SuccessorFn& succ, const ExploreOptions& opts)
    : vars_(&vars), store_(&vars) {
  unsigned threads = opts.threads;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  if (threads <= 1) {
    store_.set_spill_threshold(opts.spill_at);
    explore_serial(init_states, succ, opts.add_self_loops, opts.max_states, opts.budget);
    return;
  }
  par::ExploreResult r = par::explore(vars, init_states, succ, opts, threads);
  store_ = std::move(r.store);
  init_ = std::move(r.init);
  adjacency_ = std::move(r.adjacency);
  num_edges_ = r.num_edges;
  stop_reason_ = r.stop_reason;
  account_adjacency();
}

void StateGraph::account_adjacency() {
  if (!obs::enabled()) return;
  std::uint64_t bytes = adjacency_.capacity() * sizeof(std::vector<StateId>);
  for (const std::vector<StateId>& out : adjacency_) {
    bytes += out.capacity() * sizeof(StateId);
  }
  adj_mem_.set(bytes);
}

void StateGraph::explore_serial(const std::vector<State>& init_states, const SuccessorFn& succ,
                                bool add_self_loops, std::size_t max_states,
                                run::RunBudget* budget) {
  OPENTLA_OBS_SPAN("StateGraph.explore");
  // The BFS frontier charges the frontier memory domain as it grows.
  std::deque<StateId, obs::CountingAllocator<StateId>> frontier{
      obs::CountingAllocator<StateId>(obs::MemDomain::Frontier)};
  for (const State& s : init_states) {
    // Capacity check BEFORE interning: a state past the cap is never added,
    // so the graph holds exactly min(reachable, max_states) states — the
    // same count the parallel engine produces at the same bound.
    if (store_.size() >= max_states) {
      const StateId known = store_.find(s);
      if (known == StateStore::kNone) {
        stop_reason_ = run::StopReason::kStateBudget;
        continue;
      }
      init_.push_back(known);
      continue;
    }
    const std::size_t before = store_.size();
    const StateId id = store_.intern(s);
    if (store_.size() > before) {
      OPENTLA_OBS_COUNT(StatesGenerated);
      frontier.push_back(id);
      adjacency_.emplace_back();
    }
    init_.push_back(id);
  }
  std::sort(init_.begin(), init_.end());
  init_.erase(std::unique(init_.begin(), init_.end()), init_.end());

  while (!frontier.empty()) {
    // A capped run stops at the first expansion that overflowed rather than
    // draining the frontier: the budget asked for "no more than N states",
    // not "N states plus every edge among them".
    if (stop_reason_ != run::StopReason::kCompleted) break;
    if (budget != nullptr && budget->should_stop()) {
      stop_reason_ = budget->reason();
      break;
    }
    OPENTLA_OBS_LEVEL_SET(FrontierSize, frontier.size());
    const StateId id = frontier.front();
    frontier.pop_front();
    // Copy: store_ may reallocate while successors are interned.
    const State s = store_.get(id);
    // Collected locally: the callback may grow adjacency_ (invalidating
    // references into it) while new successors are interned.
    std::vector<StateId> out;
    succ(s, [&](const State& t) {
      if (store_.size() >= max_states) {
        const StateId known = store_.find(t);
        if (known == StateStore::kNone) {
          stop_reason_ = run::StopReason::kStateBudget;
          return;
        }
        out.push_back(known);
        return;
      }
      const std::size_t before = store_.size();
      const StateId tid = store_.intern(t);
      if (store_.size() > before) {
        OPENTLA_OBS_COUNT(StatesGenerated);
        frontier.push_back(tid);
        adjacency_.emplace_back();
      }
      out.push_back(tid);
    });
    if (add_self_loops) out.push_back(id);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    // Fanout = final deduped out-degree (incl. any stuttering self-loop);
    // the parallel engine observes the same quantity after renumbering,
    // so the histogram is engine-independent for a given spec.
    OPENTLA_OBS_HIST(SuccessorFanout, out.size());
    num_edges_ += out.size();
    adjacency_[id] = std::move(out);
  }
  OPENTLA_OBS_LEVEL_SET(FrontierSize, 0);
  OPENTLA_OBS_GAUGE_MAX(PeakGraphStates, store_.size());
  account_adjacency();
  if (stop_reason_ != run::StopReason::kCompleted && budget != nullptr) {
    // Latch the breach into the budget so obs counters and the caller's
    // stopped()/reason() see state-budget stops the same way they see
    // deadline ones.
    budget->request_stop(stop_reason_);
  }
}

std::vector<StateId> StateGraph::shortest_path_to(
    const std::function<bool(StateId)>& goal) const {
  for (StateId s : init_) {
    if (goal(s)) return {s};
  }
  // Multi-source BFS.
  std::vector<StateId> parent(num_states(), StateStore::kNone);
  std::deque<StateId> queue;
  std::vector<bool> visited(num_states(), false);
  for (StateId s : init_) {
    visited[s] = true;
    queue.push_back(s);
  }
  while (!queue.empty()) {
    const StateId u = queue.front();
    queue.pop_front();
    for (StateId v : adjacency_[u]) {
      if (visited[v]) continue;
      visited[v] = true;
      parent[v] = u;
      if (goal(v)) {
        std::vector<StateId> path = {v};
        for (StateId p = u; p != StateStore::kNone; p = parent[p]) path.push_back(p);
        std::reverse(path.begin(), path.end());
        return path;
      }
      queue.push_back(v);
    }
  }
  return {};
}

std::vector<StateId> StateGraph::path(StateId from, const std::function<bool(StateId)>& goal,
                                      const std::function<bool(StateId)>& filter) const {
  if (goal(from)) return {from};
  std::vector<StateId> parent(num_states(), StateStore::kNone);
  std::vector<bool> visited(num_states(), false);
  std::deque<StateId> queue = {from};
  visited[from] = true;
  while (!queue.empty()) {
    const StateId u = queue.front();
    queue.pop_front();
    for (StateId v : adjacency_[u]) {
      if (visited[v]) continue;
      if (filter && !filter(v)) continue;
      visited[v] = true;
      parent[v] = u;
      if (goal(v)) {
        std::vector<StateId> path = {v};
        for (StateId p = u; p != StateStore::kNone && p != from; p = parent[p]) {
          path.push_back(p);
        }
        path.push_back(from);
        std::reverse(path.begin(), path.end());
        return path;
      }
      queue.push_back(v);
    }
  }
  return {};
}

std::vector<char> StateGraph::can_reach(const std::vector<char>& target,
                                        const std::function<bool(StateId)>& filter) const {
  auto allowed = [&](StateId s) { return !filter || filter(s); };
  std::vector<std::vector<StateId>> reverse(num_states());
  for (StateId u = 0; u < num_states(); ++u) {
    if (!allowed(u)) continue;
    for (StateId v : adjacency_[u]) {
      if (allowed(v)) reverse[v].push_back(u);
    }
  }
  std::vector<char> marked = target;
  std::deque<StateId> frontier;
  for (StateId s = 0; s < num_states(); ++s) {
    if (marked[s]) frontier.push_back(s);
  }
  while (!frontier.empty()) {
    const StateId v = frontier.front();
    frontier.pop_front();
    for (StateId u : reverse[v]) {
      if (!marked[u]) {
        marked[u] = 1;
        frontier.push_back(u);
      }
    }
  }
  return marked;
}

}  // namespace opentla

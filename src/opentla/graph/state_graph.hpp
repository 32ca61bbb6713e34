// opentla/graph/state_graph.hpp
//
// Explicit reachable-state graphs. A StateGraph is built from a set of
// initial states and a successor provider by breadth-first exploration.
// Because every canonical-form specification's [][N]_v admits stuttering,
// each node carries an implicit self-loop; they are materialized so that
// liveness analysis sees the stuttering behaviors.
//
// Exploration can run on one thread (the classic BFS) or on a worker pool
// (opentla/par). The parallel engine renumbers its result canonically, so
// the graph — state ids, adjacency order, initial() order — is bit-identical
// to the serial BFS regardless of thread count; downstream SCC, fair-cycle,
// and trace code never observes which engine ran.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "opentla/run/budget.hpp"
#include "opentla/state/state.hpp"
#include "opentla/state/var_table.hpp"

namespace opentla {

/// How to explore a state space. Threaded through the checking stack
/// (compose, composition_theorem, tlacheck --threads).
struct ExploreOptions {
  /// Worker threads: 1 = the serial BFS (default), 0 = hardware
  /// concurrency, N > 1 = a pool of N workers with work stealing. With
  /// threads != 1 the successor function must be safe to call concurrently
  /// on distinct states (the engine's ActionSuccessors-based providers are:
  /// they evaluate immutable expression trees with per-call scratch state).
  unsigned threads = 1;
  /// Cap on reached states. Hitting the cap is not an error: exploration
  /// stops gracefully with StopReason::kStateBudget and the graph holds
  /// exactly min(reachable, max_states) states — the same count for the
  /// serial and parallel engines at the same bound.
  std::size_t max_states = 2'000'000;
  /// Materialize the stuttering self-loop on every node.
  bool add_self_loops = true;
  /// Resident-byte budget for the state store's arenas (tlacheck
  /// --spill-at): past it, sealed arena segments spill to mmap-backed
  /// temp files. 0 (the default) never spills. The graph is bit-identical
  /// spill on or off.
  std::uint64_t spill_at = 0;
  /// Optional run budget (deadline / RSS ceiling / signal stop). Polled
  /// during exploration; a breach halts expansion and surfaces as
  /// StateGraph::stop_reason(). Not owned.
  run::RunBudget* budget = nullptr;
};

class StateGraph {
 public:
  using SuccessorFn = std::function<void(const State&, const std::function<void(const State&)>&)>;

  /// `vars` is not owned and must outlive the graph: the store encodes
  /// every state over its domains (StateStore), and state() decodes them.
  ///
  /// Explores from `init_states` using `succ`; `add_self_loops` materializes
  /// the stuttering step on every node. Reaching `max_states` stops
  /// exploration gracefully (see stop_reason()).
  StateGraph(const VarTable& vars, const std::vector<State>& init_states, const SuccessorFn& succ,
             bool add_self_loops = true, std::size_t max_states = 2'000'000);

  /// Same exploration, configured by `opts` (serial or parallel). The
  /// resulting graph is identical for every opts.threads value.
  StateGraph(const VarTable& vars, const std::vector<State>& init_states, const SuccessorFn& succ,
             const ExploreOptions& opts);

  const VarTable& vars() const { return *vars_; }
  const StateStore& store() const { return store_; }
  std::size_t num_states() const { return adjacency_.size(); }
  std::size_t num_edges() const { return num_edges_; }
  const std::vector<StateId>& initial() const { return init_; }
  const std::vector<StateId>& successors(StateId s) const { return adjacency_[s]; }
  /// The interned state, decoded from the store's arena record (by value:
  /// the canonical bytes may live in a spilled segment — see StateStore::get).
  State state(StateId s) const { return store_.get(s); }

  /// Why exploration ended. kCompleted means the full reachable space is
  /// here; anything else marks a graceful partial graph (state budget,
  /// deadline, memory ceiling, or an interrupt signal).
  run::StopReason stop_reason() const { return stop_reason_; }

  /// Shortest path (as a state-id sequence, inclusive of both ends) from an
  /// initial state to any state satisfying `goal`; empty if unreachable.
  std::vector<StateId> shortest_path_to(const std::function<bool(StateId)>& goal) const;

  /// Shortest path from `from` to any state satisfying `goal`, restricted to
  /// states allowed by `filter` (null = all). Empty if unreachable.
  std::vector<StateId> path(StateId from, const std::function<bool(StateId)>& goal,
                            const std::function<bool(StateId)>& filter) const;

  /// Backward reachability: marks (1) every state from which some state
  /// with target[s] != 0 is reachable along edges between states allowed
  /// by `filter` (null = all). Targets are marked themselves.
  std::vector<char> can_reach(const std::vector<char>& target,
                              const std::function<bool(StateId)>& filter) const;

 private:
  void explore_serial(const std::vector<State>& init_states, const SuccessorFn& succ,
                      bool add_self_loops, std::size_t max_states, run::RunBudget* budget);
  /// Re-measure the adjacency structure into the state-graph memory
  /// domain (one O(states) capacity walk after construction).
  void account_adjacency();

  const VarTable* vars_;
  StateStore store_;
  std::vector<StateId> init_;
  std::vector<std::vector<StateId>> adjacency_;
  std::size_t num_edges_ = 0;
  run::StopReason stop_reason_ = run::StopReason::kCompleted;
  obs::MemTally adj_mem_{obs::MemDomain::StateGraph};
};

}  // namespace opentla

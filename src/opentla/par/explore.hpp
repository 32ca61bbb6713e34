// opentla/par/explore.hpp
//
// Work-sharing parallel state-space exploration with a deterministic
// result. The design is two-phase:
//
//   Phase 1 (parallel): a pool of workers drains per-thread frontier
//   deques (owners pop LIFO, idle workers steal FIFO from peers), interns
//   discovered states in a ShardedStateSet (mutex-striped by fingerprint),
//   and records, per expanded state, the raw successor emission list in
//   the order the successor provider produced it. Ids in this phase are
//   provisional: dense, but scheduling-dependent.
//
//   Phase 2 (serial, cheap): a replay BFS over the recorded emission lists
//   renumbers every state exactly as the serial engine's interleaved
//   intern-during-BFS would have — initial states first in seeding order,
//   then successors in parent-BFS x emission order. Because each state's
//   emission list depends only on the state (the successor providers
//   enumerate odometer-style over ordered structures; see
//   graph/successor.cpp), the renumbered graph is bit-identical to the
//   serial BFS for every thread count.
//
// Phase 1 dominates the cost (successor generation is the hot path);
// phase 2 is a linear pointer-chase over already-computed lists.

#pragma once

#include <cstddef>

#include "opentla/graph/state_graph.hpp"

namespace opentla::par {

/// The canonical exploration result a StateGraph adopts: states interned
/// in serial-BFS order, adjacency sorted per node, initial ids sorted.
/// stop_reason != kCompleted marks a graceful partial result (the state
/// budget, a deadline, the RSS ceiling, or a stop signal cut it short).
struct ExploreResult {
  StateStore store;
  std::vector<StateId> init;
  std::vector<std::vector<StateId>> adjacency;
  std::size_t num_edges = 0;
  run::StopReason stop_reason = run::StopReason::kCompleted;
};

/// Explores with `threads` workers (must be >= 1; callers resolve 0 to
/// hardware concurrency first). Reaching opts.max_states, or a breach of
/// opts.budget, stops gracefully with the partial graph and a stop reason;
/// the state count at a state-budget stop equals the serial engine's at
/// the same bound. Rethrows the first exception a successor provider
/// raises on any worker. Both stores encode over `vars` (the StateGraph's
/// table), which must outlive the result.
ExploreResult explore(const VarTable& vars, const std::vector<State>& init_states,
                      const StateGraph::SuccessorFn& succ, const ExploreOptions& opts,
                      unsigned threads);

}  // namespace opentla::par

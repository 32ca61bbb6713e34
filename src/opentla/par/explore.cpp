#include "opentla/par/explore.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "opentla/obs/memory.hpp"
#include "opentla/obs/obs.hpp"
#include "opentla/state/sharded_store.hpp"

namespace opentla::par {

namespace {

struct WorkItem {
  StateId pid = 0;  // provisional id
  State state;
};

/// One expanded state: its provisional id, the state itself, and the raw
/// successor emission list (provisional ids, in emission order, duplicates
/// kept). Phase 2 replays these; nothing else from phase 1 survives.
struct Expanded {
  StateId pid = 0;
  State state;
  std::vector<StateId> raw;
};

struct WorkQueue {
  std::mutex mu;
  // The deque's block allocations charge the frontier memory domain.
  std::deque<WorkItem, obs::CountingAllocator<WorkItem>> q{
      obs::CountingAllocator<WorkItem>(obs::MemDomain::Frontier)};
};

}  // namespace

ExploreResult explore(const VarTable& vars, const std::vector<State>& init_states,
                      const StateGraph::SuccessorFn& succ, const ExploreOptions& opts,
                      unsigned threads) {
  OPENTLA_OBS_SPAN("par.explore");
  OPENTLA_OBS_GAUGE_MAX(PeakParWorkers, threads);

  ShardedStateSet seen(/*shard_count=*/0, opts.spill_at, &vars);
  std::vector<WorkQueue> queues(threads);
  std::vector<std::vector<Expanded>> records(threads);

  // Discovered-but-not-yet-expanded items. Children are counted before
  // their parent's expansion is uncounted, so 0 really means drained.
  std::atomic<std::int64_t> outstanding{0};
  std::atomic<bool> abort{false};
  std::atomic<bool> overflow{false};
  std::mutex error_mu;
  std::exception_ptr error;

  // Seed: intern the initial states in caller order (the serial engine
  // interns them in this order too, which phase 2's replay reproduces).
  // Provisional ids are globally monotonic, so "pid >= max_states" is
  // exactly the set of states past the budget: they are interned (dedup
  // still works) but never enqueued, and phase 2 drops them.
  std::vector<StateId> init_pids;
  init_pids.reserve(init_states.size());
  {
    std::size_t next_queue = 0;
    for (const State& s : init_states) {
      const ShardedStateSet::InternResult r = seen.intern(s);
      init_pids.push_back(r.id);
      if (r.inserted) {
        if (static_cast<std::size_t>(r.id) >= opts.max_states) {
          overflow.store(true, std::memory_order_relaxed);
          abort.store(true, std::memory_order_relaxed);
          continue;
        }
        OPENTLA_OBS_COUNT(StatesGenerated);
        outstanding.fetch_add(1, std::memory_order_relaxed);
        queues[next_queue % threads].q.push_back({r.id, s});
        ++next_queue;
      }
    }
  }

  run::RunBudget* const budget = opts.budget;
  auto worker = [&](unsigned me) {
    OPENTLA_OBS_SPAN("par.worker");
    std::vector<Expanded>& mine = records[me];
    // One ParWorkerExpansions sample per worker at exit: the histogram's
    // spread is the load-balance picture for this run.
    std::uint64_t expanded_here = 0;
    struct ExitSample {
      const std::uint64_t& n;
      ~ExitSample() { OPENTLA_OBS_HIST(ParWorkerExpansions, n); }
    } exit_sample{expanded_here};
    for (;;) {
      if (abort.load(std::memory_order_relaxed)) return;
      if (budget != nullptr && budget->should_stop()) {
        abort.store(true, std::memory_order_relaxed);
        return;
      }

      // Own deque first (LIFO keeps the working set warm), then steal
      // FIFO from peers, oldest work first.
      WorkItem item;
      bool have = false;
      {
        std::lock_guard<std::mutex> lock(queues[me].mu);
        if (!queues[me].q.empty()) {
          item = std::move(queues[me].q.back());
          queues[me].q.pop_back();
          have = true;
        }
      }
      if (!have) {
        for (unsigned k = 1; k < threads && !have; ++k) {
          WorkQueue& victim = queues[(me + k) % threads];
          // Stage the haul locally so the victim's mutex is released before
          // our own is taken: holding two queue mutexes at once would let
          // mutual stealers form a lock cycle (deadlock).
          std::vector<WorkItem> haul;
          {
            std::lock_guard<std::mutex> lock(victim.mu);
            if (victim.q.empty()) continue;
            // Take half the victim's backlog: the first item is expanded
            // now, the rest seeds our own deque.
            const std::size_t grab = std::max<std::size_t>(1, victim.q.size() / 2);
            item = std::move(victim.q.front());
            victim.q.pop_front();
            have = true;
            OPENTLA_OBS_COUNT(ParSteals);
            haul.reserve(grab - 1);
            for (std::size_t i = 1; i < grab; ++i) {
              haul.push_back(std::move(victim.q.front()));
              victim.q.pop_front();
            }
          }
          if (!haul.empty()) {
            std::lock_guard<std::mutex> own(queues[me].mu);
            for (WorkItem& w : haul) queues[me].q.push_back(std::move(w));
          }
        }
      }
      if (!have) {
        if (outstanding.load(std::memory_order_acquire) == 0) return;
        std::this_thread::yield();
        continue;
      }

      Expanded rec;
      rec.pid = item.pid;
      rec.state = std::move(item.state);
      try {
        succ(rec.state, [&](const State& t) {
          const ShardedStateSet::InternResult r = seen.intern(t);
          if (r.inserted) {
            if (static_cast<std::size_t>(r.id) >= opts.max_states) {
              overflow.store(true, std::memory_order_relaxed);
              abort.store(true, std::memory_order_relaxed);
            } else {
              OPENTLA_OBS_COUNT(StatesGenerated);
              outstanding.fetch_add(1, std::memory_order_relaxed);
              std::lock_guard<std::mutex> lock(queues[me].mu);
              queues[me].q.push_back({r.id, t});
            }
          }
          rec.raw.push_back(r.id);
        });
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!error) error = std::current_exception();
        }
        abort.store(true, std::memory_order_relaxed);
        return;
      }
      OPENTLA_OBS_COUNT(ParStatesExpanded);
      ++expanded_here;
      mine.push_back(std::move(rec));
      const std::int64_t left = outstanding.fetch_sub(1, std::memory_order_release) - 1;
      (void)left;  // only read by the level below, which OPENTLA_OBS=OFF strips
      OPENTLA_OBS_LEVEL_SET(FrontierSize, left > 0 ? left : 0);
    }
  };

  {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker, t);
    for (std::thread& t : pool) t.join();
  }
  OPENTLA_OBS_COUNT_N(ParShardContention, seen.contended_locks());

  if (error) std::rethrow_exception(error);

  // Resolve why phase 1 ended. The budget's latch wins (its first-breach
  // reason is authoritative); a local overflow without a budget object
  // still reports the state budget.
  run::StopReason stop = run::StopReason::kCompleted;
  if (overflow.load(std::memory_order_relaxed)) stop = run::StopReason::kStateBudget;
  if (budget != nullptr) {
    if (stop != run::StopReason::kCompleted) budget->request_stop(stop);
    if (budget->stopped()) stop = budget->reason();
  }

  // --- Phase 2: canonical renumbering (serial). ---
  OPENTLA_OBS_SPAN("par.renumber");
  const std::size_t n = seen.size();
  std::vector<State> state_of(n);
  std::vector<std::vector<StateId>> raw_of(n);
  std::vector<char> expanded(n, 0);
  for (std::vector<Expanded>& recs : records) {
    for (Expanded& r : recs) {
      state_of[r.pid] = std::move(r.state);
      raw_of[r.pid] = std::move(r.raw);
      expanded[r.pid] = 1;
    }
  }
  // On a graceful stop, discovered-but-unexpanded states are still parked
  // in the work deques; their State lives nowhere else, so drain them.
  // (On a completed run the deques are empty and this is a no-op.)
  for (WorkQueue& wq : queues) {
    for (WorkItem& w : wq.q) state_of[w.pid] = std::move(w.state);
  }

  // Replay the serial BFS's id assignment: initial states in seeding
  // order, then each state's emissions in order, FIFO. `order[c]` is the
  // provisional id that receives canonical id c. States past the budget
  // (pid >= max_states) are skipped everywhere: the canonical graph holds
  // exactly the states the serial engine would keep at the same bound.
  std::vector<StateId> canon(n, StateStore::kNone);
  std::vector<StateId> order;
  order.reserve(n);
  for (StateId pid : init_pids) {
    if (static_cast<std::size_t>(pid) >= opts.max_states) continue;
    if (canon[pid] == StateStore::kNone) {
      canon[pid] = static_cast<StateId>(order.size());
      order.push_back(pid);
    }
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (StateId t : raw_of[order[head]]) {
      if (static_cast<std::size_t>(t) >= opts.max_states) continue;
      if (canon[t] == StateStore::kNone) {
        canon[t] = static_cast<StateId>(order.size());
        order.push_back(t);
      }
    }
  }

  ExploreResult res;
  res.store = StateStore(&vars);
  res.store.set_spill_threshold(opts.spill_at);
  res.stop_reason = stop;
  const std::size_t kept = order.size();
  res.adjacency.resize(kept);
  for (std::size_t c = 0; c < kept; ++c) res.store.intern(state_of[order[c]]);
  for (std::size_t c = 0; c < kept; ++c) {
    const StateId pid = order[c];
    std::vector<StateId> out;
    out.reserve(raw_of[pid].size() + 1);
    for (StateId t : raw_of[pid]) {
      // canon is kNone for budget-dropped targets; their edges go with them.
      if (canon[t] != StateStore::kNone) out.push_back(canon[t]);
    }
    // The stuttering self-loop marks an *expanded* node; an unexpanded
    // frontier survivor of a partial run keeps an empty adjacency, exactly
    // like the serial engine's unexpanded frontier. On completed runs every
    // kept node is expanded, so this is the historical behavior.
    if (opts.add_self_loops && expanded[pid]) out.push_back(static_cast<StateId>(c));
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    if (expanded[pid]) {
      // Same fanout definition as the serial engine (final deduped
      // out-degree), so the histogram matches it bit for bit.
      OPENTLA_OBS_HIST(SuccessorFanout, out.size());
    }
    res.num_edges += out.size();
    res.adjacency[c] = std::move(out);
  }
  res.init.reserve(init_pids.size());
  for (StateId pid : init_pids) {
    if (static_cast<std::size_t>(pid) >= opts.max_states) continue;
    res.init.push_back(canon[pid]);
  }
  std::sort(res.init.begin(), res.init.end());
  res.init.erase(std::unique(res.init.begin(), res.init.end()), res.init.end());

  OPENTLA_OBS_GAUGE_MAX(PeakGraphStates, kept);
  return res;
}

}  // namespace opentla::par

// opentla/run/budget.hpp
//
// Run budgets and graceful stop. A RunBudget carries the resource limits
// of one checking run — wall-clock deadline, RSS ceiling, and (via the
// explorers' ExploreOptions::max_states) a state budget — plus an
// optional SIGINT/SIGTERM watch. Exploration loops poll should_stop()
// once per expansion; the first breach latches a machine-readable
// StopReason, every engine then unwinds cooperatively, and the caller
// gets a *partial result* (a prefix of the reachable graph, a
// partially-checked obligation) instead of a throw or a silent
// truncation: a breached run comes back with whatever it learned, tagged
// with why it stopped, and never reports "holds" on a partial graph.
//
// Thread-safety: should_stop()/request_stop()/stopped()/reason() may be
// called concurrently from any number of worker threads. The stop latch
// is first-wins: the reason reported is the first breach observed.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace opentla::run {

/// Why a run ended. kCompleted means the run was never cut short; every
/// other value names the budget that was breached first.
enum class StopReason : int {
  kCompleted = 0,
  kStateBudget,  // ExploreOptions::max_states reached
  kDeadline,     // wall-clock deadline passed
  kMemory,       // resident set size crossed the ceiling
  kInterrupted,  // SIGINT/SIGTERM requested a graceful stop
};

/// Stable snake_case identifier ("completed", "state_budget", "deadline",
/// "memory", "interrupted") used by verdicts and the CLI's partial-result
/// output (`stop_reason: "..."`).
const char* to_string(StopReason r);

/// tlacheck exit code for a budget-stopped run with no definite verdict.
constexpr int kBudgetExitCode = 3;

/// Limits a RunBudget enforces; zero/false means "no limit".
struct BudgetLimits {
  std::uint64_t deadline_ms = 0;     // wall clock from construction
  std::uint64_t max_rss_bytes = 0;   // resident-set ceiling
  bool watch_signals = false;        // SIGINT/SIGTERM => kInterrupted
};

/// True while a watched stop signal is pending for this process. Reset
/// whenever a signal-watching RunBudget is constructed.
bool signal_stop_requested();

/// One run's budget. Construct before exploring, hand a pointer to the
/// explorers via ExploreOptions::budget (and CompositionOptions::budget),
/// and inspect stopped()/reason() afterwards. Not copyable; outlives
/// every exploration that polls it.
class RunBudget {
 public:
  /// An unlimited budget: should_stop() stays false until request_stop().
  RunBudget() = default;
  /// Arms `limits`: the deadline counts from now; when watch_signals is
  /// set, SIGINT/SIGTERM handlers are installed (and restored by the
  /// destructor) that request a graceful kInterrupted stop.
  explicit RunBudget(const BudgetLimits& limits);
  ~RunBudget();
  RunBudget(const RunBudget&) = delete;
  RunBudget& operator=(const RunBudget&) = delete;

  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

  /// The first breach observed, or kCompleted while the run is healthy.
  StopReason reason() const {
    return static_cast<StopReason>(reason_.load(std::memory_order_acquire));
  }

  /// Latch a stop. The first caller wins; later calls (including from
  /// other threads) keep the original reason. Counts Counter::BudgetStops.
  void request_stop(StopReason r);

  /// Fast cooperative poll for exploration inner loops: one relaxed load
  /// on the happy path, a deadline/signal check per call, and an RSS read
  /// every kRssPollStride calls (procfs reads are microseconds, not
  /// nanoseconds). Returns true once the run should unwind.
  bool should_stop();

 private:
  BudgetLimits limits_;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_;
  bool watching_ = false;

  std::atomic<bool> stopped_{false};
  std::atomic<int> reason_{static_cast<int>(StopReason::kCompleted)};
  std::atomic<std::uint64_t> tick_{0};

  static constexpr std::uint64_t kRssPollStride = 256;
};

}  // namespace opentla::run

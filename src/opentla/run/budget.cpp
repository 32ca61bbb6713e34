#include "opentla/run/budget.hpp"

#include <csignal>

#include "opentla/obs/memory.hpp"
#include "opentla/obs/obs.hpp"

namespace opentla::run {

const char* to_string(StopReason r) {
  switch (r) {
    case StopReason::kCompleted: return "completed";
    case StopReason::kStateBudget: return "state_budget";
    case StopReason::kDeadline: return "deadline";
    case StopReason::kMemory: return "memory";
    case StopReason::kInterrupted: return "interrupted";
  }
  return "unknown";
}

namespace {

// Set from the signal handler; read with a relaxed load from should_stop.
// sig_atomic_t writes are the only async-signal-safe operation needed.
volatile std::sig_atomic_t g_signal_requested = 0;

extern "C" void opentla_stop_signal_handler(int) { g_signal_requested = 1; }

struct SavedAction {
  int signo;
  struct sigaction old;
};
SavedAction g_saved[2];
int g_saved_count = 0;

void install_stop_handlers() {
  g_signal_requested = 0;
  g_saved_count = 0;
  for (int signo : {SIGINT, SIGTERM}) {
    struct sigaction sa = {};
    sa.sa_handler = opentla_stop_signal_handler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    SavedAction saved;
    saved.signo = signo;
    if (sigaction(signo, &sa, &saved.old) == 0) g_saved[g_saved_count++] = saved;
  }
}

void restore_stop_handlers() {
  for (int i = 0; i < g_saved_count; ++i) {
    sigaction(g_saved[i].signo, &g_saved[i].old, nullptr);
  }
  g_saved_count = 0;
}

}  // namespace

bool signal_stop_requested() { return g_signal_requested != 0; }

RunBudget::RunBudget(const BudgetLimits& limits) : limits_(limits) {
  if (limits_.deadline_ms > 0) {
    has_deadline_ = true;
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::milliseconds(limits_.deadline_ms);
  }
  if (limits_.watch_signals) {
    install_stop_handlers();
    watching_ = true;
  }
}

RunBudget::~RunBudget() {
  if (watching_) restore_stop_handlers();
}

void RunBudget::request_stop(StopReason r) {
  if (r == StopReason::kCompleted) return;
  // The reason slot is the latch (first CAS wins), and stopped_ is only
  // raised afterwards: a thread that observes stopped() == true is
  // guaranteed to read the winning reason, never a half-published one.
  int expected = static_cast<int>(StopReason::kCompleted);
  if (!reason_.compare_exchange_strong(expected, static_cast<int>(r),
                                       std::memory_order_acq_rel)) {
    return;  // a breach was already latched; first reason wins
  }
  stopped_.store(true, std::memory_order_release);
  OPENTLA_OBS_COUNT(BudgetStops);
}

bool RunBudget::should_stop() {
  if (stopped_.load(std::memory_order_relaxed)) return true;
  if (watching_ && g_signal_requested != 0) {
    request_stop(StopReason::kInterrupted);
    return true;
  }
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
    request_stop(StopReason::kDeadline);
    return true;
  }
  if (limits_.max_rss_bytes > 0) {
    const std::uint64_t tick = tick_.fetch_add(1, std::memory_order_relaxed);
    if (tick % kRssPollStride == 0) {
      const std::uint64_t rss = obs::read_rss_bytes();
      if (rss > limits_.max_rss_bytes) {
        request_stop(StopReason::kMemory);
        return true;
      }
    }
  }
  return false;
}

}  // namespace opentla::run

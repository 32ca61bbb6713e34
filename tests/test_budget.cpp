// Run budgets and graceful stop: the RunBudget latch (first breach wins,
// signals included), the unified max_states semantics (serial and
// parallel stop at the same state count with StopReason::kStateBudget),
// and deadline/RSS breaches producing partial graphs and inconclusive
// checks instead of throws.

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <string>
#include <thread>

#include "opentla/check/invariant.hpp"
#include "opentla/check/refinement.hpp"
#include "opentla/graph/state_graph.hpp"
#include "opentla/graph/successor.hpp"
#include "opentla/queue/channel.hpp"
#include "opentla/run/budget.hpp"

namespace opentla {
namespace {

// --- The RunBudget latch. ---

TEST(RunBudget, UnlimitedBudgetNeverStops) {
  run::RunBudget b;
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(b.should_stop());
  EXPECT_FALSE(b.stopped());
  EXPECT_EQ(b.reason(), run::StopReason::kCompleted);
}

TEST(RunBudget, FirstReasonWins) {
  run::RunBudget b;
  b.request_stop(run::StopReason::kDeadline);
  b.request_stop(run::StopReason::kMemory);
  b.request_stop(run::StopReason::kStateBudget);
  EXPECT_TRUE(b.stopped());
  EXPECT_EQ(b.reason(), run::StopReason::kDeadline);
}

TEST(RunBudget, RequestStopWithCompletedIsANoOp) {
  run::RunBudget b;
  b.request_stop(run::StopReason::kCompleted);
  EXPECT_FALSE(b.stopped());
}

TEST(RunBudget, DeadlineLatches) {
  run::BudgetLimits limits;
  limits.deadline_ms = 1;
  run::RunBudget b(limits);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(b.should_stop());
  EXPECT_TRUE(b.stopped());
  EXPECT_EQ(b.reason(), run::StopReason::kDeadline);
}

TEST(RunBudget, RssCeilingLatches) {
  run::BudgetLimits limits;
  limits.max_rss_bytes = 1;  // any live process exceeds one byte
  run::RunBudget b(limits);
  // The RSS poll runs every kRssPollStride ticks starting at tick 0.
  EXPECT_TRUE(b.should_stop());
  EXPECT_EQ(b.reason(), run::StopReason::kMemory);
}

TEST(RunBudget, WatchedSignalRequestsGracefulStop) {
  run::BudgetLimits limits;
  limits.watch_signals = true;
  {
    run::RunBudget b(limits);
    EXPECT_FALSE(b.should_stop());
    ASSERT_EQ(std::raise(SIGTERM), 0);  // caught by the budget's handler
    EXPECT_TRUE(run::signal_stop_requested());
    EXPECT_TRUE(b.should_stop());
    EXPECT_EQ(b.reason(), run::StopReason::kInterrupted);
  }
  // The destructor restored the previous disposition; a second watching
  // budget resets the pending flag.
  run::RunBudget b2(limits);
  EXPECT_FALSE(run::signal_stop_requested());
  EXPECT_FALSE(b2.should_stop());
}

// --- Graceful stop in the explorers. ---

struct ChannelSpace {
  VarTable vars;
  Channel ch;
  ActionSuccessors any;
  State init;

  explicit ChannelSpace(int num_values)
      : ch(declare_channel(vars, "c", range_domain(0, num_values - 1))),
        any(vars, ex::lor(send_any_action(ch), ack_action(ch))),
        init(ActionSuccessors::states_satisfying(vars, channel_init(ch), {ch.val})[0]) {}

  StateGraph::SuccessorFn succ() const {
    return [this](const State& s, const std::function<void(const State&)>& emit) {
      any.for_each_successor(s, emit);
    };
  }
};

TEST(BudgetExplore, StateBudgetStopsSerialAndParallelAtTheSameCount) {
  ChannelSpace space(64);  // 129 reachable states
  for (unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExploreOptions opts;
    opts.threads = threads;
    opts.max_states = 25;
    StateGraph g(space.vars, {space.init}, space.succ(), opts);
    EXPECT_EQ(g.num_states(), 25u);
    EXPECT_EQ(g.stop_reason(), run::StopReason::kStateBudget);
  }
}

TEST(BudgetExplore, GenerousStateBudgetDoesNotTrigger) {
  ChannelSpace space(8);
  ExploreOptions opts;
  opts.max_states = 1000;
  StateGraph g(space.vars, {space.init}, space.succ(), opts);
  EXPECT_EQ(g.stop_reason(), run::StopReason::kCompleted);
  EXPECT_GT(g.num_states(), 2u);
}

TEST(BudgetExplore, DeadlineYieldsPartialGraphSerialAndParallel) {
  ChannelSpace space(64);
  for (unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    run::BudgetLimits limits;
    limits.deadline_ms = 1;
    run::RunBudget budget(limits);
    ExploreOptions opts;
    opts.threads = threads;
    opts.budget = &budget;
    // A successor function slow enough that the 1ms deadline fires
    // mid-exploration on any machine.
    auto slow = [&space](const State& s, const std::function<void(const State&)>& emit) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      space.any.for_each_successor(s, emit);
    };
    StateGraph g(space.vars, {space.init}, slow, opts);
    EXPECT_EQ(g.stop_reason(), run::StopReason::kDeadline);
    EXPECT_TRUE(budget.stopped());
    EXPECT_LT(g.num_states(), 129u);  // a strict prefix of the space
  }
}

TEST(BudgetExplore, AlreadyBreachedRssStopsImmediately) {
  ChannelSpace space(16);
  run::BudgetLimits limits;
  limits.max_rss_bytes = 1;
  run::RunBudget budget(limits);
  ExploreOptions opts;
  opts.budget = &budget;
  StateGraph g(space.vars, {space.init}, space.succ(), opts);
  EXPECT_EQ(g.stop_reason(), run::StopReason::kMemory);
}

TEST(BudgetExplore, InvariantResultCarriesStopReason) {
  ChannelSpace space(64);
  ExploreOptions opts;
  opts.max_states = 10;
  StateGraph g(space.vars, {space.init}, space.succ(), opts);
  InvariantResult r = check_invariant(g, ex::boolean(true));
  EXPECT_TRUE(r.holds);
  EXPECT_EQ(r.stop_reason, run::StopReason::kStateBudget);
  EXPECT_EQ(r.states_checked, 10u);
}

TEST(BudgetExplore, StoppedBudgetLeavesRefinementInconclusive) {
  // The channel refines itself under the identity mapping. With the budget
  // already stopped, check_refinement says neither "holds" nor "fails".
  ChannelSpace space(4);
  const StateGraph g(space.vars, {space.init}, space.succ(), ExploreOptions{});
  CanonicalSpec high;
  high.name = "Channel";
  high.init = channel_init(space.ch);
  high.next = space.any.action();
  high.sub = space.ch.all();
  const RefinementMapping mapping = mapping_by_name(space.vars, space.vars, {});
  ASSERT_TRUE(check_refinement(g, {}, high, mapping).holds);

  run::RunBudget budget;
  budget.request_stop(run::StopReason::kInterrupted);
  const RefinementResult r = check_refinement(g, {}, high, mapping, &budget);
  EXPECT_FALSE(r.holds);
  EXPECT_EQ(r.stop_reason, run::StopReason::kInterrupted);
  EXPECT_TRUE(r.failed_part.empty());
  EXPECT_TRUE(r.counterexample_prefix.empty());
}

}  // namespace
}  // namespace opentla

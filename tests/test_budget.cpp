// Run budgets, graceful stop, and the obs v3 surfaces built on them: the
// RunBudget latch (first breach wins, signals included), the unified
// max_states semantics (serial and parallel stop at the same state count
// with StopReason::kStateBudget), deadline/RSS breaches producing partial
// graphs instead of throws, the flight-recorder ring (wraparound, torn-slot
// safety, JSONL dump), the embedded metrics server (/metrics and /progress
// over real sockets), and the run ledger's crash-safe JSONL append.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "opentla/check/invariant.hpp"
#include "opentla/check/refinement.hpp"
#include "opentla/graph/state_graph.hpp"
#include "opentla/graph/successor.hpp"
#include "opentla/obs/flight_recorder.hpp"
#include "opentla/obs/metrics_server.hpp"
#include "opentla/obs/obs.hpp"
#include "opentla/obs/progress.hpp"
#include "opentla/queue/channel.hpp"
#include "opentla/run/budget.hpp"
#include "opentla/run/ledger.hpp"

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

// --- The flight recorder. ---

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(FlightRecorder, RingWrapsAndDumpKeepsNewest) {
  const std::string path = ::testing::TempDir() + "flight_wrap.jsonl";
  obs::flight_recorder_enable(8, path);
  for (int i = 0; i < 100; ++i) {
    obs::flight_recorder_record(obs::FlightKind::kNote, "note", (std::uint64_t)i);
  }
  EXPECT_EQ(obs::flight_recorder_recorded(), 100u);
  const std::size_t written = obs::flight_recorder_dump("test");
  obs::flight_recorder_disable();
  EXPECT_LE(written, 8u);
  EXPECT_GT(written, 0u);
  std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), written + 1);  // events + the trailing dump line
  // Oldest-first, newest retained: the last event line is sequence 99.
  EXPECT_NE(lines[written - 1].find("\"v0\":99"), std::string::npos) << lines[written - 1];
  EXPECT_NE(lines.back().find("\"type\":\"dump\""), std::string::npos);
  EXPECT_NE(lines.back().find("\"reason\":\"test\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorder, LabelsAreSanitizedForJson) {
  const std::string path = ::testing::TempDir() + "flight_sanitize.jsonl";
  obs::flight_recorder_enable(8, path);
  obs::flight_recorder_record(obs::FlightKind::kNote, "he said \"hi\"\\\n");
  obs::flight_recorder_dump("test");
  obs::flight_recorder_disable();
  std::vector<std::string> lines = read_lines(path);
  ASSERT_GE(lines.size(), 1u);
  // Quote, backslash and newline were replaced at record time.
  EXPECT_NE(lines[0].find("he said _hi__"), std::string::npos) << lines[0];
  std::remove(path.c_str());
}

TEST(FlightRecorder, DisabledRecorderIsANoOp) {
  obs::flight_recorder_disable();
  EXPECT_FALSE(obs::flight_recorder_enabled());
  obs::flight_recorder_record(obs::FlightKind::kNote, "ignored");
  EXPECT_EQ(obs::flight_recorder_dump("test"), 0u);
}

TEST(FlightRecorder, BudgetBreachRecordsAnEvent) {
  const std::string path = ::testing::TempDir() + "flight_budget.jsonl";
  obs::flight_recorder_enable(16, path);
  run::RunBudget b;
  b.request_stop(run::StopReason::kDeadline);
  obs::flight_recorder_dump("test");
  obs::flight_recorder_disable();
  std::vector<std::string> lines = read_lines(path);
  bool saw_budget = false;
  for (const std::string& l : lines) {
    if (l.find("\"type\":\"budget\"") != std::string::npos &&
        l.find("\"label\":\"deadline\"") != std::string::npos) {
      saw_budget = true;
    }
  }
  EXPECT_TRUE(saw_budget);
  std::remove(path.c_str());
}

// --- The metrics server, over real sockets. ---

std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return {};
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)!::write(fd, req.data(), req.size());
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof buf)) > 0) resp.append(buf, (std::size_t)n);
  ::close(fd);
  return resp;
}

TEST(MetricsServer, ServesOpenMetricsAndProgress) {
  obs::MetricsServer server(0);  // ephemeral port
  ASSERT_TRUE(server.ok());
  ASSERT_GT(server.port(), 0);

  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(metrics.find("application/openmetrics-text"), std::string::npos);
  EXPECT_NE(metrics.find("# EOF"), std::string::npos);

  // Before any sample: a valid JSON body flagged have_sample=false.
  const std::string before = http_get(server.port(), "/progress");
  EXPECT_NE(before.find("\"have_sample\": false"), std::string::npos);

  obs::ProgressSample s;
  s.seq = 7;
  s.states = 1234;
  s.frontier = 56;
  s.rss_bytes = 1 << 20;
  server.set_progress(s);
  const std::string after = http_get(server.port(), "/progress");
  EXPECT_NE(after.find("\"have_sample\": true"), std::string::npos);
  EXPECT_NE(after.find("\"states\": 1234"), std::string::npos);
  EXPECT_NE(after.find("\"peak_rss_bytes\""), std::string::npos);

  const std::string missing = http_get(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);
  server.stop();
}

TEST(MetricsServer, StopIsIdempotent) {
  obs::MetricsServer server(0);
  ASSERT_TRUE(server.ok());
  server.stop();
  server.stop();
}

// --- The run ledger. ---

TEST(RunLedger, AppendsParseableLinesAndChainsHashes) {
  const std::string path = ::testing::TempDir() + "ledger_test.jsonl";
  std::remove(path.c_str());

  const std::uint64_t h1 = run::fnv1a64("abc", 3);
  const std::uint64_t h2 = run::fnv1a64("abc", 3);
  EXPECT_EQ(h1, h2);
  EXPECT_NE(run::fnv1a64("abd", 3), h1);
  // Chaining folds files: hash("ab" then "c") == hash("abc").
  EXPECT_EQ(run::fnv1a64("c", 1, run::fnv1a64("ab", 2)), h1);

  run::RunRecord rec;
  rec.command = "check";
  rec.spec_hash = "00ff00ff00ff00ff";
  rec.options = "check spec.tla --invariant \"x < 2\"";
  rec.stop_reason = "deadline";
  rec.exit_code = 3;
  rec.states = 42;
  rec.budget_stops = 1;
  rec.elapsed_us = 1234;
  rec.peak_rss_bytes = 1 << 20;
  ASSERT_TRUE(run::append_run_ledger(path, rec));
  ASSERT_TRUE(run::append_run_ledger(path, rec));

  std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& l : lines) {
    EXPECT_NE(l.find("\"schema\": \"opentla-run-ledger-v2\""), std::string::npos) << l;
    EXPECT_NE(l.find("\"stop_reason\": \"deadline\""), std::string::npos) << l;
    EXPECT_NE(l.find("\"exit_code\": 3"), std::string::npos) << l;
    // The embedded quotes in options were escaped.
    EXPECT_NE(l.find("\\\"x < 2\\\""), std::string::npos) << l;
  }
  std::remove(path.c_str());
}

TEST(RunLedger, UnwritablePathReturnsFalse) {
  run::RunRecord rec;
  EXPECT_FALSE(run::append_run_ledger("/nonexistent_dir_zzz/ledger.jsonl", rec));
}

}  // namespace
}  // namespace opentla

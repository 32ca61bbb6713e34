// The parallel exploration engine's contract (opentla/par): for every
// thread count, the StateGraph it produces is bit-identical to the serial
// BFS — same state-id assignment, same adjacency lists in the same order,
// same initial() list. Checked node-by-node and edge-by-edge on the
// paper's spaces (the Figure 2 handshake channel, the Figure 4 queue, the
// Figure 9 double-queue composition), plus the overflow and empty-input
// edge cases the serial engine defines. verify_composition's reports, whose
// products also run on the engine, are pinned the same way.

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "opentla/ag/composition_theorem.hpp"
#include "opentla/compose/compose.hpp"
#include "opentla/graph/state_graph.hpp"
#include "opentla/graph/successor.hpp"
#include "opentla/state/arena.hpp"
#include "opentla/queue/channel.hpp"
#include "opentla/queue/double_queue.hpp"
#include "opentla/obs/obs.hpp"
#include "opentla/obs/profiler.hpp"
#include "opentla/obs/progress.hpp"
#include "opentla/queue/queue_spec.hpp"

namespace opentla {
namespace {

ExploreOptions with_threads(unsigned threads, std::size_t max_states = 2'000'000) {
  ExploreOptions opts;
  opts.threads = threads;
  opts.max_states = max_states;
  return opts;
}

/// Shrinks arena segments for one test, so that a small space spans many
/// segments and a 1-byte spill budget really spills.
struct SegmentGuard {
  explicit SegmentGuard(std::size_t b) { set_arena_segment_bytes_for_test(b); }
  ~SegmentGuard() { set_arena_segment_bytes_for_test(0); }
};

/// Bit-identical graph equality: ids, adjacency order, initial order, and
/// the interned state behind every id.
void expect_identical(const StateGraph& serial, const StateGraph& parallel,
                      unsigned threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  ASSERT_EQ(serial.num_states(), parallel.num_states());
  EXPECT_EQ(serial.num_edges(), parallel.num_edges());
  EXPECT_EQ(serial.initial(), parallel.initial());
  for (StateId s = 0; s < serial.num_states(); ++s) {
    EXPECT_EQ(serial.state(s), parallel.state(s)) << "state id " << s;
    EXPECT_EQ(serial.successors(s), parallel.successors(s)) << "adjacency of " << s;
  }
}

// --- Figure 2: the handshake channel automaton. ---

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

TEST(ParallelExplore, HandshakeChannelIdenticalAcrossThreadCounts) {
  ChannelSpace space(32);
  StateGraph serial(space.vars, {space.init}, space.succ(), with_threads(1));
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    StateGraph parallel(space.vars, {space.init}, space.succ(), with_threads(threads));
    expect_identical(serial, parallel, threads);
  }
}

// --- Figure 4: the N-element queue complete system. ---

TEST(ParallelExplore, QueueCompleteSystemIdenticalAcrossThreadCounts) {
  QueueSystem sys = make_queue_system(/*capacity=*/2, /*num_values=*/2);
  std::vector<CompositePart> parts = {{sys.specs.complete.unhidden(), true}};
  StateGraph serial = build_composite_graph(sys.vars, parts, {}, {}, with_threads(1));
  for (unsigned threads : {2u, 4u, 8u}) {
    StateGraph parallel =
        build_composite_graph(sys.vars, parts, {}, {}, with_threads(threads));
    expect_identical(serial, parallel, threads);
  }
}

// --- Figure 9: the double-queue composition (CDQ). ---

TEST(ParallelExplore, DoubleQueueCompositionIdenticalAcrossThreadCounts) {
  DoubleQueueSystem sys = make_double_queue(/*capacity=*/1, /*num_values=*/2);
  std::vector<CompositePart> parts = {{make_cdq(sys).unhidden(), true},
                                      {make_pin(sys.vars, {sys.q}, "PinQ"), false}};
  StateGraph serial =
      build_composite_graph(sys.vars, parts, {}, {sys.q}, with_threads(1));
  EXPECT_GT(serial.num_states(), 20u);
  for (unsigned threads : {2u, 4u, 8u}) {
    StateGraph parallel =
        build_composite_graph(sys.vars, parts, {}, {sys.q}, with_threads(threads));
    expect_identical(serial, parallel, threads);
  }
}

// --- Edge cases the serial engine defines. ---

TEST(ParallelExplore, MaxStatesOverflowStopsAtSameCountUnderContention) {
  // 130 reachable states, capped at 40: every thread count must stop
  // gracefully at exactly the cap with StopReason::kStateBudget — the
  // unified budget semantics (serial used to throw, parallel used to
  // truncate silently).
  ChannelSpace space(64);
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    StateGraph g(space.vars, {space.init}, space.succ(),
                 with_threads(threads, /*max_states=*/40));
    EXPECT_EQ(g.num_states(), 40u);
    EXPECT_EQ(g.stop_reason(), run::StopReason::kStateBudget);
  }
}

TEST(ParallelExplore, EmptyInitialStatesYieldEmptyGraph) {
  ChannelSpace space(4);
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    StateGraph g(space.vars, {}, space.succ(), with_threads(threads));
    EXPECT_EQ(g.num_states(), 0u);
    EXPECT_EQ(g.num_edges(), 0u);
    EXPECT_TRUE(g.initial().empty());
  }
}

TEST(ParallelExplore, DuplicateInitialStatesDedupeLikeSerial) {
  ChannelSpace space(4);
  const std::vector<State> inits = {space.init, space.init, space.init};
  StateGraph serial(space.vars, inits, space.succ(), with_threads(1));
  for (unsigned threads : {2u, 4u}) {
    StateGraph parallel(space.vars, inits, space.succ(), with_threads(threads));
    expect_identical(serial, parallel, threads);
  }
  EXPECT_EQ(serial.initial().size(), 1u);
}

TEST(ParallelExplore, ZeroThreadsResolvesToHardwareConcurrency) {
  // threads=0 must still produce the canonical graph (whatever the host's
  // core count turns out to be).
  ChannelSpace space(8);
  StateGraph serial(space.vars, {space.init}, space.succ(), with_threads(1));
  StateGraph parallel(space.vars, {space.init}, space.succ(), with_threads(0));
  expect_identical(serial, parallel, 0);
}

TEST(ParallelExplore, BitIdentityHoldsWithProgressSamplerActive) {
  // The acceptance bar for the live heartbeat: a ProgressSampler polling
  // the frontier level concurrently with the worker pool must not perturb
  // the graph. This test is part of the TSan suite (tools/ci_sanitize.sh),
  // so it also proves the sampler races with nothing.
  DoubleQueueSystem sys = make_double_queue(/*capacity=*/1, /*num_values=*/2);
  std::vector<CompositePart> parts = {{make_cdq(sys).unhidden(), true},
                                      {make_pin(sys.vars, {sys.q}, "PinQ"), false}};
  StateGraph serial =
      build_composite_graph(sys.vars, parts, {}, {sys.q}, with_threads(1));

  obs::reset();
  obs::set_enabled(true);
  std::size_t samples_delivered = 0;
  {
    obs::ProgressSampler sampler(std::chrono::milliseconds(1),
                                 [&](const obs::ProgressSample&) {
                                   ++samples_delivered;
                                 });
    for (unsigned threads : {2u, 4u, 8u}) {
      StateGraph parallel =
          build_composite_graph(sys.vars, parts, {}, {sys.q}, with_threads(threads));
      expect_identical(serial, parallel, threads);
    }
  }
  EXPECT_GE(samples_delivered, 2u);  // at least the start + final samples
  obs::set_enabled(false);
  obs::reset();
}

TEST(ParallelExplore, BitIdentityHoldsWithSamplingProfilerActive) {
  // Same contract as the progress-sampler test, but for the obs v4
  // span-stack profiler: a background thread walking every explorer
  // thread's span stack at 1 kHz only reads atomics, so it must not
  // perturb state-id assignment or adjacency order at any thread count.
  // Part of the TSan suite (tools/ci_sanitize.sh).
  DoubleQueueSystem sys = make_double_queue(/*capacity=*/1, /*num_values=*/2);
  std::vector<CompositePart> parts = {{make_cdq(sys).unhidden(), true},
                                      {make_pin(sys.vars, {sys.q}, "PinQ"), false}};
  StateGraph serial =
      build_composite_graph(sys.vars, parts, {}, {sys.q}, with_threads(1));

  obs::reset();
  obs::set_enabled(true);
  {
    obs::SamplingProfiler profiler(/*hz=*/1000.0);
    for (unsigned threads : {2u, 4u, 8u}) {
      StateGraph parallel =
          build_composite_graph(sys.vars, parts, {}, {sys.q}, with_threads(threads));
      expect_identical(serial, parallel, threads);
    }
    profiler.stop();
    EXPECT_GE(profiler.samples(), 1u);
  }
  obs::set_enabled(false);
  obs::reset();
}

TEST(ParallelExplore, SamplerSeesOnlyRegisteredSpanNamesUnderConcurrency) {
  // Four explorer threads push/pop spans concurrently while the profiler
  // samples their stacks at 1 kHz. The push protocol (release depth store
  // after relaxed frame store) means a sampled stack is never torn: every
  // frame the sampler reads decodes to a name a Span actually interned —
  // nothing empty, nothing out of the name table. TSan covers the data
  // races; the assertions cover torn reads.
  if (!obs::compile_time_enabled()) {
    GTEST_SKIP() << "engine span instrumentation compiled out (-DOPENTLA_OBS=OFF)";
  }
  DoubleQueueSystem sys = make_double_queue(/*capacity=*/1, /*num_values=*/2);
  std::vector<CompositePart> parts = {{make_cdq(sys).unhidden(), true},
                                      {make_pin(sys.vars, {sys.q}, "PinQ"), false}};

  obs::reset();
  obs::set_enabled(true);
  std::vector<obs::FoldedStack> stacks;
  {
    obs::SamplingProfiler profiler(/*hz=*/1000.0);
    for (int repeat = 0; repeat < 3; ++repeat) {
      StateGraph parallel =
          build_composite_graph(sys.vars, parts, {}, {sys.q}, with_threads(4));
      ASSERT_GT(parallel.num_states(), 0u);
    }
    profiler.stop();
    EXPECT_GE(profiler.samples(), 1u);
    stacks = profiler.folded();
  }
  const std::vector<std::string> table = obs::detail::profiler_name_table();
  const std::set<std::string> registered(table.begin(), table.end());
  EXPECT_TRUE(registered.count("par.explore"));
  EXPECT_TRUE(registered.count("par.worker"));
  for (const obs::FoldedStack& fs : stacks) {
    EXPECT_GT(fs.count, 0u);
    EXPECT_FALSE(fs.stack.empty());
    std::size_t begin = 0;
    while (begin <= fs.stack.size()) {
      const std::size_t end = fs.stack.find(';', begin);
      const std::string frame = fs.stack.substr(
          begin, end == std::string::npos ? std::string::npos : end - begin);
      EXPECT_FALSE(frame.empty()) << "torn frame in \"" << fs.stack << "\"";
      EXPECT_TRUE(registered.count(frame))
          << "unregistered frame \"" << frame << "\" in \"" << fs.stack << "\"";
      if (end == std::string::npos) break;
      begin = end + 1;
    }
  }
  obs::set_enabled(false);
  obs::reset();
}

TEST(ParallelExplore, SpillKeepsGraphsBitIdenticalAcrossThreadCounts) {
  // The spill path's acceptance bar: with tiny arena segments and a
  // 1-byte resident budget (every sealed segment goes to disk at once),
  // the graph is still bit-identical to the no-spill serial baseline for
  // every thread count — ids, adjacency, and the decoded state behind
  // every id now coming back from mmap'd temp files. Part of the TSan
  // suite (tools/ci_sanitize.sh), so the shard arenas' spill accounting
  // is also raced against the worker pool.
  SegmentGuard guard(512);

  ChannelSpace space(64);  // 130 reachable states, well past one segment
  StateGraph baseline(space.vars, {space.init}, space.succ(), with_threads(1));

  obs::reset();
  obs::set_enabled(true);
  for (std::uint64_t spill_at : {std::uint64_t{0}, std::uint64_t{1}}) {
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE("spill_at=" + std::to_string(spill_at));
      ExploreOptions opts = with_threads(threads);
      opts.spill_at = spill_at;
      StateGraph g(space.vars, {space.init}, space.succ(), opts);
      expect_identical(baseline, g, threads);
    }
  }
  // Non-vacuity: the 1-byte budget must actually have spilled segments
  // (counted only where the counters are compiled in).
  if (obs::compile_time_enabled()) {
    EXPECT_GE(obs::snapshot().counter(obs::Counter::SpillSegments), 1u);
  }
  obs::set_enabled(false);
  obs::reset();
}

TEST(ParallelExplore, CompositionReportsIdenticalAcrossThreadsAndSpill) {
  // verify_composition runs every product, pair search and state graph on
  // StateGraph. Figure 9's proof of formula (4) and its refutation of
  // formula (3), without G, must report the same obligations (ids,
  // verdicts, node and pair counts, counterexamples) for every thread
  // count, spill off or on. Part of the TSan suite, so the products'
  // successor function races against the worker pool.
  SegmentGuard guard(512);

  DoubleQueueSystem sys = make_double_queue(/*capacity=*/1, /*num_values=*/2);
  const std::vector<AGSpec> without_g = {{sys.qe1, sys.qm1}, {sys.qe2, sys.qm2}};
  for (const std::vector<AGSpec>& components : {sys.components(), without_g}) {
    std::vector<Obligation> baseline;
    for (std::uint64_t spill_at : {std::uint64_t{0}, std::uint64_t{1}}) {
      for (unsigned threads : {1u, 2u, 4u}) {
        SCOPED_TRACE("spill_at=" + std::to_string(spill_at) +
                     " threads=" + std::to_string(threads));
        CompositionOptions opts;
        opts.goal_witness = {{"q", sys.qbar}};
        opts.threads = threads;
        opts.spill_at = spill_at;
        const ProofReport r = verify_composition(sys.vars, components, sys.goal(), opts);
        if (baseline.empty()) {
          // Non-vacuity: the proof goes through, the refutation does not.
          EXPECT_EQ(r.all_discharged(), components.size() == 3) << r.to_string();
          baseline = r.obligations;
          continue;
        }
        ASSERT_EQ(r.obligations.size(), baseline.size());
        for (std::size_t i = 0; i < baseline.size(); ++i) {
          EXPECT_EQ(r.obligations[i].id, baseline[i].id);
          EXPECT_EQ(r.obligations[i].discharged, baseline[i].discharged) << baseline[i].id;
          EXPECT_EQ(r.obligations[i].inconclusive, baseline[i].inconclusive) << baseline[i].id;
          EXPECT_EQ(r.obligations[i].detail, baseline[i].detail) << baseline[i].id;
        }
      }
    }
  }
}

TEST(ParallelExplore, SuccessorEmissionOrderIsDeterministic) {
  // The renumbering phase relies on successor providers emitting in a
  // fixed order for a fixed state (see graph/successor.cpp). Pin that
  // contract: repeated enumeration of the same state gives the same
  // sequence, element for element.
  QueueSystem sys = make_queue_system(/*capacity=*/2, /*num_values=*/3);
  ActionSuccessors gen(sys.vars, sys.specs.complete.unhidden().next);
  const std::vector<State> inits = ActionSuccessors::states_satisfying(
      sys.vars, sys.specs.complete.unhidden().init, {});
  ASSERT_FALSE(inits.empty());
  for (const State& s : inits) {
    const std::vector<State> first = gen.successors(s);
    for (int repeat = 0; repeat < 3; ++repeat) {
      EXPECT_EQ(gen.successors(s), first);
    }
  }
}

}  // namespace
}  // namespace opentla

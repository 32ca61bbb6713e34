// Unit tests for the observability layer (opentla/obs): counter
// determinism across identical runs, span-nesting well-formedness,
// golden renderer output, and the runtime-disabled no-op guarantee.

#include <gtest/gtest.h>

#include <chrono>
#include <deque>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "opentla/graph/conjunction.hpp"
#include "opentla/graph/state_graph.hpp"
#include "opentla/graph/successor.hpp"
#include "opentla/obs/export.hpp"
#include "opentla/obs/memory.hpp"
#include "opentla/obs/obs.hpp"
#include "opentla/obs/profiler.hpp"
#include "opentla/obs/progress.hpp"

namespace opentla {
namespace {

namespace obs = ::opentla::obs;

// Every test starts from a clean registry and leaves collection off, so
// tests compose regardless of execution order.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(false);
    obs::reset();
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::reset();
  }
};

TEST_F(ObsTest, NamesAreStableSnakeCase) {
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    const std::string n = obs::name(static_cast<obs::Counter>(i));
    EXPECT_NE(n, "?");
    for (char c : n) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_')
          << n;
    }
  }
  for (std::size_t i = 0; i < obs::kNumGauges; ++i) {
    EXPECT_NE(std::string(obs::name(static_cast<obs::Gauge>(i))), "?");
  }
  EXPECT_STREQ(obs::name(obs::Counter::StatesGenerated), "states_generated");
  EXPECT_STREQ(obs::name(obs::Gauge::PeakConfigurationCount),
               "peak_configuration_count");
}

// The same exploration must produce byte-identical counter deltas: the
// engine's instrumentation counts algorithmic events, not wall-clock
// accidents.
TEST_F(ObsTest, CountersAreDeterministicAcrossIdenticalRuns) {
  if (!obs::compile_time_enabled()) {
    GTEST_SKIP() << "engine instrumentation compiled out (-DOPENTLA_OBS=OFF)";
  }
  VarTable vars;
  const VarId x = vars.declare("x", range_domain(0, 7));
  const Expr next =
      ex::lor(ex::land(ex::lt(ex::var(x), ex::integer(7)),
                       ex::eq(ex::primed_var(x), ex::add(ex::var(x), ex::integer(1)))),
              ex::land(ex::eq(ex::var(x), ex::integer(7)),
                       ex::eq(ex::primed_var(x), ex::integer(0))));

  auto run = [&]() {
    obs::ScopedSink sink;
    ActionSuccessors gen(vars, next);
    StateGraph g(vars, {State({Value::integer(0)})},
                 [&gen](const State& s, const std::function<void(const State&)>& emit) {
                   gen.for_each_successor(s, emit);
                 });
    EXPECT_EQ(g.num_states(), 8u);
    return sink.take();
  };

  const obs::Snapshot a = run();
  const obs::Snapshot b = run();
  EXPECT_GT(a.counter(obs::Counter::StatesGenerated), 0u);
  EXPECT_GT(a.counter(obs::Counter::SuccessorsEnumerated), 0u);
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    EXPECT_EQ(a.counters[i], b.counters[i])
        << obs::name(static_cast<obs::Counter>(i));
  }
}

// Nested ScopedSinks each see their own delta.
TEST_F(ObsTest, ScopedSinkIsolatesItsScope) {
  obs::ScopedSink outer;
  obs::count(obs::Counter::SccPasses, 3);
  {
    obs::ScopedSink inner;
    obs::count(obs::Counter::SccPasses, 2);
    EXPECT_EQ(inner.take().counter(obs::Counter::SccPasses), 2u);
  }
  EXPECT_EQ(outer.take().counter(obs::Counter::SccPasses), 5u);
}

TEST_F(ObsTest, GaugeKeepsHighWaterMark) {
  obs::set_enabled(true);
  obs::gauge_max(obs::Gauge::PeakGraphStates, 10);
  obs::gauge_max(obs::Gauge::PeakGraphStates, 4);
  obs::gauge_max(obs::Gauge::PeakGraphStates, 12);
  obs::gauge_max(obs::Gauge::PeakGraphStates, 11);
  EXPECT_EQ(obs::snapshot().gauge(obs::Gauge::PeakGraphStates), 12u);
}

// Spans must form a forest: unique nonzero ids, parents that are either 0
// or another recorded span, and child intervals contained in the parent's.
TEST_F(ObsTest, SpanNestingIsWellFormed) {
  obs::set_enabled(true);
  {
    obs::Span outer("outer");
    { obs::Span inner_a("inner_a"); }
    { obs::Span inner_b("inner_b"); }
  }
  const obs::Snapshot snap = obs::snapshot();
  ASSERT_EQ(snap.spans.size(), 3u);
  EXPECT_EQ(snap.spans_dropped, 0u);

  // Spans are recorded at close: children first, the outer span last.
  const obs::SpanRecord& inner_a = snap.spans[0];
  const obs::SpanRecord& inner_b = snap.spans[1];
  const obs::SpanRecord& outer = snap.spans[2];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(inner_a.name, "inner_a");
  EXPECT_EQ(inner_b.name, "inner_b");

  std::set<std::uint32_t> ids;
  for (const obs::SpanRecord& s : snap.spans) {
    EXPECT_GT(s.id, 0u);
    EXPECT_TRUE(ids.insert(s.id).second) << "duplicate span id " << s.id;
  }
  for (const obs::SpanRecord& s : snap.spans) {
    EXPECT_TRUE(s.parent == 0 || ids.count(s.parent)) << s.name;
  }
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(inner_a.parent, outer.id);
  EXPECT_EQ(inner_b.parent, outer.id);

  // Interval containment (monotonic clock, child closes before parent).
  for (const obs::SpanRecord* child : {&inner_a, &inner_b}) {
    EXPECT_GE(child->start_us, outer.start_us);
    EXPECT_LE(child->start_us + child->dur_us, outer.start_us + outer.dur_us);
  }
  EXPECT_LE(inner_a.start_us + inner_a.dur_us, inner_b.start_us);
}

TEST_F(ObsTest, JsonEscape) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(obs::json_escape(std::string("\x01", 1)), "\\u0001");
}

// Golden test: the JSON renderer's exact output on a hand-built snapshot.
TEST_F(ObsTest, RenderJsonGolden) {
  obs::Snapshot snap;
  snap.counters[static_cast<std::size_t>(obs::Counter::StatesGenerated)] = 2;
  snap.counters[static_cast<std::size_t>(obs::Counter::SuccessorsEnumerated)] = 5;
  snap.counters[static_cast<std::size_t>(obs::Counter::CompositeFilterChecks)] = 3;
  // 5 candidates generated, 4 kept: waste_ratio = 5 / 4.
  snap.counters[static_cast<std::size_t>(obs::Counter::CandidatesGenerated)] = 5;
  snap.counters[static_cast<std::size_t>(obs::Counter::CandidatesKept)] = 4;
  snap.gauges[static_cast<std::size_t>(obs::Gauge::PeakGraphStates)] = 7;
  // One expansion with 4 edges.
  obs::HistogramSnapshot& fanout =
      snap.hists[static_cast<std::size_t>(obs::Histogram::SuccessorFanout)];
  fanout.buckets[3] = 1;  // the value 4 lands in (2, 4]
  fanout.sum = 4;
  fanout.count = 1;
  snap.spans.push_back({"explore", 1, 0, 1, 100, 50});

  std::string zeros = "0";
  for (std::size_t i = 1; i < obs::kHistBuckets; ++i) zeros += ", 0";
  const std::string empty_hist =
      "{\"buckets\": [" + zeros + "], \"sum\": 0, \"count\": 0}";
  std::string fanout_buckets;
  for (std::size_t i = 0; i < obs::kHistBuckets; ++i) {
    fanout_buckets += (i > 0 ? ", " : "") + std::string(i == 3 ? "1" : "0");
  }
  const std::string fanout_hist =
      "{\"buckets\": [" + fanout_buckets + "], \"sum\": 4, \"count\": 1}";
  const std::string empty_mem_domain =
      "{\"live_bytes\": 0, \"peak_bytes\": 0, \"allocs\": 0, \"alloc_size\": " +
      empty_hist + "}";

  const std::string expected =
      "{\n"
      "  \"counters\": {\n"
      "    \"states_generated\": 2,\n"
      "    \"successors_enumerated\": 5,\n"
      "    \"enabled_evaluations\": 0,\n"
      "    \"configs_expanded\": 0,\n"
      "    \"scc_passes\": 0,\n"
      "    \"lasso_candidates\": 0,\n"
      "    \"inclusion_pairs\": 0,\n"
      "    \"product_nodes\": 0,\n"
      "    \"product_steps\": 0,\n"
      "    \"freeze_steps\": 0,\n"
      "    \"refinement_edges_checked\": 0,\n"
      "    \"oracle_evaluations\": 0,\n"
      "    \"behaviors_checked\": 0,\n"
      "    \"par_states_expanded\": 0,\n"
      "    \"par_steals\": 0,\n"
      "    \"par_shard_contention\": 0,\n"
      "    \"completions_pruned\": 0,\n"
      "    \"residual_early_cuts\": 0,\n"
      "    \"analysis_pairs_independent\": 0,\n"
      "    \"analysis_pairs_dependent\": 0,\n"
      "    \"budget_stops\": 0,\n"
      "    \"vm_programs_compiled\": 0,\n"
      "    \"vm_instrs_executed\": 0,\n"
      "    \"fingerprint_collisions\": 0,\n"
      "    \"spill_segments\": 0,\n"
      "    \"composite_filter_checks\": 3,\n"
      "    \"candidates_generated\": 5,\n"
      "    \"candidates_kept\": 4\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"peak_configuration_count\": 0,\n"
      "    \"peak_graph_states\": 7,\n"
      "    \"peak_product_nodes\": 0,\n"
      "    \"peak_par_workers\": 0,\n"
      "    \"peak_rss_bytes\": 0\n"
      "  },\n"
      "  \"levels\": {\n"
      "    \"frontier_size\": 0\n"
      "  },\n"
      "  \"labeled\": {\n"
      "    \"action_fired\": {},\n"
      "    \"action_enabled\": {}\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"successor_fanout\": " + fanout_hist + ",\n"
      "    \"par_worker_expansions\": " + empty_hist + ",\n"
      "    \"shard_probe_length\": " + empty_hist + ",\n"
      "    \"lasso_walk_length\": " + empty_hist + "\n"
      "  },\n"
      "  \"waste_ratio\": 1.25,\n"
      "  \"memory\": {\n"
      "    \"domains\": {\n"
      "      \"state_store\": " + empty_mem_domain + ",\n"
      "      \"state_graph\": " + empty_mem_domain + ",\n"
      "      \"frontier\": " + empty_mem_domain + ",\n"
      "      \"parser\": " + empty_mem_domain + ",\n"
      "      \"oracle\": " + empty_mem_domain + ",\n"
      "      \"other\": " + empty_mem_domain + "\n"
      "    },\n"
      "    \"tracked_live_bytes\": 0,\n"
      "    \"tracked_peak_bytes\": 0,\n"
      "    \"bytes_per_state\": 0\n"
      "  },\n"
      "  \"phases\": [],\n"
      "  \"spans_dropped\": 0,\n"
      "  \"spans\": [\n"
      "    {\"name\": \"explore\", \"id\": 1, \"parent\": 0, \"tid\": 1, "
      "\"ts_us\": 100, \"dur_us\": 50}\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(obs::render_json(snap), expected);
}

// Golden test: the Chrome trace_event renderer. One metadata event, one
// "X" complete event per span, one "C" counter sample per nonzero counter
// stamped at the trace's last timestamp.
TEST_F(ObsTest, RenderChromeTraceGolden) {
  obs::Snapshot snap;
  snap.counters[static_cast<std::size_t>(obs::Counter::StatesGenerated)] = 2;
  snap.spans.push_back({"explore", 1, 0, 1, 100, 50});

  const std::string expected =
      "{\"traceEvents\": [\n"
      "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
      "\"args\": {\"name\": \"opentla\"}},\n"
      "  {\"name\": \"explore\", \"cat\": \"opentla\", \"ph\": \"X\", "
      "\"ts\": 100, \"dur\": 50, \"pid\": 1, \"tid\": 1, "
      "\"args\": {\"id\": 1, \"parent\": 0}},\n"
      "  {\"name\": \"states_generated\", \"ph\": \"C\", \"ts\": 150, "
      "\"pid\": 1, \"args\": {\"value\": 2}}\n"
      "], \"displayTimeUnit\": \"ms\"}\n";
  EXPECT_EQ(obs::render_chrome_trace(snap), expected);
}

TEST_F(ObsTest, RenderHumanMentionsEveryCounter) {
  obs::Snapshot snap;
  snap.spans.push_back({"explore", 1, 0, 1, 100, 50});
  const std::string table = obs::render_human(snap);
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    EXPECT_NE(table.find(obs::name(static_cast<obs::Counter>(i))),
              std::string::npos);
  }
  for (std::size_t i = 0; i < obs::kNumGauges; ++i) {
    EXPECT_NE(table.find(obs::name(static_cast<obs::Gauge>(i))),
              std::string::npos);
  }
  EXPECT_NE(table.find("explore"), std::string::npos);
}

// The bench export is render_json's members up to "memory" under the
// schema and bench tags: one serializer, and no phase events or spans.
TEST_F(ObsTest, WriteBenchJsonRoundTrips) {
  const std::filesystem::path prev = std::filesystem::current_path();
  std::filesystem::current_path(::testing::TempDir());
  obs::Snapshot snap;
  snap.counters[static_cast<std::size_t>(obs::Counter::StatesGenerated)] = 42;
  snap.phases.push_back({"fig9:1", 10});
  snap.spans.push_back({"explore", 1, 0, 1, 100, 50});
  const std::string path = obs::write_bench_json("unit_test", snap);
  std::filesystem::current_path(prev);
  ASSERT_EQ(path, "BENCH_unit_test.json");

  std::ifstream in(std::filesystem::path(::testing::TempDir()) / path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string body = buf.str();
  const std::string json = obs::render_json(snap);
  const std::size_t events = json.find(",\n  \"phases\": [");
  ASSERT_NE(events, std::string::npos);
  EXPECT_EQ(body, "{\n  \"schema\": \"opentla-bench-v4\",\n  \"bench\": \"unit_test\",\n" +
                      json.substr(2, events - 2) + "\n}\n");
  EXPECT_NE(body.find("\"states_generated\": 42"), std::string::npos);
  EXPECT_NE(body.find("\"waste_ratio\": 0,"), std::string::npos);
  EXPECT_EQ(body.find("\"phases\""), std::string::npos);
  EXPECT_EQ(body.find("\"spans\""), std::string::npos);
}

// The parallel engine's counters: a multi-threaded exploration reports its
// worker-pool width and expansion count, and — because the graph must be
// canonical — the *graph-shape* counters match a serial run of the same
// space exactly. Steal/contention counts are scheduling-dependent, so only
// their presence in the snapshot is asserted, not a value.
TEST_F(ObsTest, ParallelCountersAreRecordedAndGraphCountersMatchSerial) {
  if (!obs::compile_time_enabled()) {
    GTEST_SKIP() << "engine instrumentation compiled out (-DOPENTLA_OBS=OFF)";
  }
  VarTable vars;
  const VarId x = vars.declare("x", range_domain(0, 63));
  const Expr next =
      ex::lor(ex::land(ex::lt(ex::var(x), ex::integer(63)),
                       ex::eq(ex::primed_var(x), ex::add(ex::var(x), ex::integer(1)))),
              ex::land(ex::eq(ex::var(x), ex::integer(63)),
                       ex::eq(ex::primed_var(x), ex::integer(0))));
  ActionSuccessors gen(vars, next);
  const StateGraph::SuccessorFn succ =
      [&gen](const State& s, const std::function<void(const State&)>& emit) {
        gen.for_each_successor(s, emit);
      };
  const State init({Value::integer(0)});

  auto run = [&](unsigned threads) {
    obs::ScopedSink sink;
    ExploreOptions opts;
    opts.threads = threads;
    StateGraph g(vars, {init}, succ, opts);
    EXPECT_EQ(g.num_states(), 64u);
    return sink.take();
  };

  const obs::Snapshot serial = run(1);
  const obs::Snapshot parallel = run(4);

  // Serial exploration never touches the par.* instruments.
  EXPECT_EQ(serial.counter(obs::Counter::ParStatesExpanded), 0u);
  EXPECT_EQ(serial.counter(obs::Counter::ParSteals), 0u);
  EXPECT_EQ(serial.gauge(obs::Gauge::PeakParWorkers), 0u);

  // The parallel run expands every state exactly once and records its pool.
  EXPECT_EQ(parallel.counter(obs::Counter::ParStatesExpanded), 64u);
  EXPECT_EQ(parallel.gauge(obs::Gauge::PeakParWorkers), 4u);
  // Graph-shape counters are engine-independent.
  EXPECT_EQ(parallel.counter(obs::Counter::StatesGenerated),
            serial.counter(obs::Counter::StatesGenerated));
  EXPECT_EQ(parallel.counter(obs::Counter::SuccessorsEnumerated),
            serial.counter(obs::Counter::SuccessorsEnumerated));
}

// With the runtime flag off, every primitive the macros expand to must
// leave the registry untouched, and Span construction must not record.
TEST_F(ObsTest, RuntimeDisabledRecordsNothing) {
  ASSERT_FALSE(obs::enabled());
  OPENTLA_OBS_COUNT(StatesGenerated);
  OPENTLA_OBS_COUNT_N(ConfigsExpanded, 17);
  OPENTLA_OBS_GAUGE_MAX(PeakGraphStates, 99);
  OPENTLA_OBS_LEVEL_SET(FrontierSize, 42);
  OPENTLA_OBS_COUNT_LABELED(ActionFired, obs::kLabelOverflow, 3);
  OPENTLA_OBS_HIST(SuccessorFanout, 8);
  OPENTLA_OBS_PHASE("ignored_phase");
  { OPENTLA_OBS_SPAN("ignored"); }
  { obs::Span direct("also_ignored"); }
  const obs::Snapshot snap = obs::snapshot();
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    EXPECT_EQ(snap.counters[i], 0u);
  }
  for (std::size_t i = 0; i < obs::kNumGauges; ++i) {
    EXPECT_EQ(snap.gauges[i], 0u);
  }
  for (std::size_t i = 0; i < obs::kNumLevels; ++i) {
    EXPECT_EQ(snap.levels[i], 0u);
  }
  for (std::size_t f = 0; f < obs::kNumLabeledCounters; ++f) {
    for (std::uint64_t v : snap.labeled[f]) EXPECT_EQ(v, 0u);
  }
  for (std::size_t h = 0; h < obs::kNumHistograms; ++h) {
    EXPECT_EQ(snap.hists[h].count, 0u);
  }
  EXPECT_TRUE(snap.phases.empty());
  EXPECT_TRUE(snap.spans.empty());
}

// --- obs v2: labeled counters, histograms, levels, phases, sampler, exports ---

// Regression for the ScopedSink gauge-leak bug: a peak recorded BEFORE the
// sink existed must not appear in the sink's snapshot; the sink reports
// only the high-water observed within its own scope.
TEST_F(ObsTest, ScopedSinkGaugeIsScopeLocal) {
  obs::set_enabled(true);
  obs::gauge_max(obs::Gauge::PeakGraphStates, 1000);  // stale, pre-scope peak
  {
    obs::ScopedSink outer;
    obs::gauge_max(obs::Gauge::PeakGraphStates, 7);
    {
      obs::ScopedSink inner;
      obs::gauge_max(obs::Gauge::PeakGraphStates, 3);
      EXPECT_EQ(inner.take().gauge(obs::Gauge::PeakGraphStates), 3u);
    }
    EXPECT_EQ(outer.take().gauge(obs::Gauge::PeakGraphStates), 7u);
    // A sink that saw no gauge update reports 0, not the global peak.
    obs::ScopedSink quiet;
    EXPECT_EQ(quiet.take().gauge(obs::Gauge::PeakGraphStates), 0u);
  }
  // The global registry still holds the process-lifetime high-water.
  EXPECT_EQ(obs::snapshot().gauge(obs::Gauge::PeakGraphStates), 1000u);
}

// The span-recording cap: spans past the cap are dropped and counted, and
// the Chrome trace renderer surfaces the count as a metadata event.
TEST_F(ObsTest, SpanCapDropsAndCountsOverflow) {
  obs::set_enabled(true);
  constexpr std::size_t kCap = std::size_t{1} << 17;  // kMaxSpans in obs.cpp
  constexpr std::size_t kOver = 5;
  for (std::size_t i = 0; i < kCap + kOver; ++i) {
    obs::Span s("bulk");
  }
  const obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(snap.spans.size(), kCap);
  EXPECT_EQ(snap.spans_dropped, kOver);
}

TEST_F(ObsTest, ChromeTraceSurfacesDroppedSpans) {
  obs::Snapshot snap;
  snap.spans.push_back({"explore", 1, 0, 1, 100, 50});
  snap.spans_dropped = 3;
  const std::string trace = obs::render_chrome_trace(snap);
  EXPECT_NE(trace.find("{\"name\": \"spans_dropped\", \"ph\": \"M\", \"pid\": 1, "
                       "\"args\": {\"value\": 3}}"),
            std::string::npos);
}

// Schema-drift guard: every enum value of every instrument family has a
// unique, non-empty name that appears in render_json output.
TEST_F(ObsTest, RendererNamesAreUniqueAndPresentInJson) {
  const std::string json = obs::render_json(obs::Snapshot{});
  std::set<std::string> seen;
  auto check = [&](const char* n) {
    ASSERT_NE(n, nullptr);
    const std::string s = n;
    EXPECT_FALSE(s.empty());
    EXPECT_NE(s, "?");
    EXPECT_TRUE(seen.insert(s).second) << "duplicate metric name " << s;
    EXPECT_NE(json.find("\"" + s + "\""), std::string::npos) << s;
  };
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    check(obs::name(static_cast<obs::Counter>(i)));
  }
  for (std::size_t i = 0; i < obs::kNumGauges; ++i) {
    check(obs::name(static_cast<obs::Gauge>(i)));
  }
  for (std::size_t i = 0; i < obs::kNumLevels; ++i) {
    check(obs::name(static_cast<obs::Level>(i)));
  }
  for (std::size_t i = 0; i < obs::kNumLabeledCounters; ++i) {
    check(obs::name(static_cast<obs::LabeledCounter>(i)));
  }
  for (std::size_t i = 0; i < obs::kNumHistograms; ++i) {
    check(obs::name(static_cast<obs::Histogram>(i)));
  }
}

TEST_F(ObsTest, LabelInterningIsStableAndBounded) {
  obs::set_enabled(true);
  const obs::LabelId a = obs::intern_label("Incr");
  const obs::LabelId b = obs::intern_label("Wrap");
  EXPECT_NE(a, obs::kLabelOverflow);
  EXPECT_NE(b, obs::kLabelOverflow);
  EXPECT_NE(a, b);
  EXPECT_EQ(obs::intern_label("Incr"), a);  // idempotent

  obs::count_labeled(obs::LabeledCounter::ActionFired, a, 3);
  obs::count_labeled(obs::LabeledCounter::ActionFired, b, 1);
  obs::count_labeled(obs::LabeledCounter::ActionEnabled, a, 2);
  const obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(snap.labeled_value(obs::LabeledCounter::ActionFired, "Incr"), 3u);
  EXPECT_EQ(snap.labeled_value(obs::LabeledCounter::ActionFired, "Wrap"), 1u);
  EXPECT_EQ(snap.labeled_value(obs::LabeledCounter::ActionEnabled, "Incr"), 2u);
  EXPECT_EQ(snap.labeled_value(obs::LabeledCounter::ActionEnabled, "missing"), 0u);
  EXPECT_EQ(snap.labels[obs::kLabelOverflow], "_other");

  // Past the table bound, interning degrades to the overflow bucket
  // instead of growing without limit.
  for (std::size_t i = 0; i < obs::kMaxLabels + 8; ++i) {
    obs::intern_label("overflow_" + std::to_string(i));
  }
  EXPECT_EQ(obs::intern_label("one_more"), obs::kLabelOverflow);
  EXPECT_EQ(obs::snapshot().labels.size(), obs::kMaxLabels);
}

TEST_F(ObsTest, HistogramBucketsArePowersOfTwo) {
  // Bucket layout: le bounds 0, 1, 2, 4, 8, ...
  EXPECT_EQ(obs::hist_bucket_index(0), 0u);
  EXPECT_EQ(obs::hist_bucket_index(1), 1u);
  EXPECT_EQ(obs::hist_bucket_index(2), 2u);
  EXPECT_EQ(obs::hist_bucket_index(3), 3u);
  EXPECT_EQ(obs::hist_bucket_index(4), 3u);
  EXPECT_EQ(obs::hist_bucket_index(5), 4u);
  EXPECT_EQ(obs::hist_bucket_index(8), 4u);
  EXPECT_EQ(obs::hist_bucket_index(9), 5u);
  EXPECT_EQ(obs::hist_bucket_le(0), 0u);
  EXPECT_EQ(obs::hist_bucket_le(1), 1u);
  EXPECT_EQ(obs::hist_bucket_le(3), 4u);
  // Everything saturates into the final bucket.
  EXPECT_EQ(obs::hist_bucket_index(~std::uint64_t{0}), obs::kHistBuckets - 1);

  obs::set_enabled(true);
  for (std::uint64_t v : {0u, 1u, 2u, 3u, 4u, 5u, 100u}) {
    obs::hist_observe(obs::Histogram::SuccessorFanout, v);
  }
  const obs::Snapshot snap = obs::snapshot();
  const obs::HistogramSnapshot& h = snap.hist(obs::Histogram::SuccessorFanout);
  EXPECT_EQ(h.count, 7u);
  EXPECT_EQ(h.sum, 115u);
  EXPECT_EQ(h.buckets[0], 1u);  // 0
  EXPECT_EQ(h.buckets[1], 1u);  // 1
  EXPECT_EQ(h.buckets[2], 1u);  // 2
  EXPECT_EQ(h.buckets[3], 2u);  // 3, 4
  EXPECT_EQ(h.buckets[4], 1u);  // 5
  EXPECT_EQ(h.buckets[8], 1u);  // 100 in (64,128]
}

TEST_F(ObsTest, PhaseEventsAreRecordedInOrder) {
  if (!obs::compile_time_enabled()) {
    GTEST_SKIP() << "OPENTLA_OBS_PHASE compiled out (-DOPENTLA_OBS=OFF)";
  }
  obs::set_enabled(true);
  obs::ScopedSink sink;
  OPENTLA_OBS_PHASE("fig9:1");
  OPENTLA_OBS_PHASE(std::string("fig9:2.") + "1");

  const obs::Snapshot snap = sink.take();
  ASSERT_EQ(snap.phases.size(), 2u);
  EXPECT_EQ(snap.phases[0].phase, "fig9:1");
  EXPECT_EQ(snap.phases[1].phase, "fig9:2.1");
  EXPECT_LE(snap.phases[0].ts_us, snap.phases[1].ts_us);
}

TEST_F(ObsTest, ScopedSinkDeltasLabeledHistogramsAndPhases) {
  obs::set_enabled(true);
  const obs::LabelId incr = obs::intern_label("Incr");
  obs::count_labeled(obs::LabeledCounter::ActionFired, incr, 10);
  obs::hist_observe(obs::Histogram::SuccessorFanout, 4);
  obs::phase_event("before");
  {
    obs::ScopedSink sink;
    obs::count_labeled(obs::LabeledCounter::ActionFired, incr, 5);
    obs::hist_observe(obs::Histogram::SuccessorFanout, 4);
    obs::hist_observe(obs::Histogram::SuccessorFanout, 7);
    obs::phase_event("inside");
    const obs::Snapshot snap = sink.take();
    EXPECT_EQ(snap.labeled_value(obs::LabeledCounter::ActionFired, "Incr"), 5u);
    const obs::HistogramSnapshot& h = snap.hist(obs::Histogram::SuccessorFanout);
    EXPECT_EQ(h.count, 2u);
    EXPECT_EQ(h.sum, 11u);
    ASSERT_EQ(snap.phases.size(), 1u);
    EXPECT_EQ(snap.phases[0].phase, "inside");
  }
  EXPECT_EQ(obs::snapshot().labeled_value(obs::LabeledCounter::ActionFired, "Incr"),
            15u);
}

// Serial exploration records the fanout histogram; the same space explored
// in parallel produces the identical histogram (same canonical graph).
TEST_F(ObsTest, FanoutHistogramIsEngineIndependent) {
  if (!obs::compile_time_enabled()) {
    GTEST_SKIP() << "engine instrumentation compiled out (-DOPENTLA_OBS=OFF)";
  }
  VarTable vars;
  const VarId x = vars.declare("x", range_domain(0, 31));
  const Expr next =
      ex::lor(ex::land(ex::lt(ex::var(x), ex::integer(31)),
                       ex::eq(ex::primed_var(x), ex::add(ex::var(x), ex::integer(1)))),
              ex::land(ex::eq(ex::var(x), ex::integer(31)),
                       ex::eq(ex::primed_var(x), ex::integer(0))));
  ActionSuccessors gen(vars, next);
  const StateGraph::SuccessorFn succ =
      [&gen](const State& s, const std::function<void(const State&)>& emit) {
        gen.for_each_successor(s, emit);
      };
  auto run = [&](unsigned threads) {
    obs::ScopedSink sink;
    ExploreOptions opts;
    opts.threads = threads;
    StateGraph g(vars, {State({Value::integer(0)})}, succ, opts);
    EXPECT_EQ(g.num_states(), 32u);
    return sink.take();
  };
  const obs::Snapshot serial = run(1);
  const obs::Snapshot parallel = run(4);
  const obs::HistogramSnapshot& hs = serial.hist(obs::Histogram::SuccessorFanout);
  const obs::HistogramSnapshot& hp = parallel.hist(obs::Histogram::SuccessorFanout);
  EXPECT_EQ(hs.count, 32u);
  EXPECT_EQ(hs.buckets, hp.buckets);
  EXPECT_EQ(hs.sum, hp.sum);
  // The parallel run also samples one expansion count per worker.
  EXPECT_EQ(parallel.hist(obs::Histogram::ParWorkerExpansions).count, 4u);
  EXPECT_EQ(parallel.hist(obs::Histogram::ParWorkerExpansions).sum, 32u);
  EXPECT_EQ(serial.hist(obs::Histogram::ParWorkerExpansions).count, 0u);
}

// The sampler's delivery guarantee: one start sample, one final sample,
// in seq order on one logical stream — even when stopped immediately.
TEST_F(ObsTest, ProgressSamplerEmitsStartAndFinalSamples) {
  obs::set_enabled(true);
  std::vector<obs::ProgressSample> samples;
  {
    obs::ProgressSampler sampler(std::chrono::milliseconds(10'000),
                                 [&](const obs::ProgressSample& s) {
                                   samples.push_back(s);
                                 });
    obs::count(obs::Counter::StatesGenerated, 123);
    obs::level_set(obs::Level::FrontierSize, 9);
  }  // dtor stops and emits the final sample
  ASSERT_GE(samples.size(), 2u);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].seq, i);
    if (i > 0) {
      EXPECT_GE(samples[i].ts_us, samples[i - 1].ts_us);
    }
  }
  EXPECT_FALSE(samples.front().final_sample);
  EXPECT_TRUE(samples.back().final_sample);
  EXPECT_EQ(samples.front().states, 0u);
  EXPECT_EQ(samples.back().states, 123u);
  EXPECT_EQ(samples.back().frontier, 9u);
}

// With a short period the background thread emits periodic samples
// between start and final.
TEST_F(ObsTest, ProgressSamplerEmitsPeriodicSamples) {
  obs::set_enabled(true);
  std::vector<obs::ProgressSample> samples;
  {
    obs::ProgressSampler sampler(
        std::chrono::milliseconds(5),
        [&](const obs::ProgressSample& s) { samples.push_back(s); });
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }
  EXPECT_GE(samples.size(), 3u);  // start + >=1 periodic + final
  EXPECT_GT(obs::read_rss_bytes(), 0u);  // /proc/self/statm is readable here
}

TEST_F(ObsTest, RenderOpenMetricsExposition) {
  obs::set_enabled(true);
  obs::count(obs::Counter::StatesGenerated, 42);
  obs::gauge_max(obs::Gauge::PeakGraphStates, 7);
  obs::level_set(obs::Level::FrontierSize, 3);
  const obs::LabelId incr = obs::intern_label("In\"cr");
  obs::count_labeled(obs::LabeledCounter::ActionFired, incr, 5);
  obs::hist_observe(obs::Histogram::SuccessorFanout, 0);
  obs::hist_observe(obs::Histogram::SuccessorFanout, 3);
  obs::count(obs::Counter::CandidatesGenerated, 6);
  obs::count(obs::Counter::CandidatesKept, 3);
  obs::count(obs::Counter::CompositeFilterChecks, 4);
  const std::string text = obs::render_openmetrics(obs::snapshot());

  EXPECT_NE(text.find("# TYPE opentla_states_generated counter\n"
                      "opentla_states_generated_total 42\n"),
            std::string::npos);
  EXPECT_NE(text.find("opentla_peak_graph_states 7\n"), std::string::npos);
  EXPECT_NE(text.find("opentla_frontier_size 3\n"), std::string::npos);
  // Label values are escaped per the OpenMetrics ABNF.
  EXPECT_NE(text.find("opentla_action_fired_total{action=\"In\\\"cr\"} 5\n"),
            std::string::npos);
  // Histogram buckets are cumulative and end at +Inf = count.
  EXPECT_NE(text.find("opentla_successor_fanout_bucket{le=\"0\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("opentla_successor_fanout_bucket{le=\"4\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("opentla_successor_fanout_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("opentla_successor_fanout_sum 3\n"), std::string::npos);
  EXPECT_NE(text.find("opentla_successor_fanout_count 2\n"), std::string::npos);
  // 6 candidates generated for the 3 kept.
  EXPECT_NE(text.find("# TYPE opentla_waste_ratio gauge\nopentla_waste_ratio 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE opentla_composite_filter_checks counter\n"
                      "opentla_composite_filter_checks_total 4\n"),
            std::string::npos);
  // The exposition terminates with the required EOF marker.
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

// --- obs v4: memory accounting ---

// The statm parse is pure: resident *pages* times the page size, in bytes
// — pinning the unit here keeps every RSS consumer (progress samples,
// budget checks, the peak_rss_bytes gauge) in bytes, never pages.
TEST_F(ObsTest, StatmResidentBytesConvertsPagesToBytes) {
  EXPECT_EQ(obs::statm_resident_bytes("12345 678 90 1 0 2 0", 4096), 678u * 4096u);
  EXPECT_EQ(obs::statm_resident_bytes("12345 678", 16384), 678u * 16384u);
  EXPECT_EQ(obs::statm_resident_bytes("", 4096), 0u);
  EXPECT_EQ(obs::statm_resident_bytes("garbage", 4096), 0u);
  EXPECT_EQ(obs::statm_resident_bytes("42", 4096), 0u);  // no resident field
}

TEST_F(ObsTest, MemTallyChargesAndReleasesItsDomain) {
  obs::set_enabled(true);
  {
    obs::MemTally tally(obs::MemDomain::StateStore);
    tally.add(1000);
    tally.add(24);
    obs::Snapshot snap = obs::snapshot();
    const obs::MemDomainSnapshot& ms = snap.mem_domain(obs::MemDomain::StateStore);
    EXPECT_EQ(ms.live_bytes, 1024u);
    EXPECT_EQ(ms.peak_bytes, 1024u);
    EXPECT_EQ(ms.allocs, 2u);
    EXPECT_EQ(ms.alloc_size_sum, 1024u);
    EXPECT_EQ(snap.mem_tracked_live_bytes, 1024u);
    EXPECT_EQ(snap.mem_tracked_peak_bytes, 1024u);
  }
  // RAII release: live returns to zero, the peak stays.
  obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(snap.mem_domain(obs::MemDomain::StateStore).live_bytes, 0u);
  EXPECT_EQ(snap.mem_domain(obs::MemDomain::StateStore).peak_bytes, 1024u);
  EXPECT_EQ(snap.mem_tracked_live_bytes, 0u);
  EXPECT_EQ(snap.mem_tracked_peak_bytes, 1024u);
}

TEST_F(ObsTest, MemTallyCopyRechargesAndMoveTransfers) {
  obs::set_enabled(true);
  obs::MemTally a(obs::MemDomain::Oracle);
  a.add(100);
  obs::MemTally b = a;  // copy: the domain is charged a second time
  EXPECT_EQ(obs::snapshot().mem_domain(obs::MemDomain::Oracle).live_bytes, 200u);
  obs::MemTally c = std::move(a);  // move: no new charge
  EXPECT_EQ(obs::snapshot().mem_domain(obs::MemDomain::Oracle).live_bytes, 200u);
  c.release();
  b.release();
  EXPECT_EQ(obs::snapshot().mem_domain(obs::MemDomain::Oracle).live_bytes, 0u);
}

TEST_F(ObsTest, MemTallySetReplacesTheCharge) {
  obs::set_enabled(true);
  obs::MemTally tally(obs::MemDomain::StateGraph);
  tally.set(500);
  tally.set(300);  // shrink: live follows
  EXPECT_EQ(obs::snapshot().mem_domain(obs::MemDomain::StateGraph).live_bytes, 300u);
  tally.release();
}

TEST_F(ObsTest, MemAccountingIsNoOpWhenRuntimeDisabled) {
  // SetUp left collection off: charges must not land anywhere.
  {
    obs::MemTally tally(obs::MemDomain::StateStore);
    tally.add(4096);
    EXPECT_EQ(tally.bytes(), 0u);
  }
  obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(snap.mem_domain(obs::MemDomain::StateStore).peak_bytes, 0u);
  EXPECT_EQ(snap.mem_tracked_peak_bytes, 0u);
}

TEST_F(ObsTest, MemAccountingSuspendGatesOnlyTheAccountingLayer) {
  // The overhead-benchmark sub-gate: while suspended, charges record
  // nothing even with collection on, and a tally that charged before
  // suspension still releases exactly what it charged.
  obs::set_enabled(true);
  obs::MemTally tally(obs::MemDomain::Oracle);
  tally.add(1000);
  obs::set_mem_accounting_suspended(true);
  EXPECT_TRUE(obs::mem_accounting_suspended());
  tally.add(5000);  // skipped: not recorded, not remembered
  EXPECT_EQ(tally.bytes(), 1000u);
  OPENTLA_OBS_COUNT(StatesGenerated);  // the rest of the obs layer stays live
  obs::set_mem_accounting_suspended(false);
  tally.release();
  obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(snap.mem_domain(obs::MemDomain::Oracle).peak_bytes, 1000u);
  EXPECT_EQ(snap.mem_domain(obs::MemDomain::Oracle).live_bytes, 0u);
  if (obs::compile_time_enabled()) {  // the macro is ((void)0) in OFF builds
    EXPECT_EQ(snap.counters[static_cast<std::size_t>(obs::Counter::StatesGenerated)], 1u);
  }
}

TEST_F(ObsTest, CountingAllocatorChargesContainerBlocks) {
  obs::set_enabled(true);
  {
    std::deque<int, obs::CountingAllocator<int>> q{
        obs::CountingAllocator<int>(obs::MemDomain::Frontier)};
    for (int i = 0; i < 1000; ++i) q.push_back(i);
    const obs::Snapshot snap = obs::snapshot();
    const obs::MemDomainSnapshot& ms = snap.mem_domain(obs::MemDomain::Frontier);
    EXPECT_GE(ms.live_bytes, 1000u * sizeof(int));
    EXPECT_GT(ms.allocs, 0u);
  }
  EXPECT_EQ(obs::snapshot().mem_domain(obs::MemDomain::Frontier).live_bytes, 0u);
}

TEST_F(ObsTest, BytesPerStateDividesTrackedPeakByPeakStates) {
  obs::set_enabled(true);
  obs::MemTally tally(obs::MemDomain::StateStore);
  tally.add(7000);
  obs::gauge_max(obs::Gauge::PeakGraphStates, 70);
  EXPECT_EQ(obs::snapshot().bytes_per_state(), 100u);
  obs::Snapshot empty;
  EXPECT_EQ(empty.bytes_per_state(), 0u);  // no states: no division
  tally.release();
}

TEST_F(ObsTest, WasteRatioDividesCandidatesByKeptEdges) {
  obs::Snapshot snap;
  EXPECT_EQ(snap.waste_ratio(), 0.0);  // nothing kept: no division
  snap.counters[static_cast<std::size_t>(obs::Counter::CandidatesGenerated)] = 12;
  EXPECT_EQ(snap.waste_ratio(), 0.0);
  snap.counters[static_cast<std::size_t>(obs::Counter::CandidatesKept)] = 9;
  EXPECT_DOUBLE_EQ(snap.waste_ratio(), 12.0 / 9.0);
  // Neither the successors ActionSuccessors enumerates elsewhere nor the
  // edges of other explorations (self-loops, searches) move it.
  snap.counters[static_cast<std::size_t>(obs::Counter::SuccessorsEnumerated)] = 100;
  snap.hists[static_cast<std::size_t>(obs::Histogram::SuccessorFanout)].sum = 1000;
  EXPECT_DOUBLE_EQ(snap.waste_ratio(), 12.0 / 9.0);
}

TEST_F(ObsTest, WasteRatioCountsWhereTheConjunctionKeepsOrDropsACandidate) {
  if (!obs::compile_time_enabled()) {
    GTEST_SKIP() << "engine instrumentation compiled out (-DOPENTLA_OBS=OFF)";
  }
  // x counts to 3, and the caller drops x' = 2. Every generated candidate
  // is counted once, and only those the caller keeps are kept.
  VarTable vars;
  const VarId x = vars.declare("x", range_domain(0, 3));
  StepMover count;
  count.next = ex::land(ex::lt(ex::var(x), ex::integer(3)),
                        ex::eq(ex::primed_var(x), ex::add(ex::var(x), ex::integer(1))));
  count.sub = {x};
  const ConjunctionSuccessors steps(vars, {count}, {});
  obs::ScopedSink sink;
  for (std::int64_t v = 0; v <= 3; ++v) {
    steps.for_each_successor(State({Value::integer(v)}),
                             [&](const State& t) { return t[x].as_int() != 2; });
  }
  const obs::Snapshot snap = sink.take();
  EXPECT_EQ(snap.counter(obs::Counter::CandidatesGenerated), 3u);
  EXPECT_EQ(snap.counter(obs::Counter::CandidatesKept), 2u);
  EXPECT_DOUBLE_EQ(snap.waste_ratio(), 1.5);
}

TEST_F(ObsTest, OpenMetricsCarriesMemorySeries) {
  obs::set_enabled(true);
  obs::MemTally tally(obs::MemDomain::StateStore);
  tally.add(2048);
  obs::gauge_max(obs::Gauge::PeakGraphStates, 2);
  const std::string text = obs::render_openmetrics(obs::snapshot());
  EXPECT_NE(text.find("opentla_mem_live_bytes{domain=\"state_store\"} 2048\n"),
            std::string::npos);
  EXPECT_NE(text.find("opentla_mem_peak_bytes{domain=\"state_store\"} 2048\n"),
            std::string::npos);
  EXPECT_NE(text.find("opentla_mem_tracked_peak_bytes 2048\n"), std::string::npos);
  EXPECT_NE(text.find("opentla_bytes_per_state 1024\n"), std::string::npos);
  tally.release();
}

// Exploring a real space fills the instrumented domains, and the
// per-domain attribution sums to the tracked total (both maintained by
// the same alloc/free calls, so this is an internal-consistency pin).
TEST_F(ObsTest, ExplorationPopulatesMemoryDomains) {
  if (!obs::compile_time_enabled()) {
    GTEST_SKIP() << "engine instrumentation compiled out (-DOPENTLA_OBS=OFF)";
  }
  obs::set_enabled(true);
  VarTable vars;
  const VarId x = vars.declare("x", range_domain(0, 63));
  const Expr next =
      ex::lor(ex::land(ex::lt(ex::var(x), ex::integer(63)),
                       ex::eq(ex::primed_var(x), ex::add(ex::var(x), ex::integer(1)))),
              ex::land(ex::eq(ex::var(x), ex::integer(63)),
                       ex::eq(ex::primed_var(x), ex::integer(0))));
  ActionSuccessors gen(vars, next);
  const StateGraph::SuccessorFn succ =
      [&gen](const State& s, const std::function<void(const State&)>& emit) {
        gen.for_each_successor(s, emit);
      };
  StateGraph g(vars, {State({Value::integer(0)})}, succ);
  obs::Snapshot snap = obs::snapshot();
  EXPECT_GT(snap.mem_domain(obs::MemDomain::StateStore).live_bytes, 0u);
  EXPECT_GT(snap.mem_domain(obs::MemDomain::StateGraph).live_bytes, 0u);
  EXPECT_GT(snap.mem_domain(obs::MemDomain::Frontier).peak_bytes, 0u);
  std::uint64_t domain_live = 0;
  for (std::size_t d = 0; d < obs::kNumMemDomains; ++d) {
    domain_live += snap.mem[d].live_bytes;
  }
  EXPECT_EQ(domain_live, snap.mem_tracked_live_bytes);
  EXPECT_GT(snap.bytes_per_state(), 0u);
}

// --- obs v4: sampling profiler ---

TEST_F(ObsTest, RenderFoldedEmitsOneLinePerStack) {
  const std::vector<obs::FoldedStack> stacks = {{"a;b", 3}, {"a", 7}};
  EXPECT_EQ(obs::render_folded(stacks), "a;b 3\na 7\n");
}

TEST_F(ObsTest, FoldedFromSpansBuildsAncestorChains) {
  obs::Snapshot snap;
  // explore (100..150) with child intern (110..130): self 30 vs 20.
  snap.spans.push_back({"explore", 1, 0, 1, 100, 50});
  snap.spans.push_back({"intern", 2, 1, 1, 110, 20});
  const std::vector<obs::FoldedStack> stacks = obs::folded_from_spans(snap);
  ASSERT_EQ(stacks.size(), 2u);
  EXPECT_EQ(stacks[0].stack, "explore");
  EXPECT_EQ(stacks[0].count, 30u);
  EXPECT_EQ(stacks[1].stack, "explore;intern");
  EXPECT_EQ(stacks[1].count, 20u);
}

TEST_F(ObsTest, FoldedFromSpansFallsBackToOccurrenceCounts) {
  obs::Snapshot snap;
  snap.spans.push_back({"instant", 1, 0, 1, 100, 0});  // 0 us self time
  const std::vector<obs::FoldedStack> stacks = obs::folded_from_spans(snap);
  ASSERT_EQ(stacks.size(), 1u);
  EXPECT_EQ(stacks[0].stack, "instant");
  EXPECT_EQ(stacks[0].count, 1u);  // renders even when all spans round to 0
}

TEST_F(ObsTest, ProfileRowsSortBySelfTimeAndClampChildren) {
  obs::Snapshot snap;
  snap.spans.push_back({"outer", 1, 0, 1, 0, 100});
  snap.spans.push_back({"inner", 2, 1, 1, 10, 80});
  snap.spans.push_back({"inner", 3, 1, 1, 200, 5});  // second call, parent outer
  const std::vector<obs::ProfileRow> rows = obs::profile_rows(snap);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "inner");
  EXPECT_EQ(rows[0].count, 2u);
  EXPECT_EQ(rows[0].total_us, 85u);
  EXPECT_EQ(rows[0].self_us, 85u);
  EXPECT_EQ(rows[1].name, "outer");
  EXPECT_EQ(rows[1].total_us, 100u);
  EXPECT_EQ(rows[1].self_us, 15u);  // 100 - (80 + 5)
  const std::string table = obs::render_profile_table(rows, 1);
  EXPECT_NE(table.find("profile (top 1 spans by self time)"), std::string::npos);
  EXPECT_NE(table.find("inner"), std::string::npos);
  EXPECT_EQ(table.find("outer"), std::string::npos);  // cut by top_n
}

TEST_F(ObsTest, SamplingProfilerObservesOpenSpans) {
  if (!obs::compile_time_enabled()) {
    GTEST_SKIP() << "span instrumentation compiled out (-DOPENTLA_OBS=OFF)";
  }
  obs::set_enabled(true);
  obs::SamplingProfiler profiler(1000.0);
  {
    OPENTLA_OBS_SPAN("profiled.work");
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  profiler.stop();
  EXPECT_GT(profiler.samples(), 0u);
  const std::vector<obs::FoldedStack> stacks = profiler.folded();
  bool saw = false;
  for (const obs::FoldedStack& s : stacks) {
    if (s.stack.find("profiled.work") != std::string::npos) saw = true;
  }
  EXPECT_TRUE(saw) << "sampler never observed the 30ms span";
}

TEST_F(ObsTest, SamplingProfilerStopIsIdempotent) {
  obs::set_enabled(true);
  obs::SamplingProfiler profiler(100.0);
  profiler.stop();
  profiler.stop();
  EXPECT_GE(profiler.samples(), 1u);  // the final stop-time sample
}

}  // namespace
}  // namespace opentla

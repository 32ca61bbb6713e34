#include "opentla/obs/obs.hpp"

#include "opentla/obs/memory.hpp"
#include "opentla/obs/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <unordered_map>

namespace opentla::obs {

const char* name(Counter c) {
  switch (c) {
    case Counter::StatesGenerated: return "states_generated";
    case Counter::SuccessorsEnumerated: return "successors_enumerated";
    case Counter::EnabledEvaluations: return "enabled_evaluations";
    case Counter::ConfigsExpanded: return "configs_expanded";
    case Counter::SccPasses: return "scc_passes";
    case Counter::LassoCandidates: return "lasso_candidates";
    case Counter::InclusionPairs: return "inclusion_pairs";
    case Counter::ProductNodes: return "product_nodes";
    case Counter::ProductSteps: return "product_steps";
    case Counter::FreezeSteps: return "freeze_steps";
    case Counter::RefinementEdgesChecked: return "refinement_edges_checked";
    case Counter::OracleEvaluations: return "oracle_evaluations";
    case Counter::BehaviorsChecked: return "behaviors_checked";
    case Counter::ParStatesExpanded: return "par_states_expanded";
    case Counter::ParSteals: return "par_steals";
    case Counter::ParShardContention: return "par_shard_contention";
    case Counter::CompletionsPruned: return "completions_pruned";
    case Counter::ResidualEarlyCuts: return "residual_early_cuts";
    case Counter::AnalysisPairsIndependent: return "analysis_pairs_independent";
    case Counter::AnalysisPairsDependent: return "analysis_pairs_dependent";
    case Counter::BudgetStops: return "budget_stops";
    case Counter::VmProgramsCompiled: return "vm_programs_compiled";
    case Counter::VmInstrsExecuted: return "vm_instrs_executed";
    case Counter::FingerprintCollisions: return "fingerprint_collisions";
    case Counter::SpillSegments: return "spill_segments";
    case Counter::CompositeFilterChecks: return "composite_filter_checks";
    case Counter::CandidatesGenerated: return "candidates_generated";
    case Counter::CandidatesKept: return "candidates_kept";
    case Counter::kCount: break;
  }
  return "?";
}

const char* name(Gauge g) {
  switch (g) {
    case Gauge::PeakConfigurationCount: return "peak_configuration_count";
    case Gauge::PeakGraphStates: return "peak_graph_states";
    case Gauge::PeakProductNodes: return "peak_product_nodes";
    case Gauge::PeakParWorkers: return "peak_par_workers";
    case Gauge::PeakRssBytes: return "peak_rss_bytes";
    case Gauge::kCount: break;
  }
  return "?";
}

const char* name(Level l) {
  switch (l) {
    case Level::FrontierSize: return "frontier_size";
    case Level::kCount: break;
  }
  return "?";
}

const char* name(LabeledCounter f) {
  switch (f) {
    case LabeledCounter::ActionFired: return "action_fired";
    case LabeledCounter::ActionEnabled: return "action_enabled";
    case LabeledCounter::kCount: break;
  }
  return "?";
}

const char* label_key(LabeledCounter f) {
  switch (f) {
    case LabeledCounter::ActionFired:
    case LabeledCounter::ActionEnabled: return "action";
    case LabeledCounter::kCount: break;
  }
  return "label";
}

const char* name(Histogram h) {
  switch (h) {
    case Histogram::SuccessorFanout: return "successor_fanout";
    case Histogram::ParWorkerExpansions: return "par_worker_expansions";
    case Histogram::ShardProbeLength: return "shard_probe_length";
    case Histogram::LassoWalkLength: return "lasso_walk_length";
    case Histogram::kCount: break;
  }
  return "?";
}

namespace detail {

Bank g_bank;
std::atomic<bool> g_enabled{false};

namespace {

// Completed spans, appended under a mutex. Bounded so pathological runs
// (a span per benchmark iteration) cannot exhaust memory; overflow is
// counted and reported by every renderer.
constexpr std::size_t kMaxSpans = 1u << 17;
constexpr std::size_t kMaxPhases = 1u << 14;

std::mutex g_span_mutex;
std::vector<SpanRecord> g_spans;
std::uint64_t g_spans_dropped = 0;
std::vector<PhaseEvent> g_phases;

std::atomic<std::uint32_t> g_next_span_id{1};
std::atomic<std::uint32_t> g_next_tid{1};

thread_local std::uint32_t t_current_span = 0;  // innermost open span, 0 = none
thread_local std::uint32_t t_tid = 0;

// Labels: id 0 is the overflow bucket; real labels start at 1. The table
// is written only under the mutex (interning is a setup-time operation).
std::mutex g_label_mutex;
std::vector<std::string> g_labels = {"_other"};
std::unordered_map<std::string, LabelId> g_label_ids;

// Live ScopedSinks: gauge_max feeds each one its scope-local high-water.
std::mutex g_sink_mutex;
std::vector<ScopedSink*> g_sinks;

std::uint32_t thread_tid() {
  if (t_tid == 0) t_tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return t_tid;
}

}  // namespace

void gauge_max_slow(std::size_t g, std::uint64_t v) {
  auto bump = [v](std::atomic<std::uint64_t>& cell) {
    std::uint64_t cur = cell.load(std::memory_order_relaxed);
    while (v > cur && !cell.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  };
  bump(g_bank.gauges[g]);
  std::lock_guard<std::mutex> lock(g_sink_mutex);
  for (ScopedSink* sink : g_sinks) bump(sink->local_gauges_[g]);
}

}  // namespace detail

std::uint64_t now_us() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        std::chrono::steady_clock::now() - epoch)
                                        .count());
}

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

LabelId intern_label(const std::string& label) {
  std::lock_guard<std::mutex> lock(detail::g_label_mutex);
  auto it = detail::g_label_ids.find(label);
  if (it != detail::g_label_ids.end()) return it->second;
  if (detail::g_labels.size() >= kMaxLabels) return kLabelOverflow;
  const LabelId id = static_cast<LabelId>(detail::g_labels.size());
  detail::g_labels.push_back(label);
  detail::g_label_ids.emplace(label, id);
  return id;
}

void phase_event(std::string phase_name) {
  PhaseEvent ev;
  ev.phase = std::move(phase_name);
  ev.ts_us = now_us();
  std::lock_guard<std::mutex> lock(detail::g_span_mutex);
  if (detail::g_phases.size() < detail::kMaxPhases) detail::g_phases.push_back(std::move(ev));
}

void Span::open(std::string span_name) {
  active_ = true;
  name_ = std::move(span_name);
  id_ = detail::g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = detail::t_current_span;
  detail::t_current_span = id_;
  detail::profiler_push_frame(detail::profiler_intern_name(name_));
  start_us_ = now_us();
}

void Span::close() {
  const std::uint64_t end_us = now_us();
  detail::profiler_pop_frame();
  detail::t_current_span = parent_;
  SpanRecord rec;
  rec.name = std::move(name_);
  rec.id = id_;
  rec.parent = parent_;
  rec.tid = detail::thread_tid();
  rec.start_us = start_us_;
  rec.dur_us = end_us - start_us_;
  std::lock_guard<std::mutex> lock(detail::g_span_mutex);
  if (detail::g_spans.size() < detail::kMaxSpans) {
    detail::g_spans.push_back(std::move(rec));
  } else {
    ++detail::g_spans_dropped;
  }
}

Snapshot snapshot() {
  Snapshot snap;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    snap.counters[i] = detail::g_bank.counters[i].load(std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    snap.gauges[i] = detail::g_bank.gauges[i].load(std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kNumLevels; ++i) {
    snap.levels[i] = detail::g_bank.levels[i].load(std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(detail::g_label_mutex);
    snap.labels = detail::g_labels;
  }
  for (std::size_t f = 0; f < kNumLabeledCounters; ++f) {
    snap.labeled[f].resize(snap.labels.size());
    for (std::size_t l = 0; l < snap.labels.size(); ++l) {
      snap.labeled[f][l] = detail::g_bank.labeled[f][l].load(std::memory_order_relaxed);
    }
  }
  for (std::size_t h = 0; h < kNumHistograms; ++h) {
    std::uint64_t count = 0;
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      snap.hists[h].buckets[b] =
          detail::g_bank.hist_buckets[h][b].load(std::memory_order_relaxed);
      count += snap.hists[h].buckets[b];
    }
    snap.hists[h].sum = detail::g_bank.hist_sums[h].load(std::memory_order_relaxed);
    snap.hists[h].count = count;
  }
  auto clamp0 = [](std::int64_t v) {
    return v > 0 ? static_cast<std::uint64_t>(v) : 0u;
  };
  for (std::size_t d = 0; d < kNumMemDomains; ++d) {
    const detail::MemCells& cells = detail::g_mem_bank.domains[d];
    MemDomainSnapshot& ms = snap.mem[d];
    ms.live_bytes = clamp0(cells.live.load(std::memory_order_relaxed));
    ms.peak_bytes = clamp0(cells.peak.load(std::memory_order_relaxed));
    ms.allocs = cells.allocs.load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      ms.alloc_size_buckets[b] = cells.size_buckets[b].load(std::memory_order_relaxed);
    }
    ms.alloc_size_sum = cells.size_sum.load(std::memory_order_relaxed);
  }
  snap.mem_tracked_live_bytes =
      clamp0(detail::g_mem_bank.tracked_live.load(std::memory_order_relaxed));
  snap.mem_tracked_peak_bytes =
      clamp0(detail::g_mem_bank.tracked_peak.load(std::memory_order_relaxed));
  std::lock_guard<std::mutex> lock(detail::g_span_mutex);
  snap.spans = detail::g_spans;
  snap.spans_dropped = detail::g_spans_dropped;
  snap.phases = detail::g_phases;
  return snap;
}

void reset() {
  for (auto& c : detail::g_bank.counters) c.store(0, std::memory_order_relaxed);
  for (auto& g : detail::g_bank.gauges) g.store(0, std::memory_order_relaxed);
  for (auto& l : detail::g_bank.levels) l.store(0, std::memory_order_relaxed);
  for (auto& fam : detail::g_bank.labeled) {
    for (auto& cell : fam) cell.store(0, std::memory_order_relaxed);
  }
  for (auto& hist : detail::g_bank.hist_buckets) {
    for (auto& cell : hist) cell.store(0, std::memory_order_relaxed);
  }
  for (auto& s : detail::g_bank.hist_sums) s.store(0, std::memory_order_relaxed);
  for (auto& cells : detail::g_mem_bank.domains) {
    cells.live.store(0, std::memory_order_relaxed);
    cells.peak.store(0, std::memory_order_relaxed);
    cells.allocs.store(0, std::memory_order_relaxed);
    for (auto& b : cells.size_buckets) b.store(0, std::memory_order_relaxed);
    cells.size_sum.store(0, std::memory_order_relaxed);
  }
  detail::g_mem_bank.tracked_live.store(0, std::memory_order_relaxed);
  detail::g_mem_bank.tracked_peak.store(0, std::memory_order_relaxed);
  detail::profiler_reset();
  {
    std::lock_guard<std::mutex> lock(detail::g_label_mutex);
    detail::g_labels = {"_other"};
    detail::g_label_ids.clear();
  }
  std::lock_guard<std::mutex> lock(detail::g_span_mutex);
  detail::g_spans.clear();
  detail::g_spans_dropped = 0;
  detail::g_phases.clear();
}

std::uint64_t Snapshot::labeled_value(LabeledCounter f, const std::string& label) const {
  for (std::size_t l = 0; l < labels.size(); ++l) {
    if (labels[l] == label) return labeled[static_cast<std::size_t>(f)][l];
  }
  return 0;
}

ScopedSink::ScopedSink() : prev_enabled_(enabled()) {
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    base_counters_[i] = detail::g_bank.counters[i].load(std::memory_order_relaxed);
  }
  for (std::size_t f = 0; f < kNumLabeledCounters; ++f) {
    for (std::size_t l = 0; l < kMaxLabels; ++l) {
      base_labeled_[f][l] = detail::g_bank.labeled[f][l].load(std::memory_order_relaxed);
    }
  }
  for (std::size_t h = 0; h < kNumHistograms; ++h) {
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      base_hist_buckets_[h][b] =
          detail::g_bank.hist_buckets[h][b].load(std::memory_order_relaxed);
    }
    base_hist_sums_[h] = detail::g_bank.hist_sums[h].load(std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(detail::g_span_mutex);
    base_spans_ = detail::g_spans.size();
    base_phases_ = detail::g_phases.size();
  }
  {
    std::lock_guard<std::mutex> lock(detail::g_sink_mutex);
    detail::g_sinks.push_back(this);
  }
  set_enabled(true);
}

ScopedSink::~ScopedSink() {
  {
    std::lock_guard<std::mutex> lock(detail::g_sink_mutex);
    detail::g_sinks.erase(
        std::remove(detail::g_sinks.begin(), detail::g_sinks.end(), this),
        detail::g_sinks.end());
  }
  set_enabled(prev_enabled_);
}

Snapshot ScopedSink::take() const {
  Snapshot snap = snapshot();
  for (std::size_t i = 0; i < kNumCounters; ++i) snap.counters[i] -= base_counters_[i];
  // Gauges: the scope-local high-water this sink accumulated, not the
  // process-lifetime peak (a peak set before the scope opened is stale).
  for (std::size_t g = 0; g < kNumGauges; ++g) {
    snap.gauges[g] = local_gauges_[g].load(std::memory_order_relaxed);
  }
  for (std::size_t f = 0; f < kNumLabeledCounters; ++f) {
    for (std::size_t l = 0; l < snap.labeled[f].size(); ++l) {
      snap.labeled[f][l] -= base_labeled_[f][l];
    }
  }
  for (std::size_t h = 0; h < kNumHistograms; ++h) {
    std::uint64_t count = 0;
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      snap.hists[h].buckets[b] -= base_hist_buckets_[h][b];
      count += snap.hists[h].buckets[b];
    }
    snap.hists[h].sum -= base_hist_sums_[h];
    snap.hists[h].count = count;
  }
  snap.spans.erase(snap.spans.begin(),
                   snap.spans.begin() + static_cast<std::ptrdiff_t>(
                                            std::min(base_spans_, snap.spans.size())));
  snap.phases.erase(snap.phases.begin(),
                    snap.phases.begin() + static_cast<std::ptrdiff_t>(
                                              std::min(base_phases_, snap.phases.size())));
  return snap;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string render_human(const Snapshot& snap) {
  std::ostringstream out;
  out << "opentla::obs stats\n";
  out << "  counters:\n";
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    char line[96];
    std::snprintf(line, sizeof line, "    %-26s %12llu\n", name(static_cast<Counter>(i)),
                  static_cast<unsigned long long>(snap.counters[i]));
    out << line;
  }
  out << "  gauges:\n";
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    char line[96];
    std::snprintf(line, sizeof line, "    %-26s %12llu\n", name(static_cast<Gauge>(i)),
                  static_cast<unsigned long long>(snap.gauges[i]));
    out << line;
  }
  // Labeled counters: only interned labels with activity in some family.
  bool labeled_header = false;
  for (std::size_t f = 0; f < kNumLabeledCounters; ++f) {
    for (std::size_t l = 0; l < snap.labeled[f].size(); ++l) {
      if (snap.labeled[f][l] == 0) continue;
      if (!labeled_header) {
        out << "  labeled counters:\n";
        labeled_header = true;
      }
      char line[160];
      std::snprintf(line, sizeof line, "    %s{%s=\"%s\"} %llu\n",
                    name(static_cast<LabeledCounter>(f)),
                    label_key(static_cast<LabeledCounter>(f)), snap.labels[l].c_str(),
                    static_cast<unsigned long long>(snap.labeled[f][l]));
      out << line;
    }
  }
  // Histograms: count/sum plus the nonzero buckets.
  for (std::size_t h = 0; h < kNumHistograms; ++h) {
    const HistogramSnapshot& hist = snap.hists[h];
    if (hist.count == 0) continue;
    char line[160];
    std::snprintf(line, sizeof line, "  histogram %s: count=%llu sum=%llu\n",
                  name(static_cast<Histogram>(h)),
                  static_cast<unsigned long long>(hist.count),
                  static_cast<unsigned long long>(hist.sum));
    out << line;
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      if (hist.buckets[b] == 0) continue;
      if (b + 1 == kHistBuckets) {
        std::snprintf(line, sizeof line, "    le=+Inf %12llu\n",
                      static_cast<unsigned long long>(hist.buckets[b]));
      } else {
        std::snprintf(line, sizeof line, "    le=%-5llu %12llu\n",
                      static_cast<unsigned long long>(hist_bucket_le(b)),
                      static_cast<unsigned long long>(hist.buckets[b]));
      }
      out << line;
    }
  }
  const std::uint64_t kept = snap.counter(Counter::CandidatesKept);
  if (kept > 0) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "  waste_ratio %.3f (candidates_generated %llu / candidates_kept %llu)\n",
                  snap.waste_ratio(),
                  static_cast<unsigned long long>(snap.counter(Counter::CandidatesGenerated)),
                  static_cast<unsigned long long>(kept));
    out << line;
  }
  // Memory: tracked domains with any activity, then the headline totals.
  bool mem_header = false;
  for (std::size_t d = 0; d < kNumMemDomains; ++d) {
    const MemDomainSnapshot& ms = snap.mem[d];
    if (ms.peak_bytes == 0 && ms.allocs == 0) continue;
    if (!mem_header) {
      out << "  memory (tracked bytes by domain):\n";
      mem_header = true;
    }
    char line[160];
    std::snprintf(line, sizeof line,
                  "    %-14s live %12llu  peak %12llu  allocs %9llu\n",
                  name(static_cast<MemDomain>(d)),
                  static_cast<unsigned long long>(ms.live_bytes),
                  static_cast<unsigned long long>(ms.peak_bytes),
                  static_cast<unsigned long long>(ms.allocs));
    out << line;
  }
  if (mem_header) {
    char line[160];
    std::snprintf(line, sizeof line, "    %-26s %12llu\n", "tracked_peak_bytes",
                  static_cast<unsigned long long>(snap.mem_tracked_peak_bytes));
    out << line;
    std::snprintf(line, sizeof line, "    %-26s %12llu\n", "bytes_per_state",
                  static_cast<unsigned long long>(snap.bytes_per_state()));
    out << line;
  }
  if (!snap.phases.empty()) {
    out << "  phases:\n";
    for (const PhaseEvent& p : snap.phases) {
      char line[160];
      std::snprintf(line, sizeof line, "    %-26s at %12.3f ms\n", p.phase.c_str(),
                    static_cast<double>(p.ts_us) / 1000.0);
      out << line;
    }
  }
  if (!snap.spans.empty()) {
    // Aggregate by name, preserving first-appearance order.
    struct Agg {
      std::uint64_t count = 0;
      std::uint64_t total_us = 0;
    };
    std::vector<std::pair<std::string, Agg>> aggs;
    for (const SpanRecord& s : snap.spans) {
      auto it = std::find_if(aggs.begin(), aggs.end(),
                             [&](const auto& a) { return a.first == s.name; });
      if (it == aggs.end()) {
        aggs.push_back({s.name, {}});
        it = aggs.end() - 1;
      }
      ++it->second.count;
      it->second.total_us += s.dur_us;
    }
    out << "  spans (aggregated):\n";
    for (const auto& [span_name, agg] : aggs) {
      char line[160];
      std::snprintf(line, sizeof line, "    %-26s %8llu x %12.3f ms\n", span_name.c_str(),
                    static_cast<unsigned long long>(agg.count),
                    static_cast<double>(agg.total_us) / 1000.0);
      out << line;
    }
  }
  if (snap.spans_dropped > 0) {
    out << "  (" << snap.spans_dropped << " spans dropped past the recording cap)\n";
  }
  return out.str();
}

namespace {

// The snapshot's totals as JSON object members, without the braces: every
// instrument up to and including "memory", but no phase events or spans.
// render_json and write_bench_json both emit exactly these.
void write_json_totals(std::ostream& out, const Snapshot& snap) {
  out << "  \"counters\": {";
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    if (i > 0) out << ",";
    out << "\n    \"" << name(static_cast<Counter>(i)) << "\": " << snap.counters[i];
  }
  out << "\n  },\n  \"gauges\": {";
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    if (i > 0) out << ",";
    out << "\n    \"" << name(static_cast<Gauge>(i)) << "\": " << snap.gauges[i];
  }
  out << "\n  },\n  \"levels\": {";
  for (std::size_t i = 0; i < kNumLevels; ++i) {
    if (i > 0) out << ",";
    out << "\n    \"" << name(static_cast<Level>(i)) << "\": " << snap.levels[i];
  }
  out << "\n  },\n  \"labeled\": {";
  for (std::size_t f = 0; f < kNumLabeledCounters; ++f) {
    if (f > 0) out << ",";
    out << "\n    \"" << name(static_cast<LabeledCounter>(f)) << "\": {";
    bool first = true;
    for (std::size_t l = 0; l < snap.labeled[f].size(); ++l) {
      if (snap.labeled[f][l] == 0) continue;
      if (!first) out << ",";
      first = false;
      out << "\n      \"" << json_escape(snap.labels[l]) << "\": " << snap.labeled[f][l];
    }
    out << (first ? "}" : "\n    }");
  }
  out << "\n  },\n  \"histograms\": {";
  for (std::size_t h = 0; h < kNumHistograms; ++h) {
    if (h > 0) out << ",";
    const HistogramSnapshot& hist = snap.hists[h];
    out << "\n    \"" << name(static_cast<Histogram>(h)) << "\": {\"buckets\": [";
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      if (b > 0) out << ", ";
      out << hist.buckets[b];
    }
    out << "], \"sum\": " << hist.sum << ", \"count\": " << hist.count << "}";
  }
  out << "\n  },\n  \"waste_ratio\": " << snap.waste_ratio();
  out << ",\n  \"memory\": {\n    \"domains\": {";
  for (std::size_t d = 0; d < kNumMemDomains; ++d) {
    if (d > 0) out << ",";
    const MemDomainSnapshot& ms = snap.mem[d];
    out << "\n      \"" << name(static_cast<MemDomain>(d))
        << "\": {\"live_bytes\": " << ms.live_bytes
        << ", \"peak_bytes\": " << ms.peak_bytes << ", \"allocs\": " << ms.allocs
        << ", \"alloc_size\": {\"buckets\": [";
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      if (b > 0) out << ", ";
      out << ms.alloc_size_buckets[b];
    }
    out << "], \"sum\": " << ms.alloc_size_sum << ", \"count\": " << ms.allocs
        << "}}";
  }
  out << "\n    },\n    \"tracked_live_bytes\": " << snap.mem_tracked_live_bytes
      << ",\n    \"tracked_peak_bytes\": " << snap.mem_tracked_peak_bytes
      << ",\n    \"bytes_per_state\": " << snap.bytes_per_state() << "\n  }";
}

}  // namespace

std::string render_json(const Snapshot& snap) {
  std::ostringstream out;
  out << "{\n";
  write_json_totals(out, snap);
  out << ",\n  \"phases\": [";
  for (std::size_t i = 0; i < snap.phases.size(); ++i) {
    if (i > 0) out << ",";
    out << "\n    {\"phase\": \"" << json_escape(snap.phases[i].phase)
        << "\", \"ts_us\": " << snap.phases[i].ts_us << "}";
  }
  if (!snap.phases.empty()) out << "\n  ";
  out << "],\n  \"spans_dropped\": " << snap.spans_dropped;
  out << ",\n  \"spans\": [";
  for (std::size_t i = 0; i < snap.spans.size(); ++i) {
    const SpanRecord& s = snap.spans[i];
    if (i > 0) out << ",";
    out << "\n    {\"name\": \"" << json_escape(s.name) << "\", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"tid\": " << s.tid
        << ", \"ts_us\": " << s.start_us << ", \"dur_us\": " << s.dur_us << "}";
  }
  if (!snap.spans.empty()) out << "\n  ";
  out << "]\n}\n";
  return out.str();
}

std::string render_chrome_trace(const Snapshot& snap) {
  std::ostringstream out;
  out << "{\"traceEvents\": [\n";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  sep();
  out << "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
         "\"args\": {\"name\": \"opentla\"}}";
  std::uint64_t last_ts = 0;
  for (const SpanRecord& s : snap.spans) {
    last_ts = std::max(last_ts, s.start_us + s.dur_us);
    sep();
    out << "  {\"name\": \"" << json_escape(s.name) << "\", \"cat\": \"opentla\", "
        << "\"ph\": \"X\", \"ts\": " << s.start_us << ", \"dur\": " << s.dur_us
        << ", \"pid\": 1, \"tid\": " << s.tid << ", \"args\": {\"id\": " << s.id
        << ", \"parent\": " << s.parent << "}}";
  }
  for (const PhaseEvent& p : snap.phases) {
    last_ts = std::max(last_ts, p.ts_us);
    sep();
    out << "  {\"name\": \"" << json_escape(p.phase) << "\", \"cat\": \"phase\", "
        << "\"ph\": \"I\", \"ts\": " << p.ts_us << ", \"pid\": 1, \"tid\": 1, "
        << "\"s\": \"p\"}";
  }
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    if (snap.counters[i] == 0) continue;
    sep();
    out << "  {\"name\": \"" << name(static_cast<Counter>(i)) << "\", \"ph\": \"C\", "
        << "\"ts\": " << last_ts << ", \"pid\": 1, \"args\": {\"value\": "
        << snap.counters[i] << "}}";
  }
  // Memory gauges on the same timeline: one counter track per active
  // domain (live + peak series) plus the headline bytes_per_state.
  for (std::size_t d = 0; d < kNumMemDomains; ++d) {
    const MemDomainSnapshot& ms = snap.mem[d];
    if (ms.peak_bytes == 0 && ms.allocs == 0) continue;
    sep();
    out << "  {\"name\": \"mem_" << name(static_cast<MemDomain>(d))
        << "\", \"ph\": \"C\", \"ts\": " << last_ts
        << ", \"pid\": 1, \"args\": {\"live_bytes\": " << ms.live_bytes
        << ", \"peak_bytes\": " << ms.peak_bytes << "}}";
  }
  if (snap.mem_tracked_peak_bytes > 0) {
    sep();
    out << "  {\"name\": \"mem_tracked\", \"ph\": \"C\", \"ts\": " << last_ts
        << ", \"pid\": 1, \"args\": {\"peak_bytes\": " << snap.mem_tracked_peak_bytes
        << ", \"bytes_per_state\": " << snap.bytes_per_state() << "}}";
  }
  if (snap.spans_dropped > 0) {
    sep();
    out << "  {\"name\": \"spans_dropped\", \"ph\": \"M\", \"pid\": 1, "
        << "\"args\": {\"value\": " << snap.spans_dropped << "}}";
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out.str();
}

std::string write_bench_json(const std::string& bench_name, const Snapshot& snap) {
  const std::string path = "BENCH_" + bench_name + ".json";
  std::ofstream out(path);
  if (!out) return "";
  out << "{\n  \"schema\": \"opentla-bench-v4\",\n  \"bench\": \"" << json_escape(bench_name)
      << "\",\n";
  write_json_totals(out, snap);
  out << "\n}\n";
  return out ? path : "";
}

}  // namespace opentla::obs

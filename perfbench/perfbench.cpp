// perfbench — time to a verdict on the paper's own artifacts.
//
// One process issues one workload's verdicts in a closed loop (one client:
// each verdict starts after the previous one returns) and checks every
// verdict against its known answer. README.md lists the workloads, the
// metrics and which layer should move which number.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--perturb KEY]
//
// --trace 0 times iterations with obs collection off, rescales the times
// to a reference host speed (see "host speed" below) and reports the
// end-to-end metrics. --trace 1 alternates an untraced iteration with a
// traced one (spans around every call into a layer, obs counters on) plus
// the traced-only replicas, and reports the per-layer metrics. The last
// line on stdout is the result object; --perturb KEY adds one to the
// expected value of the named count, which must make the gate fail.

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "opentla/abp/abp.hpp"
#include "opentla/ag/composition_theorem.hpp"
#include "opentla/check/invariant.hpp"
#include "opentla/check/refinement.hpp"
#include "opentla/compose/compose.hpp"
#include "opentla/graph/scc.hpp"
#include "opentla/obs/obs.hpp"
#include "opentla/queue/double_queue.hpp"
#include "opentla/queue/queue_spec.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#ifndef PERFBENCH_SANITIZED
#define PERFBENCH_SANITIZED 0
#endif

using namespace opentla;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU of the whole process (every thread).
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// The resident high-water mark (VmHWM), in MiB.
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// --- host speed -----------------------------------------------------------
//
// The benchmark shares its host's cores with other tenants, and the speed
// of a core drifts by 20 % and more, within seconds and over minutes; wall
// time drifts with it. On the untraced path a sampler thread, pinned to the
// main thread's CPU, runs a fixed reference kernel every 50 ms while the
// main thread works, and each timed stretch is rescaled to the speed at
// which the kernel takes kReferenceKernelS, using the samples taken during
// the stretch.

/// About the reference kernel's median time on the host this benchmark was
/// calibrated on (4 vCPUs, GCC 12.2, RelWithDebInfo). Rescaled times are
/// that host's seconds; the value only sets the scale.
constexpr double kReferenceKernelS = 2.9e-3;

/// CPU seconds of the calling thread.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

volatile std::uint64_t kernel_sink;

/// Fixed work in the verifier's style (hash-table inserts and lookups with
/// heap-allocated values, then a sort) that calls no opentla code, so no
/// change to the library can make it faster. Returns the CPU seconds it
/// took on the calling thread, which leaves out any time it was preempted.
double reference_kernel_s() {
  const double t0 = thread_cpu_seconds();
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> table;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL, acc = 0;
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x & 8191].push_back(static_cast<std::uint32_t>(x >> 32));
    acc += table.count(x >> 51);
  }
  std::vector<std::uint32_t> all;
  for (const auto& [key, values] : table) all.insert(all.end(), values.begin(), values.end());
  std::sort(all.begin(), all.end());
  kernel_sink = acc + all[all.size() / 2];
  return thread_cpu_seconds() - t0;
}

void pin_calling_thread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// Samples the speed of the main thread's CPU while the main thread works.
/// Pins the calling (main) thread and the sampler to the CPU the caller is
/// on; the destructor stops the sampler and waits for it.
class SpeedSampler {
 public:
  SpeedSampler() : cpu_(std::max(0, sched_getcpu())) {
    pin_calling_thread(cpu_);
    thread_ = std::thread([this] { run(); });
  }
  ~SpeedSampler() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    thread_.join();
  }
  SpeedSampler(const SpeedSampler&) = delete;
  SpeedSampler& operator=(const SpeedSampler&) = delete;

  /// A stretch that began at `start` and ends now: the factor that rescales
  /// its times to the reference speed, and the CPU seconds the sampler took
  /// from it. Waits for the stretch's first sample if it has none yet.
  struct Stretch {
    double factor;
    double sampler_s;
  };
  Stretch close(Clock::time_point start) {
    std::unique_lock<std::mutex> lock(mu_);
    const auto in = [&](const Sample& s) { return s.end > start; };
    wake_.wait(lock, [&] { return !samples_.empty() && in(samples_.back()); });
    std::vector<double> runs;
    double taken = 0;
    for (auto it = samples_.rbegin(); it != samples_.rend() && in(*it); ++it) {
      runs.push_back(it->seconds);
      taken += it->seconds;
    }
    const double factor = kReferenceKernelS / median(runs);
    factors_.push_back(factor);
    return {factor, taken};
  }

  /// The median factor over every stretch so far.
  double median_factor() const { return median(factors_); }

 private:
  struct Sample {
    Clock::time_point end;
    double seconds;
  };

  void run() {
    pin_calling_thread(cpu_);
    std::unique_lock<std::mutex> lock(mu_);
    while (!wake_.wait_for(lock, std::chrono::milliseconds(50), [&] { return stop_; })) {
      lock.unlock();
      const double seconds = reference_kernel_s();
      const auto end = Clock::now();
      lock.lock();
      samples_.push_back({end, seconds});
      wake_.notify_all();
    }
  }

  int cpu_;
  std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::vector<Sample> samples_;
  std::vector<double> factors_;
  std::thread thread_;
};

std::string num(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", x);
  return buf;
}

// --- correctness gate -------------------------------------------------

/// Every verdict is checked against its known answer. A mismatch, an
/// exception or an inconclusive result makes the verdict wrong.
class Gate {
 public:
  explicit Gate(std::string perturb) : perturb_(std::move(perturb)) {}

  class Verdict {
   public:
    explicit Verdict(Gate& gate) : gate_(gate) {}
    void expect(bool ok, const std::string& what) {
      if (!ok) errors_.push_back(what);
    }
    void expect_count(const std::string& key, std::uint64_t actual, std::uint64_t expected) {
      if (key == gate_.perturb_) {
        ++expected;
        gate_.perturb_used_ = true;
      }
      if (actual != expected) {
        errors_.push_back(key + " = " + std::to_string(actual) + ", expected " +
                          std::to_string(expected));
      }
    }

   private:
    friend class Gate;
    Gate& gate_;
    std::vector<std::string> errors_;
  };

  template <class Body>
  void verdict(const std::string& name, Body&& body) {
    ++attempted_;
    Verdict v(*this);
    try {
      body(v);
    } catch (const std::exception& e) {
      v.errors_.push_back(std::string("threw: ") + e.what());
    }
    if (v.errors_.empty()) return;
    ++failed_;
    if (failed_ <= 5) {
      std::cerr << "wrong verdict " << name << ":";
      for (const std::string& e : v.errors_) std::cerr << " [" << e << "]";
      std::cerr << "\n";
    }
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool perturb_unused() const { return !perturb_.empty() && !perturb_used_; }

 private:
  std::string perturb_;
  bool perturb_used_ = false;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --- tracing ------------------------------------------------------------

/// One span. Bench spans are recorded here around calls into a layer and
/// carry the obs counter delta of their interval; library spans are the
/// obs spans the engine recorded meanwhile, adopted when the root closes.
struct SpanRec {
  std::string name;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  std::uint32_t tid = 0;     // obs thread id
  std::uint64_t start_us = 0;
  std::uint64_t end_us = 0;
  bool library = false;
  obs::Snapshot counters;  // bench spans only

  double seconds() const { return static_cast<double>(end_us - start_us) * 1e-6; }
};

/// Spans kept in memory; written out when the run ends.
class Trace {
 public:
  explicit Trace(std::uint32_t main_tid) : main_tid_(main_tid) {}

  /// RAII bench span; a no-op on a null trace (the untraced path). A root
  /// span starts from a zeroed obs registry, so its memory peaks are its own.
  class Scope {
   public:
    Scope(Trace* trace, const char* name) : trace_(trace) {
      if (trace_ == nullptr) return;
      if (trace_->open_.empty()) obs::reset();
      index_ = trace_->spans_.size();
      SpanRec rec;
      rec.name = name;
      rec.id = ++trace_->last_id_;
      rec.parent = trace_->open_.empty() ? 0 : trace_->spans_[trace_->open_.back()].id;
      rec.tid = trace_->main_tid_;
      trace_->spans_.push_back(std::move(rec));
      trace_->open_.push_back(index_);
      sink_.emplace();
      trace_->spans_[index_].start_us = obs::now_us();
    }
    ~Scope() {
      if (trace_ == nullptr) return;
      SpanRec& rec = trace_->spans_[index_];
      rec.end_us = obs::now_us();
      rec.counters = sink_->take();
      sink_.reset();
      trace_->open_.pop_back();
      if (trace_->open_.empty()) trace_->adopt_library_spans(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace* trace_;
    std::size_t index_ = 0;
    std::optional<obs::ScopedSink> sink_;
  };

  const std::vector<SpanRec>& spans() const { return spans_; }

  /// Total seconds of the bench spans called `name`.
  double total(const std::string& name) const {
    double s = 0;
    for (const SpanRec& r : spans_) {
      if (!r.library && r.name == name) s += r.seconds();
    }
    return s;
  }
  /// The obs delta of the last bench span called `name`, if any.
  const obs::Snapshot* counters(const std::string& name) const {
    for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
      if (!it->library && it->name == name) return &it->counters;
    }
    return nullptr;
  }

  /// Self seconds of every span on the main thread: its duration minus its
  /// main-thread children's (worker-thread spans overlap and are left out).
  std::vector<double> self_seconds() const {
    std::map<std::uint32_t, std::size_t> at;
    for (std::size_t i = 0; i < spans_.size(); ++i) at[spans_[i].id] = i;
    std::vector<double> self(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].tid == main_tid_) self[i] += spans_[i].seconds();
    }
    for (const SpanRec& r : spans_) {
      if (r.tid != main_tid_ || r.parent == 0) continue;
      self[at.at(r.parent)] -= r.seconds();
    }
    for (double& s : self) s = std::max(0.0, s);
    return self;
  }

 private:
  /// Adopts the engine's own obs spans recorded under the root at
  /// `root`: obs parents map through, and an obs root hangs under the
  /// innermost bench span that encloses it.
  void adopt_library_spans(std::size_t root) {
    const std::size_t bench_end = spans_.size();
    const std::vector<obs::SpanRecord> lib = spans_[root].counters.spans;
    std::map<std::uint32_t, std::uint32_t> ids;
    for (const obs::SpanRecord& l : lib) ids[l.id] = ++last_id_;
    for (const obs::SpanRecord& l : lib) {
      SpanRec rec;
      rec.name = l.name;
      rec.id = ids.at(l.id);
      rec.tid = l.tid;
      rec.start_us = l.start_us;
      rec.end_us = l.start_us + l.dur_us;
      rec.library = true;
      const auto parent = ids.find(l.parent);
      if (l.parent != 0 && parent != ids.end()) {
        rec.parent = parent->second;
      } else {
        std::size_t best = root;
        for (std::size_t i = root; i < bench_end; ++i) {
          const SpanRec& b = spans_[i];
          if (b.start_us <= rec.start_us && rec.end_us <= b.end_us &&
              b.start_us >= spans_[best].start_us) {
            best = i;
          }
        }
        rec.parent = spans_[best].id;
      }
      spans_.push_back(std::move(rec));
    }
  }

  std::uint32_t main_tid_;
  std::uint32_t last_id_ = 0;
  std::vector<SpanRec> spans_;
  std::vector<std::size_t> open_;
};

/// The layer a span belongs to: bench spans are named "<layer>.<call>";
/// engine spans by the module that records them.
std::string layer_of(const SpanRec& s) {
  if (!s.library) return s.name.substr(0, s.name.find('.'));
  auto starts = [&](const char* p) { return s.name.rfind(p, 0) == 0; };
  if (starts("fig9:") || starts("prop3:")) return "ag";
  if (starts("ConstraintExplorer.") || starts("check_")) return "check";
  if (starts("StateGraph.") || starts("find_fair_cycle")) return "graph";
  if (starts("par.")) return "par";
  return "other";
}

/// One traced iteration plus the traced-only work beside it.
struct Round {
  explicit Round(std::uint32_t main_tid) : trace(main_tid) {}
  Trace trace;
  /// Metrics a workload reports directly (e.g. obligation times).
  std::map<std::string, double> values;
};

Trace* trace_of(Round* round) { return round == nullptr ? nullptr : &round->trace; }

// --- workloads ------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the systems and everything else the verdicts need.
  virtual void setup() = 0;
  /// One closed-loop iteration of the workload's verdicts. `round` is null
  /// on the untraced path.
  virtual void iterate(Gate& gate, Round* round) = 0;
  /// Traced-only work off the timed path: replicas and cross-checks.
  virtual void extras(Gate& gate, Round& round) = 0;
};

/// Worker threads of the traced-only parallel build. The timed path runs
/// serially: at this thread count the Figure 6 build's wall time and RSS
/// spread by about 10 % from run to run.
unsigned parallel_threads() { return std::min(4u, online_cpus()); }

std::uint64_t detail_count(const Obligation& ob, const std::string& label) {
  const std::size_t at = ob.detail.find(label + ": ");
  if (at == std::string::npos) {
    throw std::runtime_error(ob.id + " reports no '" + label + "'");
  }
  return std::stoull(ob.detail.substr(at + label.size() + 2));
}

const Obligation* find_obligation(const ProofReport& r, const std::string& id) {
  for (const Obligation& ob : r.obligations) {
    if (ob.id == id) return &ob;
  }
  return nullptr;
}

void expect_conclusive(Gate::Verdict& v, const ProofReport& r) {
  for (const Obligation& ob : r.obligations) {
    v.expect(!ob.inconclusive, ob.id + " inconclusive");
  }
}

/// Figure 9 at N = 2 with 2 values: verify_composition proves formula (4)
/// with G among the components and refutes formula (3) without it.
class Fig9Proof final : public Workload {
 public:
  static constexpr std::uint64_t kNodes = 3574;            // H1 / H2a products, H2b states
  static constexpr std::uint64_t kH2bEdges = 12310;        // H2b low graph, with G
  static constexpr std::uint64_t kRefuteH2bEdges = 13486;  // H2b low graph, without G

  void setup() override {
    sys_.emplace(make_double_queue(/*capacity=*/2, /*num_values=*/2));
    with_g_ = sys_->components();
    without_g_ = {{sys_->qe1, sys_->qm1}, {sys_->qe2, sys_->qm2}};
    goal_ = sys_->goal();
    opts_ = CompositionOptions{};
    opts_.goal_witness = {{"q", sys_->qbar}};
  }

  void iterate(Gate& gate, Round* round) override {
    Trace* trace = trace_of(round);
    gate.verdict("fig9.proof", [&](Gate::Verdict& v) {
      ProofReport r;
      {
        Trace::Scope span(trace, "ag.proof");
        r = verify_composition(sys_->vars, with_g_, goal_, opts_);
      }
      v.expect(r.all_discharged(), "formula (4) not proved");
      expect_conclusive(v, r);
      const Obligation* h2a = find_obligation(r, "H2a");
      const Obligation* h2b = find_obligation(r, "H2b");
      v.expect(h2a != nullptr && h2b != nullptr, "H2a or H2b missing");
      if (h2a == nullptr || h2b == nullptr) return;
      for (const Obligation& ob : r.obligations) {
        if (ob.id.rfind("H1[", 0) == 0 && ob.method == "product-inclusion") {
          v.expect_count("fig9.proof.h1_nodes", detail_count(ob, "product nodes"), kNodes);
        }
      }
      v.expect_count("fig9.proof.h2a_nodes", detail_count(*h2a, "product nodes"), kNodes);
      v.expect_count("fig9.proof.h2b_states", detail_count(*h2b, "low states"), kNodes);
      v.expect_count("fig9.proof.h2b_edges", detail_count(*h2b, "edges"), kH2bEdges);
      if (round != nullptr) record_obligations(r, *round);
    });
    gate.verdict("fig9.refutation", [&](Gate::Verdict& v) {
      ProofReport r;
      {
        Trace::Scope span(trace, "ag.refute");
        r = verify_composition(sys_->vars, without_g_, goal_, opts_);
      }
      v.expect(!r.all_discharged(), "formula (3) proved without G");
      expect_conclusive(v, r);
      const Obligation* h1 = find_obligation(r, "H1[" + sys_->qe1.name + "]");
      v.expect(h1 != nullptr && !h1->discharged, "H1[QE^1] did not fail");
      // H1's failure settles the verdict; H2b's low graph is pinned only
      // when the verifier still evaluates it.
      const Obligation* h2b = find_obligation(r, "H2b");
      if (h2b != nullptr && h2b->detail.find("edges: ") != std::string::npos) {
        v.expect_count("fig9.refute.h2b_edges", detail_count(*h2b, "edges"), kRefuteH2bEdges);
      }
    });
  }

  /// Replica of the proof's H2b, built and checked through the public
  /// entry points so compose/ and check/refinement can be timed apart.
  void extras(Gate& gate, Round& round) override {
    Trace* trace = &round.trace;
    gate.verdict("fig9.h2b_replica", [&](Gate::Verdict& v) {
      std::vector<CompositePart> parts;
      parts.emplace_back(goal_.assumption, /*is_mover=*/true);
      std::vector<Fairness> low_fairness = goal_.assumption.fairness;
      for (const AGSpec& c : with_g_) {
        parts.emplace_back(c.guarantee.unhidden(), c.guarantee_is_mover);
        low_fairness.insert(low_fairness.end(), c.guarantee.fairness.begin(),
                            c.guarantee.fairness.end());
      }
      parts.emplace_back(make_pin(sys_->vars, {sys_->q}, "PinUnconstrained"),
                         /*is_mover=*/false);
      // verify_composition keeps every hidden variable at its value when a
      // mover's action leaves it unconstrained; pinning them graph-wide
      // generates the same candidates.
      const std::vector<VarId> pinned = {sys_->q1, sys_->q2, sys_->q};
      const StateGraph low = [&] {
        Trace::Scope span(trace, "compose.build");
        return build_composite_graph(sys_->vars, parts, {}, pinned, ExploreOptions{});
      }();
      v.expect_count("fig9.replica.states", low.num_states(), kNodes);
      v.expect_count("fig9.replica.edges", low.num_edges(), kH2bEdges);
      const RefinementMapping mapping =
          mapping_by_name(sys_->vars, sys_->vars, opts_.goal_witness);
      {
        Trace::Scope span(trace, "check.refinement");
        v.expect(check_refinement(low, low_fairness, goal_.guarantee, mapping).holds,
                 "replica refinement failed");
      }
      Trace::Scope span(trace, "graph.scc_pass");
      v.expect(!strongly_connected_components(low, low.initial(), {}).empty(), "no SCC");
    });
  }

 private:
  static void record_obligations(const ProofReport& r, Round& round) {
    double h1 = 0, h2a = 0, h2b = 0, all = 0;
    for (const Obligation& ob : r.obligations) {
      const double s = ob.millis * 1e-3;
      all += s;
      if (ob.id.rfind("H1[", 0) == 0) h1 += s;
      if (ob.id == "H2a") h2a += s;
      if (ob.id == "H2b") h2b += s;
    }
    round.values["ag.obligation_s.H1"] = h1;
    round.values["ag.obligation_s.H2a"] = h2a;
    round.values["ag.obligation_s.H2b"] = h2b;
    round.values["ag.obligation_sum_s"] = all;
    round.values["check.inclusion_s"] = h1 + h2a;
  }

  std::optional<DoubleQueueSystem> sys_;
  std::vector<AGSpec> with_g_, without_g_;
  AGSpec goal_;
  CompositionOptions opts_;
};

/// The alternating-bit protocol with 2 values: build its graph, prove the
/// 2-place queue with SF, refute it with WF only.
class AbpLiveness final : public Workload {
 public:
  static constexpr std::uint64_t kStates = 1226;
  static constexpr std::uint64_t kEdges = 5274;

  void setup() override {
    sys_.emplace(make_abp_system(/*num_values=*/2));
    parts_ = {{sys_->system, true}, {make_pin(sys_->vars, {sys_->q}, "PinQ"), false}};
    mapping_.emplace(mapping_by_name(sys_->vars, sys_->vars, {{"q", sys_->qbar}}));
    weak_ = sys_->system_with_weak_fairness_only();
  }

  void iterate(Gate& gate, Round* round) override {
    Trace* trace = trace_of(round);
    std::optional<StateGraph> g;
    gate.verdict("abp.sf_proof", [&](Gate::Verdict& v) {
      {
        Trace::Scope span(trace, "compose.build");
        g.emplace(build());
      }
      v.expect(g->stop_reason() == run::StopReason::kCompleted, "graph incomplete");
      v.expect_count("abp.graph_states", g->num_states(), kStates);
      v.expect_count("abp.graph_edges", g->num_edges(), kEdges);
      Trace::Scope span(trace, "check.refinement.sf");
      const RefinementResult r =
          check_refinement(*g, sys_->system.fairness, sys_->queue.queue, *mapping_);
      v.expect(r.holds, "refinement with SF failed: " + r.failed_part);
    });
    gate.verdict("abp.wf_refutation", [&](Gate::Verdict& v) {
      if (!g) throw std::runtime_error("no graph");
      Trace::Scope span(trace, "check.refinement.wf");
      const RefinementResult r =
          check_refinement(*g, weak_.fairness, sys_->queue.queue, *mapping_);
      v.expect(!r.holds, "refinement held with WF only");
      v.expect(!r.counterexample_cycle.empty(), "refutation has no lasso");
      v.expect(r.failed_part != "init" && r.failed_part != "step",
               "refuted on safety (" + r.failed_part + ")");
    });
  }

  /// One timed SCC pass over the full graph: the reference cost per pass.
  void extras(Gate& gate, Round& round) override {
    gate.verdict("abp.scc_pass", [&](Gate::Verdict& v) {
      const StateGraph g = build();
      Trace::Scope span(&round.trace, "graph.scc_pass");
      v.expect(!strongly_connected_components(g, g.initial(), {}).empty(), "no SCC");
    });
  }

 private:
  StateGraph build() const {
    return build_composite_graph(sys_->vars, parts_, /*free_tuples=*/{}, /*pinned=*/{sys_->q});
  }

  std::optional<AbpSystem> sys_;
  std::vector<CompositePart> parts_;
  std::optional<RefinementMapping> mapping_;
  CanonicalSpec weak_;
};

/// The Figure 6 complete queue at N = 6 with 3 values: one single-mover
/// exploration, then |q| <= 6 holds and |q| < 6 fails with a trace.
class CqExplore final : public Workload {
 public:
  static constexpr int kCapacity = 6;
  static constexpr std::uint64_t kStates = 52470;
  static constexpr std::uint64_t kEdges = 157380;
  static constexpr std::uint64_t kTraceStates = 13;  // shortest path to |q| = 6

  void setup() override {
    sys_.emplace(make_queue_system(kCapacity, /*num_values=*/3));
    parts_ = {{sys_->specs.complete.unhidden(), true}};
    const Expr len = ex::len(ex::var(sys_->q));
    bound_ = ex::le(len, ex::integer(kCapacity));
    strict_bound_ = ex::lt(len, ex::integer(kCapacity));
  }

  void iterate(Gate& gate, Round* round) override {
    Trace* trace = trace_of(round);
    std::optional<StateGraph> g;
    gate.verdict("cq.bound_holds", [&](Gate::Verdict& v) {
      {
        Trace::Scope span(trace, "compose.build");
        g.emplace(build(1));
      }
      v.expect(g->stop_reason() == run::StopReason::kCompleted, "graph incomplete");
      v.expect_count("cq.graph_states", g->num_states(), kStates);
      v.expect_count("cq.graph_edges", g->num_edges(), kEdges);
      Trace::Scope span(trace, "check.invariant");
      const InvariantResult r = check_invariant(*g, bound_);
      v.expect(r.holds && r.stop_reason == run::StopReason::kCompleted, "|q| <= N violated");
    });
    gate.verdict("cq.strict_bound_fails", [&](Gate::Verdict& v) {
      if (!g) throw std::runtime_error("no graph");
      Trace::Scope span(trace, "check.invariant");
      const InvariantResult r = check_invariant(*g, strict_bound_);
      v.expect(!r.holds, "|q| < N held");
      v.expect_count("cq.trace_states", r.counterexample.size(), kTraceStates);
    });
  }

  /// A serial and a parallel build side by side: the speedup, the par/
  /// counters, and the check that both graphs are identical.
  void extras(Gate& gate, Round& round) override {
    Trace* trace = &round.trace;
    gate.verdict("cq.parallel_identical", [&](Gate::Verdict& v) {
      const StateGraph serial = [&] {
        Trace::Scope span(trace, "par.serial_build");
        return build(1);
      }();
      const StateGraph parallel = [&] {
        Trace::Scope span(trace, "par.parallel_build");
        return build(parallel_threads());
      }();
      bool same = serial.num_states() == parallel.num_states() &&
                  serial.num_edges() == parallel.num_edges() &&
                  serial.initial() == parallel.initial();
      for (StateId s = 0; same && s < serial.num_states(); ++s) {
        same = serial.state(s) == parallel.state(s) &&
               serial.successors(s) == parallel.successors(s);
      }
      v.expect(same, "parallel graph differs from the serial one");
    });
  }

 private:
  StateGraph build(unsigned threads) const {
    ExploreOptions opts;
    opts.threads = threads;
    return build_composite_graph(sys_->vars, parts_, {}, {}, opts);
  }

  std::optional<QueueSystem> sys_;
  std::vector<CompositePart> parts_;
  Expr bound_, strict_bound_;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "fig9_proof") return std::make_unique<Fig9Proof>();
  if (name == "abp_liveness") return std::make_unique<AbpLiveness>();
  if (name == "cq_explore") return std::make_unique<CqExplore>();
  return nullptr;
}

// --- metrics --------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The per-layer metrics, in BENCHMARK.json order. A layer the workload
/// does not exercise reads 0.
constexpr MetricDef kLayerMetrics[] = {
    {"ag.proof_s", "s"},
    {"ag.refute_s", "s"},
    {"ag.obligation_s.H1", "s"},
    {"ag.obligation_s.H2a", "s"},
    {"ag.obligation_s.H2b", "s"},
    {"ag.obligation_sum_s", "s"},
    {"compose.build_s", "s"},
    {"compose.candidates", "count"},
    {"compose.edges", "count"},
    {"compose.waste_ratio", "ratio"},
    {"graph.completions_pruned", "count"},
    {"graph.residual_early_cuts", "count"},
    {"graph.enabled_evals", "count"},
    {"vm.instrs", "count"},
    {"vm.programs_compiled", "count"},
    {"state.interned", "count"},
    {"state.probe_len_mean", "probes"},
    {"state.bytes_per_state", "bytes"},
    {"state.store_peak_bytes", "bytes"},
    {"state.states_per_s", "1/s"},
    {"par.serial_build_s", "s"},
    {"par.parallel_build_s", "s"},
    {"par.speedup", "ratio"},
    {"par.states_expanded", "count"},
    {"par.steals", "count"},
    {"par.shard_contention", "count"},
    {"automata.configs_expanded", "count"},
    {"automata.product_steps", "count"},
    {"automata.freeze_steps", "count"},
    {"automata.peak_config", "count"},
    {"check.inclusion_s", "s"},
    {"check.inclusion.product_nodes", "count"},
    {"check.inclusion.pairs", "count"},
    {"check.refinement_s", "s"},
    {"check.refinement_s.sf", "s"},
    {"check.refinement_s.wf", "s"},
    {"check.refinement.edges_checked", "count"},
    {"graph.scc_passes", "count"},
    {"graph.lasso_candidates", "count"},
    {"graph.scc_pass_s", "s"},
    {"check.invariant_s", "s"},
    {"trace.overhead_frac", "ratio"},
    {"self_s.bench", "s"},
    {"self_s.ag", "s"},
    {"self_s.compose", "s"},
    {"self_s.check", "s"},
    {"self_s.graph", "s"},
    {"self_s.par", "s"},
};

/// The per-layer metrics of one round.
std::map<std::string, double> layer_metrics(const Round& round) {
  using obs::Counter;
  std::map<std::string, double> m = round.values;
  const Trace& t = round.trace;
  m["ag.proof_s"] = t.total("ag.proof");
  m["ag.refute_s"] = t.total("ag.refute");
  m["compose.build_s"] = t.total("compose.build");
  m["check.refinement_s.sf"] = t.total("check.refinement.sf");
  m["check.refinement_s.wf"] = t.total("check.refinement.wf");
  m["check.refinement_s"] = t.total("check.refinement") + m["check.refinement_s.sf"] +
                            m["check.refinement_s.wf"];
  m["check.invariant_s"] = t.total("check.invariant");
  m["graph.scc_pass_s"] = t.total("graph.scc_pass");
  m["par.serial_build_s"] = t.total("par.serial_build");
  m["par.parallel_build_s"] = t.total("par.parallel_build");
  m["par.speedup"] = ratio(m["par.serial_build_s"], m["par.parallel_build_s"]);

  // Work the verdicts did: everything under the traced iteration.
  if (const obs::Snapshot* it = t.counters("bench.iteration")) {
    auto c = [&](Counter k) { return static_cast<double>(it->counter(k)); };
    m["graph.completions_pruned"] = c(Counter::CompletionsPruned);
    m["graph.residual_early_cuts"] = c(Counter::ResidualEarlyCuts);
    m["graph.enabled_evals"] = c(Counter::EnabledEvaluations);
    m["vm.instrs"] = c(Counter::VmInstrsExecuted);
    m["vm.programs_compiled"] = c(Counter::VmProgramsCompiled);
    m["automata.configs_expanded"] = c(Counter::ConfigsExpanded);
    m["automata.product_steps"] = c(Counter::ProductSteps);
    m["automata.freeze_steps"] = c(Counter::FreezeSteps);
    m["automata.peak_config"] =
        static_cast<double>(it->gauge(obs::Gauge::PeakConfigurationCount));
    m["check.inclusion.product_nodes"] = c(Counter::ProductNodes);
    m["check.inclusion.pairs"] = c(Counter::InclusionPairs);
    m["check.refinement.edges_checked"] = c(Counter::RefinementEdgesChecked);
    m["graph.scc_passes"] = c(Counter::SccPasses);
    m["graph.lasso_candidates"] = c(Counter::LassoCandidates);
  }
  // One composite build: candidates, the store, bytes per state.
  if (const obs::Snapshot* b = t.counters("compose.build")) {
    const obs::HistogramSnapshot& fanout = b->hist(obs::Histogram::SuccessorFanout);
    const obs::HistogramSnapshot& probes = b->hist(obs::Histogram::ShardProbeLength);
    const double interned = static_cast<double>(b->counter(Counter::StatesGenerated));
    m["compose.candidates"] = static_cast<double>(b->counter(Counter::SuccessorsEnumerated));
    m["compose.edges"] = static_cast<double>(fanout.sum);
    m["compose.waste_ratio"] = ratio(m["compose.candidates"], m["compose.edges"]);
    m["state.interned"] = interned;
    m["state.probe_len_mean"] =
        ratio(static_cast<double>(probes.sum), static_cast<double>(probes.count));
    m["state.bytes_per_state"] = static_cast<double>(b->bytes_per_state());
    m["state.store_peak_bytes"] =
        static_cast<double>(b->mem_domain(obs::MemDomain::StateStore).peak_bytes);
    m["state.states_per_s"] = ratio(interned, m["compose.build_s"]);
  }
  if (const obs::Snapshot* p = t.counters("par.parallel_build")) {
    m["par.states_expanded"] = static_cast<double>(p->counter(Counter::ParStatesExpanded));
    m["par.steals"] = static_cast<double>(p->counter(Counter::ParSteals));
    m["par.shard_contention"] = static_cast<double>(p->counter(Counter::ParShardContention));
  }
  const std::vector<double> self = t.self_seconds();
  for (std::size_t i = 0; i < t.spans().size(); ++i) {
    m["self_s." + layer_of(t.spans()[i])] += self[i];
  }
  return m;
}

/// Set-up takes about 0.1 ms, so it is repeated for a quarter of a second,
/// in batches of ten between two runs of the reference kernel that rescale
/// the batch's median; the median over the batches is returned. The last
/// set-up is kept.
double timed_setup_s(Workload& wl) {
  std::vector<double> batches;
  double before = reference_kernel_s();
  const auto t_start = Clock::now();
  while (batches.size() < 11 || seconds_since(t_start) < 0.25) {
    std::vector<double> runs;
    for (int i = 0; i < 10; ++i) {
      const auto t0 = Clock::now();
      wl.setup();
      runs.push_back(seconds_since(t0));
    }
    const double after = reference_kernel_s();
    batches.push_back(median(runs) * kReferenceKernelS / (0.5 * (before + after)));
    before = after;
  }
  return median(batches);
}

// --- driver ---------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string perturb;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload fig9_proof|abp_liveness|cq_explore --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] [--perturb KEY]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") a.workload = value;
      else if (flag == "--seed") a.seed = std::stoull(value);
      else if (flag == "--seconds") a.seconds = std::stod(value);
      else if (flag == "--trace") a.trace = std::stoi(value) != 0;
      else if (flag == "--trace-out") a.trace_out = value;
      else if (flag == "--perturb") a.perturb = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

std::string meta_json(const Args& a) {
  std::ostringstream os;
  os << "{\"workload\": \"" << obs::json_escape(a.workload) << "\", \"seed\": " << a.seed
     << ", \"inputs_depend_on_seed\": false, \"trace\": " << (a.trace ? 1 : 0)
     << ", \"seconds\": " << num(a.seconds) << ", \"threads\": 1"
     << ", \"times_rescaled\": " << (a.trace ? "false" : "true")
     << ", \"reference_kernel_s\": " << num(kReferenceKernelS)
     << ", \"traced_parallel_threads\": " << parallel_threads()
     << ", \"nproc\": " << online_cpus() << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"compiler\": \"" << obs::json_escape(PERFBENCH_COMPILER)
     << "\", \"obs_compiled\": " << (obs::compile_time_enabled() ? "true" : "false")
     << ", \"load\": \"closed loop, 1 client\"}";
  return os.str();
}

/// Timings of sanitizer or unoptimized builds say nothing about speed.
void refuse_invalid_build() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  bool optimized = true;
#ifndef __OPTIMIZE__
  optimized = false;
#endif
  if (PERFBENCH_SANITIZED || !optimized || type == "Debug") {
    std::cerr << "perfbench: refusing to measure a " << (PERFBENCH_SANITIZED ? "sanitizer" : type)
              << " build; configure with -DCMAKE_BUILD_TYPE=RelWithDebInfo or Release\n";
    std::exit(2);
  }
}

/// The engine's obs thread id of this (the main) thread.
std::uint32_t main_obs_tid() {
  obs::ScopedSink sink;
  { obs::Span probe("perfbench.main"); }
  const std::vector<obs::SpanRecord> spans = sink.take().spans;
  return spans.empty() ? 0 : spans.front().tid;
}

void write_trace(const std::string& path, const std::string& meta,
                 const std::vector<Round>& rounds) {
  std::ofstream out(path);
  out << "{\"meta\": " << meta << ",\n \"rounds\": [";
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const Trace& t = rounds[r].trace;
    const std::vector<double> self = t.self_seconds();
    out << (r == 0 ? "" : ",") << "\n  {\"spans\": [";
    for (std::size_t i = 0; i < t.spans().size(); ++i) {
      const SpanRec& s = t.spans()[i];
      out << (i == 0 ? "" : ",") << "\n   {\"name\": \"" << obs::json_escape(s.name)
          << "\", \"layer\": \"" << layer_of(s) << "\", \"source\": \""
          << (s.library ? "obs" : "bench") << "\", \"id\": " << s.id
          << ", \"parent\": " << s.parent << ", \"tid\": " << s.tid
          << ", \"start_us\": " << s.start_us << ", \"end_us\": " << s.end_us
          << ", \"self_us\": " << num(self[i] * 1e6) << "}";
    }
    out << "]}";
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("cannot write trace to " + path);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  refuse_invalid_build();
  std::unique_ptr<Workload> wl = make_workload(args.workload);
  if (!wl) usage("unknown workload " + args.workload);
  const std::string meta = meta_json(args);
  std::cout << "{\"meta\": " << meta << "}\n";

  Gate gate(args.perturb);
  obs::set_enabled(false);

  const double setup_s = timed_setup_s(*wl);

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  const auto t_run = Clock::now();
  if (!args.trace) {
    // Each iteration's times leave out the sampler's and are rescaled to
    // the reference speed.
    SpeedSampler sampler;
    std::vector<double> raw_wall, wall, cpu;
    do {
      const double c0 = cpu_seconds();
      const auto t0 = Clock::now();
      wl->iterate(gate, nullptr);
      const double stretch_s = seconds_since(t0);
      const double stretch_cpu_s = cpu_seconds() - c0;
      const SpeedSampler::Stretch st = sampler.close(t0);
      const double w = stretch_s - st.sampler_s;
      const double c = stretch_cpu_s - st.sampler_s;
      raw_wall.push_back(w);
      wall.push_back(w * st.factor);
      cpu.push_back(c * st.factor);
    } while (seconds_since(t_run) < args.seconds);
    metrics = {{"verdict_s", {median(wall), "s"}},
               {"cpu_s", {median(cpu), "s"}},
               {"peak_rss_mib", {peak_rss_mib(), "MiB"}},
               {"setup_s", {setup_s, "s"}}};
    std::cout << "iterations " << wall.size() << ", unscaled verdict_s median "
              << num(median(raw_wall)) << " min "
              << num(*std::min_element(raw_wall.begin(), raw_wall.end())) << " max "
              << num(*std::max_element(raw_wall.begin(), raw_wall.end()))
              << "; median speed factor " << num(sampler.median_factor()) << "\n";
  } else {
    const std::uint32_t main_tid = main_obs_tid();
    std::vector<Round> rounds;
    std::vector<double> untraced, traced;
    do {
      const auto t0 = Clock::now();
      wl->iterate(gate, nullptr);
      untraced.push_back(seconds_since(t0));
      Round& round = rounds.emplace_back(main_tid);
      {
        Trace::Scope root(&round.trace, "bench.iteration");
        wl->iterate(gate, &round);
      }
      traced.push_back(round.trace.total("bench.iteration"));
      {
        Trace::Scope root(&round.trace, "bench.extras");
        wl->extras(gate, round);
      }
    } while (seconds_since(t_run) < args.seconds);

    std::map<std::string, std::vector<double>> samples;
    for (const Round& round : rounds) {
      for (const auto& [name, value] : layer_metrics(round)) samples[name].push_back(value);
    }
    samples["trace.overhead_frac"] = {median(traced) / median(untraced) - 1.0};
    for (const MetricDef& def : kLayerMetrics) {
      metrics.push_back({def.name, {median(samples[def.name]), def.unit}});
    }
    std::cout << "rounds " << rounds.size() << "\n";
    if (!args.trace_out.empty()) write_trace(args.trace_out, meta, rounds);
  }
  if (gate.perturb_unused()) usage("--perturb " + args.perturb + " names no checked count");

  const double wrong =
      ratio(static_cast<double>(gate.failed()), static_cast<double>(gate.attempted()));
  std::cout << "wrong_verdict_frac " << num(wrong) << " ratio (" << gate.failed() << " of "
            << gate.attempted() << " verdicts)\n";
  for (const auto& [name, value] : metrics) {
    std::cout << "  " << name << " " << num(value.first) << " " << value.second << "\n";
  }
  std::ostringstream os;
  os << "{\"correct\": " << (gate.failed() == 0 ? "true" : "false")
     << ", \"attempted\": " << gate.attempted() << ", \"failed\": " << gate.failed()
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "\"" << metrics[i].first << "\": {\"value\": "
       << num(metrics[i].second.first) << ", \"unit\": \"" << metrics[i].second.second
       << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
  return 0;
}

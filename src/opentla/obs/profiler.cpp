#include "opentla/obs/profiler.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <sstream>
#include <unordered_map>

namespace opentla::obs {

namespace detail {

namespace {

// One per thread, heap-allocated and registered once, never freed: a
// sampler may still be walking the registry while a worker thread exits.
// RAII spans guarantee depth returns to 0 before thread exit, so a dead
// thread's stack simply samples as empty.
struct ThreadSpanStack {
  std::atomic<std::uint32_t> depth{0};
  std::array<std::atomic<std::uint32_t>, kMaxSpanDepth> frames{};
};

// The registry is heap-allocated and never destroyed, so it and every
// stack it holds stay reachable for the whole process: spans can still
// open during static destruction, and a leak checker run at exit sees
// live pointers rather than a destroyed vector's lost blocks.
struct StackRegistry {
  std::mutex mutex;
  std::vector<ThreadSpanStack*> stacks;
};

StackRegistry& stack_registry() {
  static StackRegistry* const registry = new StackRegistry();
  return *registry;
}

ThreadSpanStack* thread_stack() {
  thread_local ThreadSpanStack* stack = [] {
    auto* s = new ThreadSpanStack();
    StackRegistry& reg = stack_registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.stacks.push_back(s);
    return s;
  }();
  return stack;
}

// Name table: id 0 is the overflow bucket, real names start at 1.
// Interning takes a mutex but runs once per Span::open — spans mark
// algorithm phases, not per-state events.
std::mutex g_name_mutex;
std::vector<std::string> g_names = {"_other"};
std::unordered_map<std::string, std::uint32_t> g_name_ids;

}  // namespace

std::uint32_t profiler_intern_name(const std::string& span_name) {
  std::lock_guard<std::mutex> lock(g_name_mutex);
  auto it = g_name_ids.find(span_name);
  if (it != g_name_ids.end()) return it->second;
  if (g_names.size() >= kMaxSpanNames) return 0;
  const auto id = static_cast<std::uint32_t>(g_names.size());
  g_names.push_back(span_name);
  g_name_ids.emplace(span_name, id);
  return id;
}

void profiler_push_frame(std::uint32_t name_id) {
  ThreadSpanStack* s = thread_stack();
  const std::uint32_t d = s->depth.load(std::memory_order_relaxed);
  if (d < kMaxSpanDepth) {
    s->frames[d].store(name_id, std::memory_order_relaxed);
  }
  // The release store publishes the frame written above before the new
  // depth becomes visible to the sampler's acquire load.
  s->depth.store(d + 1, std::memory_order_release);
}

void profiler_pop_frame() {
  ThreadSpanStack* s = thread_stack();
  const std::uint32_t d = s->depth.load(std::memory_order_relaxed);
  if (d > 0) s->depth.store(d - 1, std::memory_order_release);
}

std::vector<std::string> profiler_name_table() {
  std::lock_guard<std::mutex> lock(g_name_mutex);
  return g_names;
}

void profiler_reset() {
  std::lock_guard<std::mutex> lock(g_name_mutex);
  g_names = {"_other"};
  g_name_ids.clear();
}

}  // namespace detail

SamplingProfiler::SamplingProfiler(double hz) {
  const double safe_hz = hz > 0.0 ? hz : 1.0;
  period_ = std::chrono::microseconds(
      std::max<std::int64_t>(1, static_cast<std::int64_t>(1e6 / safe_hz)));
  thread_ = std::thread([this] { run(); });
}

SamplingProfiler::~SamplingProfiler() { stop(); }

void SamplingProfiler::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopping_ = true;
    stopped_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  sample_once();
}

void SamplingProfiler::run() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    cv_.wait_for(lock, period_, [this] { return stopping_; });
    if (stopping_) break;
    lock.unlock();
    sample_once();
    lock.lock();
  }
}

void SamplingProfiler::sample_once() {
  std::vector<detail::ThreadSpanStack*> stacks;
  {
    detail::StackRegistry& reg = detail::stack_registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    stacks = reg.stacks;
  }
  std::vector<std::vector<std::uint32_t>> keys;
  for (detail::ThreadSpanStack* s : stacks) {
    // Acquire pairs with the push's release: every frame below the depth
    // we read has been written with a registered name id.
    std::uint32_t d = s->depth.load(std::memory_order_acquire);
    if (d == 0) continue;
    if (d > kMaxSpanDepth) d = kMaxSpanDepth;
    std::vector<std::uint32_t> key(d);
    for (std::uint32_t i = 0; i < d; ++i) {
      key[i] = s->frames[i].load(std::memory_order_acquire);
    }
    keys.push_back(std::move(key));
  }
  std::lock_guard<std::mutex> lock(data_mu_);
  ++samples_;
  for (auto& key : keys) ++counts_[key];
}

std::uint64_t SamplingProfiler::samples() const {
  std::lock_guard<std::mutex> lock(data_mu_);
  return samples_;
}

std::vector<FoldedStack> SamplingProfiler::folded() const {
  const std::vector<std::string> names = detail::profiler_name_table();
  std::map<std::string, std::uint64_t> agg;
  {
    std::lock_guard<std::mutex> lock(data_mu_);
    for (const auto& [key, count] : counts_) {
      std::string stack;
      for (std::size_t i = 0; i < key.size(); ++i) {
        if (i > 0) stack += ';';
        stack += key[i] < names.size() ? names[key[i]] : "_other";
      }
      agg[stack] += count;
    }
  }
  std::vector<FoldedStack> out;
  out.reserve(agg.size());
  for (auto& [stack, count] : agg) out.push_back({stack, count});
  return out;
}

std::vector<FoldedStack> folded_from_spans(const Snapshot& snap) {
  // Self time per record: inclusive duration minus direct children.
  std::unordered_map<std::uint32_t, const SpanRecord*> by_id;
  std::unordered_map<std::uint32_t, std::uint64_t> child_dur;
  by_id.reserve(snap.spans.size());
  for (const SpanRecord& s : snap.spans) by_id.emplace(s.id, &s);
  for (const SpanRecord& s : snap.spans) {
    if (s.parent != 0 && by_id.count(s.parent)) child_dur[s.parent] += s.dur_us;
  }
  std::map<std::string, std::uint64_t> agg;
  std::uint64_t total_weight = 0;
  for (const SpanRecord& s : snap.spans) {
    std::string stack = s.name;
    // Ancestor chain; a parent evicted by a ScopedSink baseline (or the
    // span cap) simply truncates the chain at the oldest known span.
    for (std::uint32_t p = s.parent; p != 0;) {
      auto it = by_id.find(p);
      if (it == by_id.end()) break;
      stack = it->second->name + ";" + stack;
      p = it->second->parent;
    }
    std::uint64_t self = s.dur_us;
    auto it = child_dur.find(s.id);
    if (it != child_dur.end()) self = self > it->second ? self - it->second : 0;
    agg[stack] += self;
    total_weight += self;
  }
  if (total_weight == 0) {
    // Sub-microsecond run: weight each occurrence once so the flamegraph
    // still renders the call structure.
    agg.clear();
    for (const SpanRecord& s : snap.spans) {
      std::string stack = s.name;
      for (std::uint32_t p = s.parent; p != 0;) {
        auto it = by_id.find(p);
        if (it == by_id.end()) break;
        stack = it->second->name + ";" + stack;
        p = it->second->parent;
      }
      agg[stack] += 1;
    }
  }
  std::vector<FoldedStack> out;
  out.reserve(agg.size());
  for (auto& [stack, weight] : agg) {
    if (weight > 0) out.push_back({stack, weight});
  }
  return out;
}

std::string render_folded(const std::vector<FoldedStack>& stacks) {
  std::ostringstream out;
  for (const FoldedStack& f : stacks) {
    out << f.stack << ' ' << f.count << '\n';
  }
  return out.str();
}

std::vector<ProfileRow> profile_rows(const Snapshot& snap) {
  std::unordered_map<std::uint32_t, const SpanRecord*> by_id;
  std::unordered_map<std::uint32_t, std::uint64_t> child_dur;
  by_id.reserve(snap.spans.size());
  for (const SpanRecord& s : snap.spans) by_id.emplace(s.id, &s);
  for (const SpanRecord& s : snap.spans) {
    if (s.parent != 0 && by_id.count(s.parent)) child_dur[s.parent] += s.dur_us;
  }
  std::map<std::string, ProfileRow> agg;
  for (const SpanRecord& s : snap.spans) {
    ProfileRow& row = agg[s.name];
    row.name = s.name;
    ++row.count;
    row.total_us += s.dur_us;
    std::uint64_t self = s.dur_us;
    auto it = child_dur.find(s.id);
    if (it != child_dur.end()) self = self > it->second ? self - it->second : 0;
    row.self_us += self;
  }
  std::vector<ProfileRow> rows;
  rows.reserve(agg.size());
  for (auto& [span_name, row] : agg) rows.push_back(row);
  std::sort(rows.begin(), rows.end(), [](const ProfileRow& a, const ProfileRow& b) {
    if (a.self_us != b.self_us) return a.self_us > b.self_us;
    return a.name < b.name;
  });
  return rows;
}

std::string render_profile_table(const std::vector<ProfileRow>& rows,
                                 std::size_t top_n) {
  std::ostringstream out;
  out << "  profile (top " << std::min(top_n, rows.size())
      << " spans by self time):\n";
  out << "        self ms     total ms      count  span\n";
  for (std::size_t i = 0; i < rows.size() && i < top_n; ++i) {
    char line[192];
    std::snprintf(line, sizeof line, "    %11.3f  %11.3f  %9llu  %s\n",
                  static_cast<double>(rows[i].self_us) / 1000.0,
                  static_cast<double>(rows[i].total_us) / 1000.0,
                  static_cast<unsigned long long>(rows[i].count),
                  rows[i].name.c_str());
    out << line;
  }
  return out.str();
}

}  // namespace opentla::obs

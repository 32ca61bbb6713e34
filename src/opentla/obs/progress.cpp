#include "opentla/obs/progress.hpp"

#include "opentla/obs/memory.hpp"
#include "opentla/obs/obs.hpp"

namespace opentla::obs {

ProgressSampler::ProgressSampler(std::chrono::milliseconds period, Sink sink)
    : period_(period), sink_(std::move(sink)), start_us_(now_us()) {
  last_ts_us_ = start_us_;
  // Sample 0 fires synchronously before the thread exists, so even a run
  // that finishes inside one period still observes start + final.
  emit(make_sample());
  thread_ = std::thread([this] { run(); });
}

ProgressSampler::~ProgressSampler() { stop(); }

void ProgressSampler::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
  }
  ProgressSample s = make_sample();
  s.final_sample = true;
  emit(std::move(s));
}

ProgressSample ProgressSampler::make_sample() {
  ProgressSample s;
  s.ts_us = now_us();
  s.elapsed_us = s.ts_us - start_us_;
  s.states = detail::g_bank.counters[static_cast<std::size_t>(Counter::StatesGenerated)]
                 .load(std::memory_order_relaxed);
  s.frontier = level_get(Level::FrontierSize);
  s.rss_bytes = read_rss_bytes();
  gauge_max(Gauge::PeakRssBytes, s.rss_bytes);
  return s;
}

void ProgressSampler::emit(ProgressSample s) {
  s.seq = next_seq_++;
  const std::uint64_t dt_us = s.ts_us - last_ts_us_;
  if (dt_us > 0 && s.states >= last_states_) {
    s.states_per_sec =
        static_cast<double>(s.states - last_states_) * 1e6 / static_cast<double>(dt_us);
  }
  last_ts_us_ = s.ts_us;
  last_states_ = s.states;
  if (sink_) sink_(s);
}

void ProgressSampler::run() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (cv_.wait_for(lock, period_, [this] { return stopping_; })) return;
    // Sample outside the lock so a slow sink cannot delay stop().
    lock.unlock();
    emit(make_sample());
    lock.lock();
  }
}

}  // namespace opentla::obs

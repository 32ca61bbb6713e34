// opentla/obs/progress.hpp
//
// Live progress heartbeat: a ProgressSampler runs a background thread
// that periodically snapshots the cheap live instruments (states
// interned, frontier size, resident set size) and delivers a
// ProgressSample to a sink callback. Long `states`/`compose`/`--threads
// N` runs use it to prove liveness to the operator before they finish.
//
// Delivery guarantees: one sample is emitted synchronously from the
// constructor (seq 0), one per elapsed period from the background
// thread, and one final sample from stop() after the thread has joined —
// so every run observes at least two samples, and the sink is never
// called concurrently with itself.

#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

namespace opentla::obs {

/// One heartbeat. Timestamps are microseconds on the shared obs epoch
/// (now_us()); rates are computed over the interval since the previous
/// sample.
struct ProgressSample {
  std::uint64_t seq = 0;          // 0 = start, then 1, 2, ...; last = final
  bool final_sample = false;      // true for the sample stop() emits
  std::uint64_t ts_us = 0;        // obs epoch timestamp
  std::uint64_t elapsed_us = 0;   // since the sampler started
  std::uint64_t states = 0;       // Counter::StatesGenerated total
  std::uint64_t frontier = 0;     // Level::FrontierSize current value
  double states_per_sec = 0.0;    // over the last inter-sample interval
  std::uint64_t rss_bytes = 0;    // resident set size, 0 if unreadable
};

/// Background heartbeat thread. Construct to start sampling, call stop()
/// (or destroy) to join and emit the final sample. The sink runs on the
/// sampler thread for periodic samples and on the caller's thread for
/// the first and final ones; calls never overlap.
class ProgressSampler {
 public:
  using Sink = std::function<void(const ProgressSample&)>;

  ProgressSampler(std::chrono::milliseconds period, Sink sink);
  ~ProgressSampler();
  ProgressSampler(const ProgressSampler&) = delete;
  ProgressSampler& operator=(const ProgressSampler&) = delete;

  /// Joins the thread and emits the final sample. Idempotent.
  void stop();

 private:
  ProgressSample make_sample();
  void emit(ProgressSample s);
  void run();

  std::chrono::milliseconds period_;
  Sink sink_;
  std::uint64_t start_us_ = 0;

  // Rate state: touched only inside emit(), which is never concurrent
  // with itself (constructor emit -> thread emits -> post-join emit).
  std::uint64_t next_seq_ = 0;
  std::uint64_t last_ts_us_ = 0;
  std::uint64_t last_states_ = 0;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool stopped_ = false;
  std::thread thread_;
};

}  // namespace opentla::obs

// FPSTORE — the fingerprinted state store acceptance artifact.
//
// Compares the arena-backed fingerprint store (state.hpp) against the
// design it replaced — a std::unordered_map keyed by the full State, with
// every interned state deep-copied into both the map key and an id->State
// vector — on a synthetic 10^5-state exploration-shaped workload:
//
//   - bytes/state: the fingerprint store's tracked StateStore-domain
//     bytes vs the old store's accounting formula (2 x deep bytes +
//     sizeof(State) + 48 per state), which is what PR 9's MEMORY
//     baselines charged;
//   - intern throughput, fresh and duplicate, serial and sharded;
//   - both slot encodings: the stores encode over table(), which indexes
//     the bounded slots and escapes the unbounded counter;
//   - the spill path: the same workload under a tight resident budget
//     must keep every state addressable (spot-checked round-trips) while
//     resident arena bytes stay near the budget.
//
// The google-benchmark timings re-run the same workloads for the counter
// export (BENCH_bench_state_store.json, schema v3).

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"
#include "opentla/obs/memory.hpp"
#include "opentla/state/sharded_store.hpp"
#include "opentla/state/state.hpp"
#include "opentla/state/var_table.hpp"

using namespace opentla;

namespace {

constexpr std::size_t kStates = 100'000;

/// The variables of make_state's states. Every bounded slot has its domain
/// declared, so the store writes it as one domain index; the counter's
/// one-value domain only names the slot (the idiom of a product's
/// configuration slot), so every counter value past 0 is escaped and
/// written out in full.
const VarTable& table() {
  static const VarTable vars = [] {
    VarTable v;
    v.declare("n", Domain({Value::integer(0)}));
    v.declare("k", range_domain(0, 6));
    v.declare("q", tuple_domain({range_domain(0, 2), range_domain(0, 4)}));
    v.declare("msg", Domain({Value::string("snd"), Value::string("ack")}));
    return v;
  }();
  return vars;
}

/// Exploration-shaped synthetic state i: a couple of scalar "control"
/// variables plus a short queue-like tuple — the same mix of kinds the
/// paper's queue spaces intern.
State make_state(std::size_t i) {
  return State({Value::integer(static_cast<std::int64_t>(i)),
                Value::integer(static_cast<std::int64_t>(i % 7)),
                Value::tuple({Value::integer(static_cast<std::int64_t>(i % 3)),
                              Value::integer(static_cast<std::int64_t>((i / 3) % 5))}),
                Value::string(i % 2 == 0 ? "snd" : "ack")});
}

/// The pre-fingerprint design, reconstructed as a reference: map node
/// holds one deep copy of the state (the key), the id->state vector holds
/// another.
struct MapReferenceStore {
  std::unordered_map<State, StateId, StateHash> index;
  std::deque<State> by_id;

  StateId intern(const State& s) {
    const auto [it, inserted] = index.emplace(s, static_cast<StateId>(by_id.size()));
    if (inserted) by_id.push_back(s);
    return it->second;
  }
};

/// What the old store charged per state (its kInternSlotOverhead was
/// sizeof(State) + 48, on top of two deep copies).
std::uint64_t old_scheme_bytes(const State& s) {
  return 2 * state_deep_bytes(s) + sizeof(State) + 48;
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

std::uint64_t peak_rss_bytes() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // Linux: KiB
}

/// OPENTLA_FPSTORE_LARGE=N (default 20 million) is the EXPERIMENTS.md
/// FPSTORE scale demonstration: intern N distinct states — past the 10^7
/// mark the old double-copy map store could not reach in bounded memory —
/// under a 256 MiB arena spill budget, and report peak RSS against the
/// encoded total. Must be the only measurement in the process so ru_maxrss
/// is attributable.
void large_run() {
  std::size_t n = 20'000'000;
  if (const char* env = std::getenv("OPENTLA_FPSTORE_LARGE")) {
    if (const unsigned long long v = std::strtoull(env, nullptr, 10); v > 1) n = v;
  }
  constexpr std::uint64_t kBudget = 256ull * 1024 * 1024;
  std::printf("=== FPSTORE scale: %zu states, spill budget %llu MiB ===\n\n", n,
              static_cast<unsigned long long>(kBudget >> 20));
  StateStore store(&table());
  store.set_spill_threshold(kBudget);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n; ++i) store.intern(make_state(i));
  const double secs = ms_since(start) / 1000.0;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < n; i += 99'991) {
    if (!(store.get(store.find(make_state(i))) == make_state(i))) ++mismatches;
  }
  std::printf("interned %zu states in %.1f s (%.2f M/s)\n", store.size(), secs,
              static_cast<double>(n) / secs / 1e6);
  std::printf("arena: %llu B encoded, %llu B resident (budget %llu B), %zu/%zu"
              " segments spilled\n",
              static_cast<unsigned long long>(store.arena().used_bytes()),
              static_cast<unsigned long long>(store.arena().resident_bytes()),
              static_cast<unsigned long long>(kBudget), store.arena().spilled_segments(),
              store.arena().segment_count());
  std::printf("peak RSS %llu MiB, round-trip spot checks %zu mismatches %s\n\n",
              static_cast<unsigned long long>(peak_rss_bytes() >> 20), mismatches,
              mismatches == 0 && store.size() == n ? "PASS" : "FAIL");
}

void artifact() {
  if (std::getenv("OPENTLA_FPSTORE_LARGE") != nullptr) {
    large_run();
    return;
  }
  std::printf("=== FPSTORE: fingerprint store vs map reference, %zu states ===\n\n",
              kStates);

  // --- Memory: tracked fingerprint-store bytes vs the old formula. ---
  std::uint64_t old_bytes = 0;
  for (std::size_t i = 0; i < kStates; ++i) old_bytes += old_scheme_bytes(make_state(i));

  obs::reset();
  obs::set_enabled(true);
  std::uint64_t fp_bytes = 0;
  double fp_intern_ms = 0;
  {
    StateStore store(&table());
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kStates; ++i) store.intern(make_state(i));
    fp_intern_ms = ms_since(start);
    fp_bytes = obs::snapshot().mem[static_cast<std::size_t>(obs::MemDomain::StateStore)]
                   .live_bytes;
    benchmark::DoNotOptimize(store.size());
  }
  obs::set_enabled(false);
  obs::reset();

  if (fp_bytes == 0) {
    std::printf("(instrumentation compiled out or OPENTLA_OBS=0 — no byte accounting)\n");
  } else {
    std::printf("fingerprint store: %8llu B tracked  (%llu B/state)\n",
                static_cast<unsigned long long>(fp_bytes),
                static_cast<unsigned long long>(fp_bytes / kStates));
    std::printf("old map formula:   %8llu B charged  (%llu B/state)  -> %.2fx smaller\n",
                static_cast<unsigned long long>(old_bytes),
                static_cast<unsigned long long>(old_bytes / kStates),
                static_cast<double>(old_bytes) / static_cast<double>(fp_bytes));
  }

  // --- Throughput: fresh interns, both designs. ---
  MapReferenceStore ref;
  const auto ref_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kStates; ++i) ref.intern(make_state(i));
  const double ref_intern_ms = ms_since(ref_start);
  std::printf("fresh interns: fingerprint %.2f ms, map reference %.2f ms\n",
              fp_intern_ms, ref_intern_ms);

  // --- Spill: same workload under a 256 KiB resident budget. ---
  {
    StateStore store(&table());
    store.set_spill_threshold(256 * 1024);
    std::vector<StateId> ids;
    ids.reserve(kStates);
    for (std::size_t i = 0; i < kStates; ++i) ids.push_back(store.intern(make_state(i)));
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < kStates; i += 997) {  // spot-check round-trips
      if (!(store.get(ids[i]) == make_state(i))) ++mismatches;
    }
    std::printf("spill @256KiB: %zu/%zu segments spilled, %llu B resident of %llu B"
                " encoded, %zu round-trip mismatches %s\n",
                store.arena().spilled_segments(), store.arena().segment_count(),
                static_cast<unsigned long long>(store.arena().resident_bytes()),
                static_cast<unsigned long long>(store.arena().used_bytes()), mismatches,
                mismatches == 0 ? "PASS" : "FAIL");
  }
  std::printf("\n");
}

void BM_FingerprintInternFresh(benchmark::State& state) {
  for (auto _ : state) {
    StateStore store(&table());
    for (std::size_t i = 0; i < kStates; ++i) store.intern(make_state(i));
    benchmark::DoNotOptimize(store.size());
  }
}
BENCHMARK(BM_FingerprintInternFresh)->Unit(benchmark::kMillisecond);

void BM_MapReferenceInternFresh(benchmark::State& state) {
  for (auto _ : state) {
    MapReferenceStore ref;
    for (std::size_t i = 0; i < kStates; ++i) ref.intern(make_state(i));
    benchmark::DoNotOptimize(ref.by_id.size());
  }
}
BENCHMARK(BM_MapReferenceInternFresh)->Unit(benchmark::kMillisecond);

void BM_FingerprintInternDuplicate(benchmark::State& state) {
  // The exploration hot path: most interns hit an already-seen state.
  StateStore store(&table());
  for (std::size_t i = 0; i < kStates; ++i) store.intern(make_state(i));
  for (auto _ : state) {
    for (std::size_t i = 0; i < kStates; ++i) {
      benchmark::DoNotOptimize(store.intern(make_state(i)));
    }
  }
}
BENCHMARK(BM_FingerprintInternDuplicate)->Unit(benchmark::kMillisecond);

void BM_ShardedInternFresh(benchmark::State& state) {
  for (auto _ : state) {
    ShardedStateSet set(/*shard_count=*/0, /*spill_at=*/0, &table());
    for (std::size_t i = 0; i < kStates; ++i) set.intern(make_state(i));
    benchmark::DoNotOptimize(set.size());
  }
}
BENCHMARK(BM_ShardedInternFresh)->Unit(benchmark::kMillisecond);

void BM_SpilledGet(benchmark::State& state) {
  // Decode cost when the canonical bytes live in mmap'd spill segments.
  StateStore store(&table());
  store.set_spill_threshold(64 * 1024);
  std::vector<StateId> ids;
  ids.reserve(kStates);
  for (std::size_t i = 0; i < kStates; ++i) ids.push_back(store.intern(make_state(i)));
  for (auto _ : state) {
    for (std::size_t i = 0; i < kStates; i += 17) {
      benchmark::DoNotOptimize(store.get(ids[i]));
    }
  }
}
BENCHMARK(BM_SpilledGet)->Unit(benchmark::kMillisecond);

}  // namespace

OPENTLA_BENCH_MAIN(artifact)

// opentla/state/sharded_store.hpp
//
// Concurrent insert path for state interning. A ShardedStateSet is the
// parallel counterpart of StateStore's fingerprint table: the key space
// is striped over 2^k independently locked shards (selected from the
// state's 64-bit fingerprint), each holding an open-addressed fingerprint
// table plus an arena of canonical state encodings, so concurrent interns
// from different worker threads contend only when they land on the same
// stripe. Encoding and fingerprinting happen outside the lock, so any
// number of threads read the VarTable's domain indexes at once; those are
// immutable once the table is built (domain.hpp). Like the
// serial store, a fingerprint hit is verified against the shard's arena
// copy and a genuine collision throws FingerprintCollision. Ids are
// allocated from one atomic counter, which keeps them dense (0..size-1)
// but makes their *order* dependent on thread scheduling — callers that
// need canonical ids renumber afterwards (see opentla/par/explore.hpp's
// two-phase design).

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "opentla/state/state.hpp"

namespace opentla {

class ShardedStateSet {
 public:
  /// `shard_count` is rounded up to a power of two; 0 picks the default
  /// (64 stripes, plenty for any worker count this engine runs with).
  /// `spill_at` is the shared resident-byte budget for the shard arenas
  /// (0 = never spill). `vars` is the table states are encoded over, as
  /// for StateStore: nullable, not owned, and it must outlive the set.
  explicit ShardedStateSet(std::size_t shard_count = 0, std::uint64_t spill_at = 0,
                           const VarTable* vars = nullptr);

  struct InternResult {
    StateId id = 0;
    bool inserted = false;
  };

  /// Thread-safe fingerprinting insert: returns the id of `s`, allocating
  /// a fresh dense id on first sight. Safe to call concurrently from any
  /// number of threads. Throws FingerprintCollision / StateIdExhausted
  /// like StateStore::intern.
  InternResult intern(const State& s);

  /// Number of distinct states interned so far. Exact once all inserting
  /// threads have quiesced (a relaxed read of the id allocator).
  std::size_t size() const {
    return static_cast<std::size_t>(next_id_.load(std::memory_order_relaxed));
  }

  std::size_t shard_count() const { return shards_.size(); }

  /// Shard locks that were already held by another thread when an intern
  /// tried to take them (a try_lock miss). A direct contention measure for
  /// tuning the stripe count.
  std::uint64_t contended_locks() const {
    return contended_.load(std::memory_order_relaxed);
  }

  /// Spill segments written across all shard arenas so far.
  std::size_t spilled_segments() const;

 private:
  struct Shard {
    std::mutex mu;
    /// Open-addressed fingerprint table: parallel arrays, ids[i] == kNone
    /// marks an empty slot; refs[i] addresses the canonical encoding in
    /// this shard's arena. All guarded by `mu`.
    std::vector<Fingerprint> fps;
    std::vector<StateId> ids;
    std::vector<StateArena::Ref> refs;
    std::size_t mask = 0;
    std::size_t entries = 0;
    std::unique_ptr<StateArena> arena;
    /// Memory accounting for table + ref overhead, charged under `mu` so
    /// the tally needs no atomics of its own (the arena tallies its own
    /// segment bytes); released when the set dies.
    obs::MemTally mem{obs::MemDomain::StateStore};
  };

  const VarTable* vars_;
  /// Declared before shards_: each shard arena unregisters its resident
  /// bytes from this group on destruction, so the group must outlive them.
  SpillGroup spill_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t mask_ = 0;
  /// 64-bit so the exhaustion check below kNone cannot be defeated by the
  /// counter itself wrapping at 2^32.
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> contended_{0};
};

}  // namespace opentla

// opentla/state/state.hpp
//
// States and state interning. A state assigns a value to every variable of
// a VarTable ("a state is an assignment of values to variables", Section
// 2.1). The graph algorithms work over dense `StateId`s produced by a
// fingerprinting `StateStore`: the seen-set key is a 64-bit fingerprint of
// the state's canonical encoding (fingerprint.hpp) held in an
// open-addressed table, and the encoding itself — the store's single copy
// of the state, one u32 domain index per variable of the store's VarTable
// — lives in an append-only arena (arena.hpp) that can spill to
// mmap-backed segments under a --spill-at byte budget. A fingerprint hit
// is verified against the arena bytes; a genuine 64-bit collision is a
// hard FingerprintCollision error, never a silent merge.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "opentla/obs/memory.hpp"
#include "opentla/state/arena.hpp"
#include "opentla/state/fingerprint.hpp"
#include "opentla/state/var_table.hpp"
#include "opentla/value/value.hpp"

namespace opentla {

/// A state: one value per variable of the owning VarTable, indexed by VarId.
class State {
 public:
  State() = default;
  explicit State(std::vector<Value> values) : values_(std::move(values)) {}

  std::size_t size() const { return values_.size(); }
  const Value& operator[](VarId id) const { return values_[id]; }
  Value& operator[](VarId id) { return values_[id]; }
  const std::vector<Value>& values() const { return values_; }

  friend bool operator==(const State& a, const State& b) = default;
  std::size_t hash() const;

  /// Renders as "x = 1, y = <<0, 1>>" using names from `vars`.
  std::string to_string(const VarTable& vars) const;

 private:
  std::vector<Value> values_;
};

struct StateHash {
  std::size_t operator()(const State& s) const { return s.hash(); }
};

/// Approximate deep bytes of a state's value vector (see value_deep_bytes).
std::uint64_t state_deep_bytes(const State& s);

/// Bytes one interned state costs the store beyond its canonical encoding
/// (the arena charges those as segment capacity): the 8-byte arena Ref
/// slot plus the open-addressed table slot — fingerprint (8) + id (4) —
/// doubled because the table grows at ~0.7 load, so the average entry
/// owns about two slots. Shared by StateStore and ShardedStateSet so
/// serial and parallel runs attribute comparably.
inline constexpr std::uint64_t kInternSlotOverhead =
    sizeof(StateArena::Ref) + 2 * (sizeof(Fingerprint) + sizeof(std::uint32_t));

/// Dense identifier of an interned state.
using StateId = std::uint32_t;

/// Fingerprinting hash-consing store mapping states to dense ids and back.
/// Single-threaded; the concurrent counterpart is ShardedStateSet.
class StateStore {
 public:
  /// Encodes every state over `vars` (see encode_state): each value its
  /// variable's domain contains is stored as its index there, anything
  /// else is escaped. Null escapes every slot. Not owned: the table must
  /// outlive the store, since intern, find and get all read its domains
  /// (StateGraph requires the same of its own table and passes it here).
  explicit StateStore(const VarTable* vars = nullptr);
  ~StateStore();
  StateStore(StateStore&&) noexcept = default;
  /// Not defaulted: member order would destroy the old spill group before
  /// the old arena, whose destructor unregisters from that group.
  StateStore& operator=(StateStore&&) noexcept;
  StateStore(const StateStore&) = delete;
  StateStore& operator=(const StateStore&) = delete;

  /// Interns `s`, returning its id (stable across calls). Throws
  /// FingerprintCollision when a *distinct* state already owns this
  /// fingerprint, and StateIdExhausted when the dense id space is spent.
  StateId intern(const State& s);
  /// The interned state, decoded from its arena record. By value: the
  /// canonical bytes may live in an mmap-backed spill segment, so there
  /// is no resident State object to reference.
  State get(StateId id) const;
  std::size_t size() const { return refs_.size(); }
  /// Id of `s` if already interned, otherwise nullopt-like UINT32_MAX.
  static constexpr StateId kNone = UINT32_MAX;
  StateId find(const State& s) const;

  /// Resident-byte budget for the arena (tlacheck --spill-at). 0 (the
  /// default) never spills. Takes effect on subsequent interns.
  void set_spill_threshold(std::uint64_t bytes);

  /// The canonical encoding of an interned state (pointer valid until the
  /// next intern). For tests and benches; engine code uses get().
  std::pair<const std::byte*, std::size_t> encoded(StateId id) const;

  const StateArena& arena() const { return *arena_; }

 private:
  void grow_table();

  const VarTable* vars_ = nullptr;
  /// Open-addressed fingerprint table (linear probing). Parallel arrays;
  /// slot_ids_[i] == kNone marks an empty slot. Fingerprints in the table
  /// are unique by construction — a second distinct state with the same
  /// fingerprint is a hard error — so probes stop at the first match.
  std::vector<Fingerprint> fps_;
  std::vector<StateId> slot_ids_;
  std::size_t table_mask_ = 0;
  /// id -> arena record of the state's canonical encoding.
  std::vector<StateArena::Ref> refs_;
  std::unique_ptr<SpillGroup> spill_;
  std::unique_ptr<StateArena> arena_;
  mutable std::vector<std::byte> scratch_;
  /// Memory accounting: table + ref overhead per first-sight intern (the
  /// arena tallies its own segment bytes); released when the store dies.
  obs::MemTally mem_{obs::MemDomain::StateStore};
};

}  // namespace opentla

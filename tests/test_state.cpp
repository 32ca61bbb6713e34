// Unit tests for variables, states, interning and state-space enumeration
// (opentla/state).

#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "opentla/obs/obs.hpp"
#include "opentla/state/arena.hpp"
#include "opentla/state/fingerprint.hpp"
#include "opentla/state/sharded_store.hpp"
#include "opentla/state/state.hpp"
#include "opentla/state/state_space.hpp"
#include "opentla/state/var_table.hpp"

namespace opentla {
namespace {

/// RAII restores for the store test hooks, so an ASSERT early-exit can't
/// leave a narrowed fingerprint space, a lowered id limit, or a shrunken
/// arena segment size behind for later tests.
struct FingerprintBitsGuard {
  explicit FingerprintBitsGuard(unsigned bits) { set_fingerprint_bits_for_test(bits); }
  ~FingerprintBitsGuard() { set_fingerprint_bits_for_test(0); }
};

struct StateIdLimitGuard {
  explicit StateIdLimitGuard(std::uint64_t limit) { set_state_id_limit_for_test(limit); }
  ~StateIdLimitGuard() { set_state_id_limit_for_test(0); }
};

struct ArenaSegmentBytesGuard {
  explicit ArenaSegmentBytesGuard(std::size_t bytes) {
    set_arena_segment_bytes_for_test(bytes);
  }
  ~ArenaSegmentBytesGuard() { set_arena_segment_bytes_for_test(0); }
};

TEST(VarTable, DeclareAndLookup) {
  VarTable vars;
  VarId x = vars.declare("x", range_domain(0, 3));
  VarId y = vars.declare("y", bool_domain());
  EXPECT_EQ(vars.size(), 2u);
  EXPECT_EQ(vars.name(x), "x");
  EXPECT_EQ(vars.domain(y).size(), 2u);
  EXPECT_EQ(vars.find("x"), std::optional<VarId>(x));
  EXPECT_EQ(vars.find("z"), std::nullopt);
  EXPECT_EQ(vars.require("y"), y);
  EXPECT_THROW(vars.require("z"), std::runtime_error);
}

TEST(VarTable, RejectsDuplicatesAndEmptyDomains) {
  VarTable vars;
  vars.declare("x", range_domain(0, 1));
  EXPECT_THROW(vars.declare("x", range_domain(0, 1)), std::runtime_error);
  EXPECT_THROW(vars.declare("y", Domain(std::vector<Value>{})), std::runtime_error);
}

TEST(State, EqualityAndHash) {
  State a({Value::integer(1), Value::boolean(true)});
  State b({Value::integer(1), Value::boolean(true)});
  State c({Value::integer(2), Value::boolean(true)});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_FALSE(a == c);
}

TEST(State, Printing) {
  VarTable vars;
  vars.declare("x", range_domain(0, 3));
  vars.declare("q", seq_domain(range_domain(0, 1), 2));
  State s({Value::integer(2), Value::tuple({Value::integer(1)})});
  EXPECT_EQ(s.to_string(vars), "x = 2, q = <<1>>");
}

TEST(StateStore, InterningIsStable) {
  StateStore store;
  State a({Value::integer(1)});
  State b({Value::integer(2)});
  StateId ia = store.intern(a);
  StateId ib = store.intern(b);
  EXPECT_NE(ia, ib);
  EXPECT_EQ(store.intern(a), ia);
  EXPECT_EQ(store.get(ia), a);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.find(b), ib);
  EXPECT_EQ(store.find(State({Value::integer(9)})), StateStore::kNone);
}

// --- Canonical encoding (fingerprint.hpp). ---

TEST(Fingerprint, EncodeDecodeRoundTripsEveryValueKind) {
  const State s({Value::boolean(true), Value::integer(-42), Value::string(""),
                 Value::string("hello"), Value::tuple({}),
                 Value::tuple({Value::integer(1),
                               Value::tuple({Value::string("x"), Value::boolean(false)})})});
  std::vector<std::byte> bytes;
  encode_state(nullptr, s, bytes);
  EXPECT_EQ(decode_state(nullptr, bytes.data(), bytes.size()), s);

  const State empty(std::vector<Value>{});
  std::vector<std::byte> ebytes;
  encode_state(nullptr, empty, ebytes);
  EXPECT_EQ(ebytes.size(), 4u);  // just the u32 slot count
  EXPECT_EQ(decode_state(nullptr, ebytes.data(), ebytes.size()), empty);
}

TEST(Fingerprint, EncodingIsInjectiveAcrossKindsAndNesting) {
  // The kind tags and length prefixes make the encoding self-delimiting:
  // look-alike states must produce distinct byte strings (this is what
  // lets a fingerprint hit be verified by a plain byte compare).
  const std::vector<State> distinct = {
      State({Value::boolean(true)}),
      State({Value::integer(1)}),
      State({Value::string("")}),
      State({Value::tuple({})}),
      State({Value::tuple({Value::tuple({})})}),
      State({Value::tuple({}), Value::tuple({})}),
      State({Value::string("ab"), Value::string("c")}),
      State({Value::string("a"), Value::string("bc")}),
  };
  std::set<std::string> encodings;
  for (const State& s : distinct) {
    std::vector<std::byte> bytes;
    encode_state(nullptr, s, bytes);
    encodings.insert(std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
  }
  EXPECT_EQ(encodings.size(), distinct.size());
}

TEST(Fingerprint, DecodeRejectsMalformedInput) {
  const State s({Value::integer(7), Value::string("hi")});
  std::vector<std::byte> bytes;
  encode_state(nullptr, s, bytes);
  // Truncation anywhere in the record is corruption.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(decode_state(nullptr, bytes.data(), len), std::runtime_error) << "len=" << len;
  }
  // So are trailing bytes.
  bytes.push_back(std::byte{0});
  EXPECT_THROW(decode_state(nullptr, bytes.data(), bytes.size()), std::runtime_error);
  // And an unknown kind tag (count = 1, escaped slot, tag = 9).
  const std::byte ff{0xff};
  const std::vector<std::byte> bad = {std::byte{1}, std::byte{0}, std::byte{0},
                                      std::byte{0}, ff, ff, ff, ff, std::byte{9}};
  EXPECT_THROW(decode_state(nullptr, bad.data(), bad.size()), std::runtime_error);
}

TEST(Fingerprint, StateFingerprintIsStableGolden) {
  // FNV-1a64 over the canonical bytes: platform- and run-independent, so
  // a golden value pins the persisted fingerprint format.
  const std::vector<std::byte> empty_state = {std::byte{0}, std::byte{0}, std::byte{0},
                                              std::byte{0}};
  EXPECT_EQ(fingerprint_bytes(empty_state.data(), empty_state.size()),
            state_fingerprint(nullptr, State(std::vector<Value>{})));
  EXPECT_EQ(fingerprint_bytes(nullptr, 0), 14695981039346656037ULL);  // FNV offset basis
  EXPECT_EQ(state_fingerprint(nullptr, State({Value::integer(1)})),
            state_fingerprint(nullptr, State({Value::integer(1)})));
  EXPECT_NE(state_fingerprint(nullptr, State({Value::integer(1)})),
            state_fingerprint(nullptr, State({Value::integer(2)})));
}

// --- Domain-indexed slots: one u32 per variable over a VarTable. ---

/// x in 0..3, q a sequence of bits up to length 2, b a boolean.
VarTable indexed_table() {
  VarTable vars;
  vars.declare("x", range_domain(0, 3));
  vars.declare("q", seq_domain(range_domain(0, 1), 2));
  vars.declare("b", bool_domain());
  return vars;
}

std::uint32_t slot_word(const std::vector<std::byte>& bytes, std::size_t i) {
  std::uint32_t v = 0;
  for (int k = 0; k < 4; ++k) {
    v |= static_cast<std::uint32_t>(bytes[4 + 4 * i + k]) << (8 * k);
  }
  return v;
}

TEST(Fingerprint, InDomainValuesEncodeAsTheirDomainIndex) {
  const VarTable vars = indexed_table();
  const State s({Value::integer(2), Value::tuple({Value::integer(1), Value::integer(0)}),
                 Value::boolean(true)});
  std::vector<std::byte> bytes;
  encode_state(&vars, s, bytes);
  ASSERT_EQ(bytes.size(), 16u);  // slot count + three slot words, nothing escaped
  for (VarId v = 0; v < 3; ++v) {
    EXPECT_EQ(slot_word(bytes, v), vars.domain(v).index_of(s[v])) << vars.name(v);
  }
  EXPECT_EQ(decode_state(&vars, bytes.data(), bytes.size()), s);
}

TEST(Fingerprint, EscapedSlotsRoundTripNextToIndexedOnes) {
  const VarTable vars = indexed_table();
  const std::vector<State> states = {
      // x outside its range, q longer than its domain allows.
      State({Value::integer(9),
             Value::tuple({Value::integer(0), Value::integer(0), Value::integer(0)}),
             Value::boolean(false)}),
      // a value of another kind than the domain's.
      State({Value::string("x"), Value::empty_seq(), Value::integer(1)}),
      // slots past the table.
      State({Value::integer(0), Value::empty_seq(), Value::boolean(true), Value::integer(0),
             Value::tuple({Value::string("cfg")})}),
      // fewer slots than the table.
      State({Value::integer(3)}),
  };
  for (std::size_t n = 0; n < states.size(); ++n) {
    const State& s = states[n];
    SCOPED_TRACE("state " + std::to_string(n));
    for (const VarTable* table : {&vars, static_cast<const VarTable*>(nullptr)}) {
      std::vector<std::byte> bytes;
      encode_state(table, s, bytes);
      EXPECT_EQ(decode_state(table, bytes.data(), bytes.size()), s);
      for (std::size_t i = 0; i < s.size(); ++i) {
        const bool indexed = table != nullptr && i < vars.size() &&
                             vars.domain(static_cast<VarId>(i)).contains(s[i]);
        EXPECT_EQ(slot_word(bytes, i) == kEscapedSlot, !indexed) << "slot " << i;
      }
    }
  }
  // The first state escapes two slots and indexes one.
  std::vector<std::byte> bytes;
  encode_state(&vars, states[0], bytes);
  EXPECT_EQ(slot_word(bytes, 2), 0u);  // FALSE sorts first
}

TEST(Fingerprint, DecodeRejectsCorruptSlotWords) {
  const VarTable vars = indexed_table();
  const State s({Value::integer(1), Value::empty_seq(), Value::integer(5)});
  std::vector<std::byte> bytes;
  encode_state(&vars, s, bytes);
  ASSERT_EQ(slot_word(bytes, 2), kEscapedSlot);
  ASSERT_EQ(decode_state(&vars, bytes.data(), bytes.size()), s);
  auto with_slot = [&](std::size_t i, std::uint32_t word) {
    std::vector<std::byte> b = bytes;
    for (int k = 0; k < 4; ++k) b[4 + 4 * i + k] = static_cast<std::byte>(word >> (8 * k));
    return b;
  };
  // A slot word at or past |D| names no value.
  for (std::uint32_t word : {4u, 5u, kEscapedSlot - 1}) {
    const std::vector<std::byte> b = with_slot(0, word);
    EXPECT_THROW(decode_state(&vars, b.data(), b.size()), std::runtime_error) << word;
  }
  const std::vector<std::byte> past_q = with_slot(1, 7);  // |q's domain| = 7
  EXPECT_THROW(decode_state(&vars, past_q.data(), past_q.size()), std::runtime_error);
  // An index word means nothing without a table to read it against.
  EXPECT_THROW(decode_state(nullptr, bytes.data(), bytes.size()), std::runtime_error);
  // A truncated slot block, and trailing bytes, are corruption too.
  for (std::size_t len = 0; len < 16; ++len) {
    EXPECT_THROW(decode_state(&vars, bytes.data(), len), std::runtime_error) << "len=" << len;
  }
  bytes.push_back(std::byte{0});
  EXPECT_THROW(decode_state(&vars, bytes.data(), bytes.size()), std::runtime_error);
}

TEST(StateStore, TableStoreRoundTripsIndexedAndEscapedStates) {
  const VarTable vars = indexed_table();
  StateStore store(&vars);
  const std::vector<State> states = {
      State({Value::integer(0), Value::empty_seq(), Value::boolean(false)}),
      State({Value::integer(3), Value::tuple({Value::integer(1)}), Value::boolean(true)}),
      State({Value::integer(4), Value::empty_seq(), Value::boolean(false)}),  // x escaped
      State({Value::integer(0), Value::empty_seq(), Value::boolean(false), Value::integer(0)}),
  };
  std::vector<StateId> ids;
  for (const State& s : states) ids.push_back(store.intern(s));
  EXPECT_EQ(std::set<StateId>(ids.begin(), ids.end()).size(), states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    EXPECT_EQ(store.intern(states[i]), ids[i]);
    EXPECT_EQ(store.find(states[i]), ids[i]);
    EXPECT_EQ(store.get(ids[i]), states[i]);
  }
  EXPECT_EQ(store.encoded(ids[0]).second, 16u);
  EXPECT_EQ(store.find(State({Value::integer(1), Value::empty_seq(), Value::boolean(false)})),
            StateStore::kNone);
}

// --- Fingerprint collisions are hard errors, never silent merges. ---

TEST(StateStore, ForcedFingerprintCollisionIsHardError) {
  obs::reset();
  obs::set_enabled(true);
  {
    FingerprintBitsGuard guard(8);  // 256 possible fingerprints
    StateStore store;
    std::vector<StateId> ids;
    bool collided = false;
    try {
      // Pigeonhole: 300 distinct states over <= 256 fingerprints must
      // collide. The store must throw, not merge.
      for (std::int64_t i = 0; i < 300; ++i) {
        ids.push_back(store.intern(State({Value::integer(i)})));
      }
    } catch (const FingerprintCollision& e) {
      collided = true;
      EXPECT_NE(std::string(e.what()).find("fingerprint collision"), std::string::npos);
    }
    ASSERT_TRUE(collided);
    // Every id issued before the error is distinct and still round-trips
    // to its own state — nothing was silently merged along the way.
    const std::set<StateId> unique(ids.begin(), ids.end());
    EXPECT_EQ(unique.size(), ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(store.get(ids[i]), State({Value::integer(static_cast<std::int64_t>(i))}));
    }
  }
  if (obs::compile_time_enabled()) {  // counters compile out in OFF builds
    EXPECT_GE(obs::snapshot().counter(obs::Counter::FingerprintCollisions), 1u);
  }
  obs::set_enabled(false);
  obs::reset();
}

TEST(ShardedStateSet, ForcedFingerprintCollisionIsHardError) {
  obs::reset();
  obs::set_enabled(true);
  {
    FingerprintBitsGuard guard(8);
    ShardedStateSet set(4);
    bool collided = false;
    try {
      for (std::int64_t i = 0; i < 300; ++i) {
        set.intern(State({Value::integer(i)}));
      }
    } catch (const FingerprintCollision&) {
      collided = true;
    }
    EXPECT_TRUE(collided);
  }
  if (obs::compile_time_enabled()) {  // counters compile out in OFF builds
    EXPECT_GE(obs::snapshot().counter(obs::Counter::FingerprintCollisions), 1u);
  }
  obs::set_enabled(false);
  obs::reset();
}

// --- StateId exhaustion: graceful error instead of kNone aliasing. ---

TEST(StateStore, StateIdExhaustionIsGracefulError) {
  StateIdLimitGuard guard(3);
  StateStore store;
  const StateId i0 = store.intern(State({Value::integer(0)}));
  store.intern(State({Value::integer(1)}));
  store.intern(State({Value::integer(2)}));
  EXPECT_EQ(store.size(), 3u);
  // The 4th distinct state would take the first invalid id: hard stop.
  EXPECT_THROW(store.intern(State({Value::integer(3)})), StateIdExhausted);
  // Known states keep resolving — only *new* ids are exhausted.
  EXPECT_EQ(store.intern(State({Value::integer(0)})), i0);
  EXPECT_EQ(store.find(State({Value::integer(0)})), i0);
  EXPECT_EQ(store.size(), 3u);
}

TEST(ShardedStateSet, StateIdExhaustionIsGracefulError) {
  StateIdLimitGuard guard(3);
  ShardedStateSet set(4);
  const StateId i0 = set.intern(State({Value::integer(0)})).id;
  set.intern(State({Value::integer(1)}));
  set.intern(State({Value::integer(2)}));
  EXPECT_THROW(set.intern(State({Value::integer(3)})), StateIdExhausted);
  const ShardedStateSet::InternResult again = set.intern(State({Value::integer(0)}));
  EXPECT_EQ(again.id, i0);
  EXPECT_FALSE(again.inserted);
}

// --- Disk spill: states round-trip bit-identically through mmap. ---

TEST(StateStore, SpillRoundTripsAllStates) {
  obs::reset();
  obs::set_enabled(true);
  {
    ArenaSegmentBytesGuard guard(256);  // tiny segments: many seals
    StateStore store;
    store.set_spill_threshold(1);  // spill every sealed segment immediately
    std::vector<State> originals;
    std::vector<StateId> ids;
    for (std::int64_t i = 0; i < 200; ++i) {
      originals.push_back(State({Value::integer(i), Value::string("padding-padding"),
                                 Value::tuple({Value::integer(i % 7)})}));
      ids.push_back(store.intern(originals.back()));
    }
    ASSERT_GT(store.arena().spilled_segments(), 0u);
    EXPECT_GT(store.arena().segment_count(), store.arena().spilled_segments());
    // Every state decodes from disk exactly as interned; lookups and
    // re-interns still resolve against the mapped bytes.
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(store.get(ids[i]), originals[i]) << "id " << ids[i];
      EXPECT_EQ(store.find(originals[i]), ids[i]);
      EXPECT_EQ(store.intern(originals[i]), ids[i]);
    }
    // Spilling keeps resident bytes near one active segment, far below
    // the total encoded bytes.
    EXPECT_LT(store.arena().resident_bytes(), store.arena().used_bytes());
  }
  if (obs::compile_time_enabled()) {  // counters compile out in OFF builds
    EXPECT_GE(obs::snapshot().counter(obs::Counter::SpillSegments), 1u);
  }
  obs::set_enabled(false);
  obs::reset();
}

TEST(StateStore, SpillDisabledKeepsEverythingResident) {
  ArenaSegmentBytesGuard guard(256);
  StateStore store;  // threshold 0 = never spill
  for (std::int64_t i = 0; i < 200; ++i) {
    store.intern(State({Value::integer(i), Value::string("padding-padding")}));
  }
  EXPECT_EQ(store.arena().spilled_segments(), 0u);
  EXPECT_GT(store.arena().segment_count(), 1u);
}

TEST(StateStore, InternHoldsExactlyOneCopyPerState) {
  // Regression for the double-deep-copy bug: the arena's used bytes must
  // equal the sum of each distinct state's encoding (+4-byte length
  // prefix) — one canonical copy, no duplicates, and re-interning adds
  // nothing. Half the states escape their first slot.
  VarTable vars;
  vars.declare("i", range_domain(0, 24));
  vars.declare("s", Domain({Value::string("abc")}));
  StateStore store(&vars);
  std::uint64_t expected = 0;
  for (std::int64_t i = 0; i < 50; ++i) {
    const State s({Value::integer(i), Value::string("abc")});
    std::vector<std::byte> bytes;
    encode_state(&vars, s, bytes);
    expected += 4 + bytes.size();
    store.intern(s);
    store.intern(s);  // duplicate: must not re-append
  }
  EXPECT_EQ(store.arena().used_bytes(), expected);
}

TEST(StateSpace, TotalStates) {
  VarTable vars;
  vars.declare("x", range_domain(0, 3));
  vars.declare("y", bool_domain());
  StateSpace space(vars);
  EXPECT_EQ(space.total_states(), 8u);
}

TEST(StateSpace, EnumeratesFullSpaceWithoutDuplicates) {
  VarTable vars;
  vars.declare("x", range_domain(0, 2));
  vars.declare("y", bool_domain());
  StateSpace space(vars);
  std::set<std::string> seen;
  space.for_each_state([&](const State& s) { seen.insert(s.to_string(vars)); });
  EXPECT_EQ(seen.size(), 6u);
}

TEST(StateSpace, CompletionKeepsPinnedVariables) {
  VarTable vars;
  VarId x = vars.declare("x", range_domain(0, 2));
  VarId y = vars.declare("y", range_domain(0, 4));
  StateSpace space(vars);
  State base({Value::integer(1), Value::integer(4)});
  std::vector<std::int64_t> xs;
  space.for_each_completion(base, {x}, [&](const State& s) {
    xs.push_back(s[x].as_int());
    EXPECT_EQ(s[y].as_int(), 4);  // y is untouched
    return false;
  });
  EXPECT_EQ(xs, (std::vector<std::int64_t>{0, 1, 2}));
}

TEST(StateSpace, EmptyCompletionVisitsBaseOnce) {
  VarTable vars;
  vars.declare("x", range_domain(0, 2));
  StateSpace space(vars);
  int count = 0;
  space.for_each_completion(space.first_state(), {}, [&](const State&) {
    ++count;
    return false;
  });
  EXPECT_EQ(count, 1);
}

TEST(StateSpace, CompletionStopsWhenCallbackReturnsTrue) {
  VarTable vars;
  VarId x = vars.declare("x", range_domain(0, 9));
  StateSpace space(vars);
  int count = 0;
  const bool stopped =
      space.for_each_completion(space.first_state(), {x}, [&](const State&) {
        ++count;
        return count == 3;  // stop after the third completion
      });
  EXPECT_TRUE(stopped);
  EXPECT_EQ(count, 3);  // the odometer must not keep spinning after the stop
  count = 0;
  const bool exhausted =
      space.for_each_completion(space.first_state(), {x}, [&](const State&) {
        ++count;
        return false;
      });
  EXPECT_FALSE(exhausted);
  EXPECT_EQ(count, 10);
}

TEST(StateSpace, PrunedCompletionCutsSubtreesAndPreservesOdometerOrder) {
  VarTable vars;
  VarId x = vars.declare("x", range_domain(0, 2));
  VarId y = vars.declare("y", range_domain(0, 2));
  StateSpace space(vars);

  // Schedule: assign x at depth 0, y at depth 1; check 0 (x != 1) becomes
  // decidable once x is bound, check 1 (y != 0) once y is bound.
  ResidualSchedule sched;
  sched.order = {x, y};
  sched.at_depth = {{}, {0}, {1}};

  std::vector<std::pair<std::int64_t, std::int64_t>> leaves;
  int x_checks = 0;
  const bool stopped = space.for_each_completion_pruned(
      space.first_state(), sched,
      [&](std::size_t i, const State& s) {
        if (i == 0) {
          ++x_checks;
          return s[x].as_int() != 1;
        }
        return s[y].as_int() != 0;
      },
      [&](const State& s) {
        leaves.emplace_back(s[x].as_int(), s[y].as_int());
        return false;
      });
  EXPECT_FALSE(stopped);
  // x = 1 is cut before y is ever enumerated, so the x-check runs three
  // times (once per x value) and the x = 1 subtree contributes no leaves.
  EXPECT_EQ(x_checks, 3);
  const std::vector<std::pair<std::int64_t, std::int64_t>> want = {
      {0, 1}, {0, 2}, {2, 1}, {2, 2}};
  // Leaves appear in the flat odometer order over reversed(order) = {y, x}
  // (y fastest), restricted to the survivors — pruning never reorders.
  EXPECT_EQ(leaves, want);
}

TEST(StateSpace, PrunedCompletionDepthZeroCutAndEarlyStop) {
  VarTable vars;
  VarId x = vars.declare("x", range_domain(0, 4));
  StateSpace space(vars);
  ResidualSchedule sched;
  sched.order = {x};
  sched.at_depth = {{0}, {}};

  int calls = 0;
  // A failing depth-0 check prunes everything before any enumeration.
  EXPECT_FALSE(space.for_each_completion_pruned(
      space.first_state(), sched, [](std::size_t, const State&) { return false; },
      [&](const State&) {
        ++calls;
        return false;
      }));
  EXPECT_EQ(calls, 0);

  // The leaf callback can stop the search; the return value reports it.
  EXPECT_TRUE(space.for_each_completion_pruned(
      space.first_state(), sched, [](std::size_t, const State&) { return true; },
      [&](const State&) {
        ++calls;
        return calls == 2;
      }));
  EXPECT_EQ(calls, 2);
}

}  // namespace
}  // namespace opentla

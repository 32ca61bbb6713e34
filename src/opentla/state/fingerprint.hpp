// opentla/state/fingerprint.hpp
//
// 64-bit state fingerprints over a canonical byte encoding (the TLC
// recipe: Yu, Manolios & Lamport). Every interned state is serialized
// once into a platform-independent byte string; the fingerprint is an
// FNV-1a64 over exactly those bytes, so fingerprints are stable across
// runs, platforms, and standard libraries — a precondition for using them
// as the seen-set key (and, eventually, for persisting them).
//
// Every variable ranges over a finite, indexed Domain (var_table.hpp), so
// the encoding stores a state as one u32 per variable: the value's
// position in that variable's domain. A value with no domain to index it
// (a slot past the table, a null table, or a value its domain lacks, such
// as a product's machine configuration) is escaped and written out in
// full after the index block.
//
// The encoding is also what the arena-backed stores retain as the single
// canonical copy of each state (state.hpp / sharded_store.hpp): a
// fingerprint hit is *verified* against the stored bytes, so a genuine
// 64-bit collision (two distinct states, one fingerprint) is detected and
// surfaced as a hard FingerprintCollision error — never silently merged.

#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace opentla {

class State;
class VarTable;

/// A 64-bit state fingerprint.
using Fingerprint = std::uint64_t;

/// The slot word of an escaped value.
inline constexpr std::uint32_t kEscapedSlot = UINT32_MAX;

/// Appends the canonical encoding of `s` over `vars` to `out` (out is NOT
/// cleared). The format is fixed little-endian and self-delimiting:
///   state  := u32 slot-count n, then n u32 slot words, then the escaped
///             values in slot order
///   slot i := the position of s[i] in vars->domain(i), or kEscapedSlot
///             when vars is null, i >= vars->size(), or the domain does not
///             contain s[i]
///   value  := u8 kind tag, then
///             Bool: u8 0/1 | Int: 8 bytes LE | String: u32 len + bytes |
///             Tuple: u32 count + elements
/// A value its domain contains is never escaped, so over one table (or
/// none) two states encode to the same bytes iff they are equal
/// (operator==). Bytes compare only between encodings over one table.
void encode_state(const VarTable* vars, const State& s, std::vector<std::byte>& out);

/// Decodes a state previously produced by encode_state over the same
/// `vars`. Throws std::runtime_error on malformed input (truncated or
/// trailing bytes, an unknown tag, a slot word at or past its domain's
/// size) — that would mean arena corruption, not a spec error.
State decode_state(const VarTable* vars, const std::byte* data, std::size_t len);

/// FNV-1a64 over a byte string (offset 14695981039346656037, prime
/// 1099511628211). Platform-independent by construction.
Fingerprint fingerprint_bytes(const std::byte* data, std::size_t len);

/// Fingerprint of a state: fingerprint_bytes over its canonical encoding
/// over `vars`, truncated by the test hook below when one is installed.
Fingerprint state_fingerprint(const VarTable* vars, const State& s);

/// Apply the test-hook truncation to a raw fingerprint (identity unless
/// set_fingerprint_bits_for_test narrowed the space).
Fingerprint apply_fingerprint_mask(Fingerprint fp);

/// TEST HOOK: truncate every fingerprint to its low `bits` bits (1..63),
/// forcing genuine collisions on tiny state sets so the detection path is
/// testable. 0 restores full 64-bit fingerprints. Not thread-safe against
/// in-flight interning — set it between runs only.
void set_fingerprint_bits_for_test(unsigned bits);

/// TEST HOOK: lower the dense-id space so StateId exhaustion (the 2^32-th
/// intern aliasing the kNone sentinel) is testable without interning 2^32
/// states. `limit` is the first *invalid* id; 0 restores the real limit
/// (kNone = UINT32_MAX). Applies to StateStore and ShardedStateSet alike.
void set_state_id_limit_for_test(std::uint64_t limit);

/// The first invalid dense id: interning a state that would receive this
/// id throws StateIdExhausted. UINT32_MAX (the kNone sentinel) unless the
/// test hook lowered it.
std::uint64_t state_id_limit();

/// Two distinct states produced the same 64-bit fingerprint. This is a
/// hard error by policy: merging them would silently drop reachable
/// states, so the run must die loudly (TLC's stance). The probability at
/// 10^8 states is ~2.7e-4; rerunning perturbs nothing today, but the
/// error text tells the user what happened.
class FingerprintCollision : public std::runtime_error {
 public:
  explicit FingerprintCollision(Fingerprint fp);
  Fingerprint fingerprint() const { return fp_; }

 private:
  Fingerprint fp_;
};

/// The dense 32-bit id space is exhausted: interning one more state would
/// alias StateStore::kNone ("not found"). Graceful, StopReason-style
/// failure — the caller sees a clear message instead of silent aliasing.
class StateIdExhausted : public std::runtime_error {
 public:
  StateIdExhausted();
};

}  // namespace opentla

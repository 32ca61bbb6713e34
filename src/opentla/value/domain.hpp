// opentla/value/domain.hpp
//
// Finite domains. The explicit-state engine requires every flexible
// variable to range over a finite, explicitly enumerable set of values;
// `Domain` is that set. Helpers build the domains used by the paper's
// examples: bits, bounded integer ranges, and bounded sequences (the queue
// buffer q ranges over sequences of length <= N over the value domain).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "opentla/value/value.hpp"

namespace opentla {

/// A finite set of values, kept sorted and deduplicated so that domains
/// compare structurally. Construction also builds an open-addressed index
/// over the sorted values, so membership and position are one expected-
/// O(1) probe (find). The index is immutable after construction: any
/// number of threads may look values up concurrently.
class Domain {
 public:
  /// find()'s answer for a value outside the domain.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  Domain() = default;
  explicit Domain(std::vector<Value> values);

  const std::vector<Value>& values() const { return values_; }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Position of `v` within the sorted domain, or npos if absent.
  std::size_t find(const Value& v) const;
  bool contains(const Value& v) const { return find(v) != npos; }

  /// Index of `v` within the sorted domain; throws if absent.
  std::size_t index_of(const Value& v) const;

  const Value& operator[](std::size_t i) const { return values_[i]; }

  /// Equal value sets; the index is derived from the values.
  friend bool operator==(const Domain& a, const Domain& b) { return a.values_ == b.values_; }

  std::string to_string() const;

 private:
  std::vector<Value> values_;
  /// Hash slots (a power of two, at least twice size()) holding positions
  /// into values_; UINT32_MAX marks a free slot. Empty for an empty domain.
  std::vector<std::uint32_t> slots_;
  unsigned shift_ = 64;  // 64 - log2(slots_.size()): the top bits pick a slot
};

/// {FALSE, TRUE}.
Domain bool_domain();
/// {0, 1} as integers — the paper's bit-valued signal/ack wires.
Domain bit_domain();
/// {lo, lo+1, ..., hi} as integers (empty if hi < lo).
Domain range_domain(std::int64_t lo, std::int64_t hi);
/// All sequences over `elems` of length <= max_len (includes << >>).
/// Size is sum_{k=0..max_len} |elems|^k; callers should keep this small.
Domain seq_domain(const Domain& elems, std::size_t max_len);
/// Cartesian product of component domains, as tuple values.
Domain tuple_domain(const std::vector<Domain>& components);

}  // namespace opentla

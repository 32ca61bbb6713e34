#include "opentla/value/domain.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>

namespace opentla {

namespace {

constexpr std::uint32_t kEmptySlot = UINT32_MAX;
/// 2^64 / golden ratio: the multiplier of Fibonacci hashing.
constexpr std::uint64_t kFibonacci = 0x9E3779B97F4A7C15ULL;

/// Structural hash for the index alone. It is never persisted, so unlike
/// Value::hash it need not be byte-stable: integers hash to themselves and
/// the slot comes from the top bits of hash × kFibonacci.
std::uint64_t index_hash(const Value& v) {
  switch (v.kind()) {
    case ValueKind::Bool:
      return v.as_bool() ? 0x5851F42D4C957F2DULL : 0x14057B7EF767814FULL;
    case ValueKind::Int:
      return static_cast<std::uint64_t>(v.as_int());
    case ValueKind::String: {
      std::uint64_t h = 0xCBF29CE484222325ULL ^ v.as_string().size();
      for (char c : v.as_string()) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
      return h;
    }
    case ValueKind::Tuple: {
      std::uint64_t h = 0x2545F4914F6CDD1DULL + v.as_tuple().size();
      for (const Value& e : v.as_tuple()) h = (std::rotl(h, 29) ^ index_hash(e)) * kFibonacci;
      return h;
    }
  }
  return 0;
}

}  // namespace

Domain::Domain(std::vector<Value> values) : values_(std::move(values)) {
  std::sort(values_.begin(), values_.end());
  values_.erase(std::unique(values_.begin(), values_.end()), values_.end());
  if (values_.empty()) return;
  if (values_.size() >= kEmptySlot) throw std::length_error("Domain: too many values");
  // At most half the slots are taken, so a probe sequence stays short.
  const unsigned bits = static_cast<unsigned>(std::bit_width(2 * values_.size() - 1));
  slots_.assign(std::size_t{1} << bits, kEmptySlot);
  shift_ = 64 - bits;
  const std::size_t mask = slots_.size() - 1;
  for (std::uint32_t pos = 0; pos < values_.size(); ++pos) {
    std::size_t i = (index_hash(values_[pos]) * kFibonacci) >> shift_;
    while (slots_[i] != kEmptySlot) i = (i + 1) & mask;
    slots_[i] = pos;
  }
}

std::size_t Domain::find(const Value& v) const {
  if (slots_.empty()) return npos;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = (index_hash(v) * kFibonacci) >> shift_;; i = (i + 1) & mask) {
    const std::uint32_t pos = slots_[i];
    if (pos == kEmptySlot) return npos;
    if (values_[pos] == v) return pos;
  }
}

std::size_t Domain::index_of(const Value& v) const {
  const std::size_t pos = find(v);
  if (pos == npos) {
    throw std::runtime_error("Domain::index_of: value " + v.to_string() +
                             " not in domain " + to_string());
  }
  return pos;
}
std::string Domain::to_string() const {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (i != 0) os << ", ";
    os << values_[i];
  }
  os << '}';
  return os.str();
}

Domain bool_domain() {
  return Domain({Value::boolean(false), Value::boolean(true)});
}

Domain bit_domain() { return range_domain(0, 1); }

Domain range_domain(std::int64_t lo, std::int64_t hi) {
  std::vector<Value> out;
  for (std::int64_t i = lo; i <= hi; ++i) out.push_back(Value::integer(i));
  return Domain(std::move(out));
}

Domain seq_domain(const Domain& elems, std::size_t max_len) {
  std::vector<Value> out;
  std::vector<Value> frontier = {Value::empty_seq()};
  out.push_back(Value::empty_seq());
  for (std::size_t len = 1; len <= max_len; ++len) {
    std::vector<Value> next;
    next.reserve(frontier.size() * elems.size());
    for (const Value& seq : frontier) {
      for (const Value& e : elems.values()) {
        Value extended = seq_append(seq, e);
        out.push_back(extended);
        next.push_back(std::move(extended));
      }
    }
    frontier = std::move(next);
  }
  return Domain(std::move(out));
}

Domain tuple_domain(const std::vector<Domain>& components) {
  std::vector<Value> out = {Value::tuple({})};
  for (const Domain& comp : components) {
    std::vector<Value> next;
    next.reserve(out.size() * comp.size());
    for (const Value& partial : out) {
      for (const Value& e : comp.values()) {
        next.push_back(seq_append(partial, e));
      }
    }
    out = std::move(next);
  }
  return Domain(std::move(out));
}

}  // namespace opentla

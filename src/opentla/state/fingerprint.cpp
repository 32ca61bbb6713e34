#include "opentla/state/fingerprint.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>

#include "opentla/state/state.hpp"
#include "opentla/state/var_table.hpp"
#include "opentla/value/value.hpp"

namespace opentla {

namespace {

constexpr Fingerprint kFnvOffset = 14695981039346656037ULL;
constexpr Fingerprint kFnvPrime = 1099511628211ULL;

// Test hooks. Relaxed atomics: they are flipped between runs, never
// against in-flight interning, but TSan-exercised reads must be atomic.
std::atomic<Fingerprint> g_fp_mask{~Fingerprint{0}};
std::atomic<std::uint64_t> g_id_limit{UINT32_MAX};

enum : std::uint8_t { kTagBool = 0, kTagInt = 1, kTagString = 2, kTagTuple = 3 };

void put_u8(std::vector<std::byte>& out, std::uint8_t v) {
  out.push_back(static_cast<std::byte>(v));
}

void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

/// The slot words are written and read in place, as one u32 LE each,
/// spelled out byte by byte: the compiler merges them into one store or
/// load on a little-endian host.
void store_u32(std::byte* p, std::uint32_t v) {
  p[0] = static_cast<std::byte>(v);
  p[1] = static_cast<std::byte>(v >> 8);
  p[2] = static_cast<std::byte>(v >> 16);
  p[3] = static_cast<std::byte>(v >> 24);
}

std::uint32_t load_u32(const std::byte* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

void encode_value(const Value& v, std::vector<std::byte>& out) {
  switch (v.kind()) {
    case ValueKind::Bool:
      put_u8(out, kTagBool);
      put_u8(out, v.as_bool() ? 1 : 0);
      break;
    case ValueKind::Int:
      put_u8(out, kTagInt);
      put_u64(out, static_cast<std::uint64_t>(v.as_int()));
      break;
    case ValueKind::String: {
      put_u8(out, kTagString);
      const std::string& s = v.as_string();
      put_u32(out, static_cast<std::uint32_t>(s.size()));
      for (char c : s) out.push_back(static_cast<std::byte>(c));
      break;
    }
    case ValueKind::Tuple: {
      put_u8(out, kTagTuple);
      const Value::Tuple& t = v.as_tuple();
      put_u32(out, static_cast<std::uint32_t>(t.size()));
      for (const Value& e : t) encode_value(e, out);
      break;
    }
  }
}

struct Reader {
  const std::byte* p;
  const std::byte* end;

  [[noreturn]] static void corrupt() {
    throw std::runtime_error("decode_state: corrupt canonical state encoding");
  }
  std::uint8_t u8() {
    if (p == end) corrupt();
    return static_cast<std::uint8_t>(*p++);
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(u8()) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(u8()) << (8 * i);
    return v;
  }
};

Value decode_value(Reader& r) {
  switch (r.u8()) {
    case kTagBool:
      return Value::boolean(r.u8() != 0);
    case kTagInt:
      return Value::integer(static_cast<std::int64_t>(r.u64()));
    case kTagString: {
      const std::uint32_t n = r.u32();
      if (static_cast<std::size_t>(r.end - r.p) < n) Reader::corrupt();
      std::string s(reinterpret_cast<const char*>(r.p), n);
      r.p += n;
      return Value::string(std::move(s));
    }
    case kTagTuple: {
      const std::uint32_t n = r.u32();
      // Every element takes at least two bytes: a larger count is corrupt
      // and must not reach reserve().
      if (static_cast<std::size_t>(r.end - r.p) / 2 < n) Reader::corrupt();
      Value::Tuple t;
      t.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) t.push_back(decode_value(r));
      return Value::tuple(std::move(t));
    }
    default:
      Reader::corrupt();
  }
}

}  // namespace

void encode_state(const VarTable* vars, const State& s, std::vector<std::byte>& out) {
  const std::size_t n = s.size();
  const std::size_t indexed = vars == nullptr ? 0 : std::min(n, vars->size());
  std::size_t at = out.size();
  out.resize(at + 4 * (n + 1));
  store_u32(out.data() + at, static_cast<std::uint32_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    at += 4;
    const std::size_t pos =
        i < indexed ? vars->domain(static_cast<VarId>(i)).find(s[i]) : Domain::npos;
    if (pos < kEscapedSlot) {
      store_u32(out.data() + at, static_cast<std::uint32_t>(pos));
    } else {
      // encode_value appends, so out.data() is re-read for the next slot.
      store_u32(out.data() + at, kEscapedSlot);
      encode_value(s[i], out);
    }
  }
}

State decode_state(const VarTable* vars, const std::byte* data, std::size_t len) {
  Reader r{data, data + len};
  const std::uint32_t n = r.u32();
  if (static_cast<std::size_t>(r.end - r.p) / 4 < n) Reader::corrupt();  // truncated slots
  const std::byte* slot = r.p;
  r.p += std::size_t{4} * n;  // r now reads the escaped values
  std::vector<Value> values;
  values.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i, slot += 4) {
    const std::uint32_t pos = load_u32(slot);
    if (pos == kEscapedSlot) {
      values.push_back(decode_value(r));
      continue;
    }
    if (vars == nullptr || i >= vars->size() || pos >= vars->domain(i).size()) {
      Reader::corrupt();
    }
    values.push_back(vars->domain(i)[pos]);
  }
  if (r.p != r.end) Reader::corrupt();
  return State(std::move(values));
}

Fingerprint fingerprint_bytes(const std::byte* data, std::size_t len) {
  Fingerprint h = kFnvOffset;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= static_cast<std::uint8_t>(data[i]);
    h *= kFnvPrime;
  }
  return h;
}

Fingerprint apply_fingerprint_mask(Fingerprint fp) {
  return fp & g_fp_mask.load(std::memory_order_relaxed);
}

Fingerprint state_fingerprint(const VarTable* vars, const State& s) {
  std::vector<std::byte> buf;
  encode_state(vars, s, buf);
  return apply_fingerprint_mask(fingerprint_bytes(buf.data(), buf.size()));
}

void set_fingerprint_bits_for_test(unsigned bits) {
  const Fingerprint mask =
      (bits == 0 || bits >= 64) ? ~Fingerprint{0} : (Fingerprint{1} << bits) - 1;
  g_fp_mask.store(mask, std::memory_order_relaxed);
}

void set_state_id_limit_for_test(std::uint64_t limit) {
  g_id_limit.store(limit == 0 ? UINT32_MAX : limit, std::memory_order_relaxed);
}

std::uint64_t state_id_limit() { return g_id_limit.load(std::memory_order_relaxed); }

FingerprintCollision::FingerprintCollision(Fingerprint fp)
    : std::runtime_error(
          "fingerprint collision: two distinct states share the 64-bit "
          "fingerprint 0x" +
          [](Fingerprint f) {
            char hex[17];
            std::snprintf(hex, sizeof hex, "%016llx",
                          static_cast<unsigned long long>(f));
            return std::string(hex);
          }(fp) +
          " — refusing to merge them (the result would silently drop "
          "reachable states)"),
      fp_(fp) {}

StateIdExhausted::StateIdExhausted()
    : std::runtime_error(
          "state id space exhausted: interning one more state would alias "
          "the UINT32_MAX sentinel; rerun with --max-states below 2^32-1 or "
          "coarsen the model") {}

}  // namespace opentla

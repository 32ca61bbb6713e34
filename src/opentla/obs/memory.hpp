// opentla/obs/memory.hpp
//
// Domain-scoped memory accounting (obs v4). Subsystems attribute the
// bytes they retain to one of the obs::MemDomain buckets declared in
// obs.hpp — per-domain live/peak gauges plus a power-of-two
// allocation-size histogram — through three mechanisms, all runtime-gated
// on obs::enabled() and none of which hijacks global operator new:
//
//   * MemTally — an RAII byte tally owned by the object whose memory it
//     describes (StateStore, StateGraph, Oracle). add()
//     charges bytes when collection is on; the destructor releases
//     exactly what was charged, so toggling collection mid-lifetime never
//     leaves phantom live bytes.
//   * CountingAllocator<T> — a std::pmr-style counting allocator with a
//     fixed domain, for containers whose growth *is* the cost (frontier
//     deques, parallel work queues). The domain is a plain member, so
//     alloc and free always hit the same bucket regardless of what scope
//     the container reallocates under.
//   * MemScope — an RAII domain scope for code that wants a thread-local
//     "current domain" (defaults to MemDomain::Other), paired with
//     mem_scope_alloc/free for sites without a natural owner object.
//
// This header also owns the single RSS helper: the --progress sampler,
// the RunBudget memory ceiling, and the peak_rss_bytes gauge all read
// /proc/self/statm through read_rss_bytes(); statm_resident_bytes() is
// the pure pages-to-bytes conversion a unit test pins.

#pragma once

#include <cstddef>
#include <cstdint>
#include <new>

#include "opentla/obs/obs.hpp"

namespace opentla::obs {

/// Thread-local current domain, MemDomain::Other until a MemScope opens.
MemDomain current_mem_domain();

/// Runtime sub-gate for the accounting layer alone: while suspended,
/// mem_account_alloc records nothing (tallies accumulate no bytes, byte
/// estimators in OPENTLA_OBS_MEM_* macro arguments still run), so a
/// paired benchmark can price the accounting with the rest of the obs
/// layer (counters, spans) equally live on both sides. Frees for bytes
/// charged before suspension still land — a tally releases exactly what
/// it charged. Like toggling obs::enabled() mid-lifetime, suspending
/// around a CountingAllocator's life can dip a live cell below zero;
/// snapshots clamp to 0.
bool mem_accounting_suspended();
void set_mem_accounting_suspended(bool suspended);

/// RAII domain scope: allocations recorded through mem_scope_alloc (or a
/// CountingAllocator constructed with the current domain) while the scope
/// is open are attributed to `d`. Scopes nest; the previous domain is
/// restored on destruction.
class MemScope {
 public:
  explicit MemScope(MemDomain d);
  ~MemScope();
  MemScope(const MemScope&) = delete;
  MemScope& operator=(const MemScope&) = delete;

 private:
  MemDomain prev_;
};

/// Record `bytes` against the thread's current domain (see MemScope).
inline void mem_scope_alloc(std::uint64_t bytes) {
  if (enabled()) detail::mem_account_alloc(current_mem_domain(), bytes);
}
inline void mem_scope_free(std::uint64_t bytes) {
  if (enabled()) detail::mem_account_free(current_mem_domain(), bytes);
}

/// RAII byte tally for an owning object. `add(n)` charges n bytes to the
/// domain when collection is on and remembers the charge; the destructor
/// releases the accumulated total, so the registry's live gauge never
/// drifts negative on account of a tally (frees always match successful
/// charges). Copying an owner re-charges its bytes; moving transfers the
/// tally. Cheap enough to embed anywhere: one uint64 + the domain.
class MemTally {
 public:
  MemTally() = default;
  explicit MemTally(MemDomain d) : domain_(d) {}
  MemTally(const MemTally& other) : domain_(other.domain_) {
    if (other.bytes_ != 0 && detail::mem_account_alloc(domain_, other.bytes_)) {
      bytes_ = other.bytes_;
    }
  }
  MemTally& operator=(const MemTally& other) {
    if (this == &other) return *this;
    release();
    domain_ = other.domain_;
    if (other.bytes_ != 0 && detail::mem_account_alloc(domain_, other.bytes_)) {
      bytes_ = other.bytes_;
    }
    return *this;
  }
  MemTally(MemTally&& other) noexcept : domain_(other.domain_), bytes_(other.bytes_) {
    other.bytes_ = 0;
  }
  MemTally& operator=(MemTally&& other) noexcept {
    if (this == &other) return *this;
    release();
    domain_ = other.domain_;
    bytes_ = other.bytes_;
    other.bytes_ = 0;
    return *this;
  }
  ~MemTally() { release(); }

  /// Charge `n` more bytes. No-op while collection is off.
  void add(std::uint64_t n) {
    if (n != 0 && detail::mem_account_alloc(domain_, n)) bytes_ += n;
  }
  /// Release every charged byte (also what the destructor does).
  void release() {
    if (bytes_ != 0) {
      detail::mem_account_free(domain_, bytes_);
      bytes_ = 0;
    }
  }
  /// Replace the tally with a fresh total (re-measure sites).
  void set(std::uint64_t n) {
    release();
    add(n);
  }

  MemDomain domain() const { return domain_; }
  std::uint64_t bytes() const { return bytes_; }

 private:
  MemDomain domain_ = MemDomain::Other;
  std::uint64_t bytes_ = 0;
};

/// Minimal counting allocator: operator new/delete plus accounting
/// against a fixed domain. The domain travels with rebinds and copies, so
/// a container's internal reallocation always charges and releases the
/// same bucket. Frees are gated on the runtime flag exactly like allocs;
/// a toggle mid-container-lifetime can dip a domain's signed live cell
/// below zero, which snapshots clamp to 0.
template <typename T>
class CountingAllocator {
 public:
  using value_type = T;

  CountingAllocator() noexcept = default;
  explicit CountingAllocator(MemDomain d) noexcept : domain_(d) {}
  template <typename U>
  CountingAllocator(const CountingAllocator<U>& other) noexcept
      : domain_(other.domain()) {}

  T* allocate(std::size_t n) {
    if (enabled()) {
      detail::mem_account_alloc(domain_, static_cast<std::uint64_t>(n) * sizeof(T));
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (enabled()) {
      detail::mem_account_free(domain_, static_cast<std::uint64_t>(n) * sizeof(T));
    }
    ::operator delete(p);
  }

  MemDomain domain() const noexcept { return domain_; }

  friend bool operator==(const CountingAllocator& a, const CountingAllocator& b) {
    return a.domain_ == b.domain_;
  }

 private:
  MemDomain domain_ = MemDomain::Other;
};

// --- The shared RSS helper (satellite: one statm reader everywhere) ---

/// Parse the text of /proc/self/statm ("size resident shared ...", page
/// counts) and return resident bytes = resident pages * page_size.
/// Returns 0 on malformed input. Pure, for unit testing the conversion.
std::uint64_t statm_resident_bytes(const char* statm_text, std::uint64_t page_size);

/// Current resident set size in bytes, read from /proc/self/statm via
/// statm_resident_bytes. 0 when the file is unavailable.
std::uint64_t read_rss_bytes();

}  // namespace opentla::obs

#include "opentla/state/sharded_store.hpp"

#include <cstring>

#include "opentla/obs/obs.hpp"

namespace opentla {

namespace {
constexpr std::size_t kDefaultShards = 64;
constexpr std::size_t kInitialShardSlots = 256;  // power of two

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void grow_shard_table(std::vector<Fingerprint>& fps, std::vector<StateId>& ids,
                      std::vector<StateArena::Ref>& refs, std::size_t& mask) {
  const std::size_t new_slots = (mask + 1) * 2;
  std::vector<Fingerprint> nfps(new_slots, 0);
  std::vector<StateId> nids(new_slots, StateStore::kNone);
  std::vector<StateArena::Ref> nrefs(new_slots);
  const std::size_t nmask = new_slots - 1;
  for (std::size_t i = 0; i <= mask; ++i) {
    if (ids[i] == StateStore::kNone) continue;
    std::size_t j = fps[i] & nmask;
    while (nids[j] != StateStore::kNone) j = (j + 1) & nmask;
    nfps[j] = fps[i];
    nids[j] = ids[i];
    nrefs[j] = refs[i];
  }
  fps = std::move(nfps);
  ids = std::move(nids);
  refs = std::move(nrefs);
  mask = nmask;
}
}  // namespace

ShardedStateSet::ShardedStateSet(std::size_t shard_count, std::uint64_t spill_at,
                                 const VarTable* vars)
    : vars_(vars) {
  spill_.set_threshold(spill_at);
  const std::size_t n = round_up_pow2(shard_count == 0 ? kDefaultShards : shard_count);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->fps.assign(kInitialShardSlots, 0);
    shard->ids.assign(kInitialShardSlots, StateStore::kNone);
    shard->refs.assign(kInitialShardSlots, StateArena::Ref{});
    shard->mask = kInitialShardSlots - 1;
    shard->arena = std::make_unique<StateArena>(&spill_);
    shards_.push_back(std::move(shard));
  }
  mask_ = n - 1;
}

ShardedStateSet::InternResult ShardedStateSet::intern(const State& s) {
  // Encoding and fingerprinting are the expensive part of an intern; both
  // happen outside the shard lock, per inserting thread.
  thread_local std::vector<std::byte> scratch;
  scratch.clear();
  encode_state(vars_, s, scratch);
  const Fingerprint fp =
      apply_fingerprint_mask(fingerprint_bytes(scratch.data(), scratch.size()));
  // The shard index skips the fingerprint's lowest bits: the table's probe
  // start uses those, so reusing them for striping would correlate stripe
  // choice with slot choice.
  Shard& shard = *shards_[(fp >> 7) & mask_];
  std::unique_lock<std::mutex> lock(shard.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    contended_.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
  }
  if ((shard.entries + 1) * 10 >= (shard.mask + 1) * 7) {
    grow_shard_table(shard.fps, shard.ids, shard.refs, shard.mask);
  }
  std::size_t idx = fp & shard.mask;
  std::uint64_t probes = 0;
  while (shard.ids[idx] != StateStore::kNone) {
    if (shard.fps[idx] == fp) {
      const auto [bytes, len] = shard.arena->read(shard.refs[idx]);
      if (len == scratch.size() &&
          (len == 0 || std::memcmp(bytes, scratch.data(), len) == 0)) {
        OPENTLA_OBS_HIST(ShardProbeLength, probes);
        return {shard.ids[idx], false};
      }
      OPENTLA_OBS_COUNT(FingerprintCollisions);
      throw FingerprintCollision(fp);
    }
    idx = (idx + 1) & shard.mask;
    ++probes;
  }
  OPENTLA_OBS_HIST(ShardProbeLength, probes);
  // The id allocator is 64-bit: the exhaustion check cannot be out-raced
  // into wrapping, and every intern past the limit keeps throwing.
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  if (id >= state_id_limit()) throw StateIdExhausted();
  shard.fps[idx] = fp;
  shard.ids[idx] = static_cast<StateId>(id);
  shard.refs[idx] = shard.arena->append(scratch.data(), scratch.size());
  ++shard.entries;
  OPENTLA_OBS_MEM_TALLY_ADD(shard.mem, kInternSlotOverhead);
  return {static_cast<StateId>(id), true};
}

std::size_t ShardedStateSet::spilled_segments() const {
  std::size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->arena->spilled_segments();
  }
  return total;
}

}  // namespace opentla

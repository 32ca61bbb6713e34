#include "opentla/state/state.hpp"

#include <cstring>
#include <sstream>

#include "opentla/obs/obs.hpp"

namespace opentla {

std::size_t State::hash() const {
  std::size_t h = 1469598103934665603ULL;
  for (const Value& v : values_) {
    h ^= v.hash();
    h *= 1099511628211ULL;
  }
  return h;
}

std::string State::to_string(const VarTable& vars) const {
  std::ostringstream os;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (i != 0) os << ", ";
    os << vars.name(static_cast<VarId>(i)) << " = " << values_[i];
  }
  return os.str();
}

std::uint64_t state_deep_bytes(const State& s) {
  std::uint64_t bytes = 0;
  for (const Value& v : s.values()) bytes += value_deep_bytes(v);
  return bytes;
}

namespace {
constexpr std::size_t kInitialTableSlots = 1024;  // power of two
}  // namespace

StateStore::StateStore(const VarTable* vars)
    : vars_(vars),
      fps_(kInitialTableSlots, 0),
      slot_ids_(kInitialTableSlots, kNone),
      table_mask_(kInitialTableSlots - 1),
      spill_(std::make_unique<SpillGroup>()),
      arena_(std::make_unique<StateArena>(spill_.get())) {}

StateStore::~StateStore() = default;

StateStore& StateStore::operator=(StateStore&& other) noexcept {
  if (this != &other) {
    // The old arena unregisters its resident bytes from the old spill
    // group on destruction, so it must go before spill_ is replaced.
    arena_.reset();
    vars_ = other.vars_;
    fps_ = std::move(other.fps_);
    slot_ids_ = std::move(other.slot_ids_);
    table_mask_ = other.table_mask_;
    refs_ = std::move(other.refs_);
    spill_ = std::move(other.spill_);
    arena_ = std::move(other.arena_);
    scratch_ = std::move(other.scratch_);
    mem_ = std::move(other.mem_);
  }
  return *this;
}

void StateStore::set_spill_threshold(std::uint64_t bytes) {
  spill_->set_threshold(bytes);
}

void StateStore::grow_table() {
  const std::size_t new_slots = (table_mask_ + 1) * 2;
  std::vector<Fingerprint> fps(new_slots, 0);
  std::vector<StateId> ids(new_slots, kNone);
  const std::size_t mask = new_slots - 1;
  for (std::size_t i = 0; i <= table_mask_; ++i) {
    if (slot_ids_[i] == kNone) continue;
    std::size_t j = fps_[i] & mask;
    while (ids[j] != kNone) j = (j + 1) & mask;
    fps[j] = fps_[i];
    ids[j] = slot_ids_[i];
  }
  fps_ = std::move(fps);
  slot_ids_ = std::move(ids);
  table_mask_ = mask;
}

StateId StateStore::intern(const State& s) {
  // Grow before probing (at ~0.7 load) so the insertion slot found below
  // stays valid.
  if ((refs_.size() + 1) * 10 >= (table_mask_ + 1) * 7) grow_table();
  scratch_.clear();
  encode_state(vars_, s, scratch_);
  const Fingerprint fp =
      apply_fingerprint_mask(fingerprint_bytes(scratch_.data(), scratch_.size()));
  std::size_t idx = fp & table_mask_;
  std::uint64_t probes = 0;
  while (slot_ids_[idx] != kNone) {
    if (fps_[idx] == fp) {
      // Fingerprint hit: verify against the arena copy. Equal bytes mean
      // the same state (the encoding is injective); unequal bytes are a
      // genuine 64-bit collision — hard error, never a silent merge.
      const auto [bytes, len] = arena_->read(refs_[slot_ids_[idx]]);
      if (len == scratch_.size() &&
          (len == 0 || std::memcmp(bytes, scratch_.data(), len) == 0)) {
        OPENTLA_OBS_HIST(ShardProbeLength, probes);
        return slot_ids_[idx];
      }
      OPENTLA_OBS_COUNT(FingerprintCollisions);
      throw FingerprintCollision(fp);
    }
    idx = (idx + 1) & table_mask_;
    ++probes;
  }
  OPENTLA_OBS_HIST(ShardProbeLength, probes);
  if (refs_.size() >= state_id_limit()) throw StateIdExhausted();
  const StateId id = static_cast<StateId>(refs_.size());
  refs_.push_back(arena_->append(scratch_.data(), scratch_.size()));
  fps_[idx] = fp;
  slot_ids_[idx] = id;
  OPENTLA_OBS_MEM_TALLY_ADD(mem_, kInternSlotOverhead);
  return id;
}

StateId StateStore::find(const State& s) const {
  scratch_.clear();
  encode_state(vars_, s, scratch_);
  const Fingerprint fp =
      apply_fingerprint_mask(fingerprint_bytes(scratch_.data(), scratch_.size()));
  std::size_t idx = fp & table_mask_;
  while (slot_ids_[idx] != kNone) {
    if (fps_[idx] == fp) {
      const auto [bytes, len] = arena_->read(refs_[slot_ids_[idx]]);
      if (len == scratch_.size() &&
          (len == 0 || std::memcmp(bytes, scratch_.data(), len) == 0)) {
        return slot_ids_[idx];
      }
      // A distinct state sharing the fingerprint is simply "not interned"
      // here; interning it later raises the hard collision error.
      return kNone;
    }
    idx = (idx + 1) & table_mask_;
  }
  return kNone;
}

State StateStore::get(StateId id) const {
  const auto [bytes, len] = arena_->read(refs_.at(id));
  return decode_state(vars_, bytes, len);
}

std::pair<const std::byte*, std::size_t> StateStore::encoded(StateId id) const {
  return arena_->read(refs_.at(id));
}

}  // namespace opentla

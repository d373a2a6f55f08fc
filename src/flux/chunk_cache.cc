#include "src/flux/chunk_cache.h"

#include <algorithm>

namespace flux {

void ChunkCache::set_tracer(Tracer* tracer) {
#if FLUX_TRACE_ENABLED
  trace_hits_ = tracer ? tracer->counter(trace_names::kCacheHits) : nullptr;
  trace_misses_ =
      tracer ? tracer->counter(trace_names::kCacheMisses) : nullptr;
  trace_insertions_ =
      tracer ? tracer->counter(trace_names::kCacheInsertions) : nullptr;
  trace_refreshes_ =
      tracer ? tracer->counter(trace_names::kCacheRefreshes) : nullptr;
  trace_evictions_ =
      tracer ? tracer->counter(trace_names::kCacheEvictions) : nullptr;
  trace_verify_failures_ =
      tracer ? tracer->counter(trace_names::kCacheVerifyFailures) : nullptr;
#else
  (void)tracer;
#endif
}

void ChunkCache::Insert(const Hash128& hash, ByteSpan content) {
  const uint32_t found = Find(hash);
  if (found != kNil) {
    // Already cached: refresh recency (and content, in case the entry was
    // poisoned since — Insert is the one writer that knows good bytes).
    Entry& entry = entries_[found];
    Unlink(found);
    PushFront(found);
    if (entry.content.size() != content.size() ||
        !std::equal(content.begin(), content.end(), entry.content.begin())) {
      bytes_ -= entry.content.size();
      entry.content.assign(content.begin(), content.end());
      bytes_ += content.size();
    }
    ++stats_.refreshes;
    FLUX_TRACE_COUNTER_ADD(trace_refreshes_, 1);
    EvictToBudget();
    return;
  }
  if (content.size() > budget_bytes_) {
    return;
  }
  uint32_t index = free_;
  if (index != kNil) {
    free_ = entries_[index].next;
  } else {
    index = static_cast<uint32_t>(entries_.size());
    entries_.emplace_back();
  }
  Entry& entry = entries_[index];
  entry.hash = hash;
  entry.content.assign(content.begin(), content.end());
  PushFront(index);
  IndexInsert(index);
  bytes_ += content.size();
  ++stats_.insertions;
  FLUX_TRACE_COUNTER_ADD(trace_insertions_, 1);
  EvictToBudget();
}

bool ChunkCache::HasValid(const Hash128& hash) {
  const uint32_t found = Find(hash);
  if (found == kNil) {
    ++stats_.misses;
    FLUX_TRACE_COUNTER_ADD(trace_misses_, 1);
    return false;
  }
  const Bytes& content = entries_[found].content;
  if (FluxHash128(ByteSpan(content.data(), content.size())) != hash) {
    // Poisoned entry: drop it so the peer ships the full chunk.
    ++stats_.verify_failures;
    FLUX_TRACE_COUNTER_ADD(trace_verify_failures_, 1);
    FLUX_EVENT(flight_recorder_, flight_events::kSubCache,
               flight_events::kCacheVerifyFailure, EventSeverity::kWarning,
               content.size(), live_);
    Drop(found);
    return false;
  }
  Unlink(found);
  PushFront(found);
  ++stats_.hits;
  FLUX_TRACE_COUNTER_ADD(trace_hits_, 1);
  return true;
}

bool ChunkCache::Fetch(const Hash128& hash, Bytes& out) {
  if (!HasValid(hash)) {
    return false;
  }
  out = entries_[head_].content;  // HasValid bumped it most-recent
  return true;
}

bool ChunkCache::Remove(const Hash128& hash) {
  const uint32_t found = Find(hash);
  if (found == kNil) {
    return false;
  }
  Drop(found);
  return true;
}

void ChunkCache::Clear() {
  entries_.clear();
  slots_.clear();
  live_ = 0;
  head_ = tail_ = free_ = kNil;
  bytes_ = 0;
}

void ChunkCache::set_budget_bytes(uint64_t budget_bytes) {
  budget_bytes_ = budget_bytes;
  EvictToBudget();
}

bool ChunkCache::PoisonForTest(const Hash128& hash) {
  const uint32_t found = Find(hash);
  if (found == kNil || entries_[found].content.empty()) {
    return false;
  }
  entries_[found].content[0] ^= 0x01;
  return true;
}

std::vector<Hash128> ChunkCache::Keys() const {
  std::vector<Hash128> keys;
  keys.reserve(live_);
  for (uint32_t i = head_; i != kNil; i = entries_[i].next) {
    keys.push_back(entries_[i].hash);
  }
  return keys;
}

void ChunkCache::EvictToBudget() {
  while (bytes_ > budget_bytes_ && tail_ != kNil) {
    Drop(tail_);
    ++stats_.evictions;
    FLUX_TRACE_COUNTER_ADD(trace_evictions_, 1);
  }
}

uint32_t ChunkCache::Find(const Hash128& hash) const {
  if (slots_.empty()) {
    return kNil;
  }
  const size_t mask = slots_.size() - 1;
  for (size_t pos = hash.lo & mask;; pos = (pos + 1) & mask) {
    const uint32_t index = slots_[pos];
    if (index == kNil || entries_[index].hash == hash) {
      return index;
    }
  }
}

size_t ChunkCache::SlotOf(uint32_t index) const {
  const size_t mask = slots_.size() - 1;
  size_t pos = entries_[index].hash.lo & mask;
  while (slots_[pos] != index) {
    pos = (pos + 1) & mask;
  }
  return pos;
}

void ChunkCache::IndexInsert(uint32_t index) {
  // At most half full keeps probe chains short; the new entry counts.
  if ((live_ + 1) * 2 > slots_.size()) {
    Grow();
  }
  Place(index);
  ++live_;
}

void ChunkCache::Place(uint32_t index) {
  const size_t mask = slots_.size() - 1;
  size_t pos = entries_[index].hash.lo & mask;
  while (slots_[pos] != kNil) {
    pos = (pos + 1) & mask;
  }
  slots_[pos] = index;
}

void ChunkCache::IndexErase(uint32_t index) {
  // Backward-shift deletion: walk the run after the hole and pull back
  // every entry whose home slot does not lie cyclically inside (hole, pos],
  // so no probe chain ever crosses an empty slot it should not.
  const size_t mask = slots_.size() - 1;
  size_t hole = SlotOf(index);
  for (size_t pos = (hole + 1) & mask; slots_[pos] != kNil;
       pos = (pos + 1) & mask) {
    const size_t home = entries_[slots_[pos]].hash.lo & mask;
    if (((pos - home) & mask) >= ((pos - hole) & mask)) {
      slots_[hole] = slots_[pos];
      hole = pos;
    }
  }
  slots_[hole] = kNil;
  --live_;
}

void ChunkCache::Grow() {
  constexpr size_t kMinSlots = 16;
  std::vector<uint32_t> old = std::move(slots_);
  slots_.assign(std::max(kMinSlots, old.size() * 2), kNil);
  for (const uint32_t index : old) {
    if (index != kNil) {
      Place(index);
    }
  }
}

void ChunkCache::Unlink(uint32_t index) {
  Entry& entry = entries_[index];
  (entry.prev != kNil ? entries_[entry.prev].next : head_) = entry.next;
  (entry.next != kNil ? entries_[entry.next].prev : tail_) = entry.prev;
  entry.prev = entry.next = kNil;
}

void ChunkCache::PushFront(uint32_t index) {
  Entry& entry = entries_[index];
  entry.prev = kNil;
  entry.next = head_;
  (head_ != kNil ? entries_[head_].prev : tail_) = index;
  head_ = index;
}

void ChunkCache::Drop(uint32_t index) {
  Unlink(index);
  IndexErase(index);
  Entry& entry = entries_[index];
  bytes_ -= entry.content.size();
  Bytes().swap(entry.content);
  entry.next = free_;
  free_ = index;
}

}  // namespace flux

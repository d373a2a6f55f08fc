// Per-device content-addressed chunk store for delta transfer.
//
// Every migration ships the CRIA image as fixed-size chunks; on the
// phone<->tablet ping-pong pattern Flux is built for, most chunks are
// byte-identical to ones the peer already saw in an earlier hop. Each
// device keeps a ChunkCache of raw chunk content keyed by FluxHash128:
// the home side queries the guest's cache through a hash manifest before
// streaming and replaces hits with 16-byte `ref` chunks; the guest side
// resolves refs locally and re-inserts everything it restores, so the
// cache warms in both directions.
//
// Entries are verified against their key on every query: a poisoned entry
// (bit rot, a torn write) is indistinguishable from a miss, so the home
// side ships the full chunk instead of letting a bad cache corrupt a
// restore. Eviction is LRU by bytes against a per-device budget.
//
// Layout (DESIGN.md §5): the fleet coordinator keeps one cache per modeled
// device, 100k of them, so the store is flat rather than node-based. All
// entries live in one vector; the LRU list is threaded through them by
// uint32 prev/next indices, and freed slots are recycled through a free
// list threaded the same way. The index is a power-of-two open-addressing
// table of entry indices keyed on `hash.lo` (already uniformly mixed), with
// linear probing and backward-shift deletion, kept at most half full. An
// empty cache allocates nothing.
#ifndef FLUX_SRC_FLUX_CHUNK_CACHE_H_
#define FLUX_SRC_FLUX_CHUNK_CACHE_H_

#include <cstdint>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/hash.h"
#include "src/flux/flight_recorder.h"
#include "src/flux/trace.h"

namespace flux {

// Raw bytes covered by one cache entry, and the one chunk size of the
// migration chunk stream and the fleet coordinator's chunk model:
// pairing-time seeding and the migration engine must agree on it or seeded
// entries can never match an image chunk.
inline constexpr uint64_t kChunkCacheChunkBytes = 256 * 1024;

class ChunkCache {
 public:
  struct Stats {
    uint64_t insertions = 0;       // new entries stored
    uint64_t refreshes = 0;        // inserts that found the entry present
    uint64_t hits = 0;             // verified lookups that matched
    uint64_t misses = 0;           // lookups with no entry
    uint64_t verify_failures = 0;  // entries dropped on content mismatch
    uint64_t evictions = 0;        // entries dropped for the byte budget
  };

  explicit ChunkCache(uint64_t budget_bytes) : budget_bytes_(budget_bytes) {}

  // Stores (a copy of) `content` under `hash`, bumping it most-recent and
  // evicting least-recently-used entries past the byte budget. An entry
  // larger than the whole budget is not stored. The caller vouches that
  // `hash` is the content's FluxHash128; Insert does not re-hash.
  void Insert(const Hash128& hash, ByteSpan content);

  // True if the entry exists AND its content still hashes to `hash`.
  // Bumps the entry most-recent on success; drops it on verify failure.
  // This is the manifest-time query: answering "have" for a poisoned entry
  // would make the home side ship an unusable ref.
  bool HasValid(const Hash128& hash);

  // Fetches a verified copy of the entry into `out`; same verification and
  // LRU semantics as HasValid. Returns false on miss or verify failure.
  bool Fetch(const Hash128& hash, Bytes& out);

  // Drops one entry; returns whether it existed.
  bool Remove(const Hash128& hash);

  void Clear();

  // Shrinking the budget evicts immediately.
  void set_budget_bytes(uint64_t budget_bytes);
  uint64_t budget_bytes() const { return budget_bytes_; }
  uint64_t bytes() const { return bytes_; }
  size_t entries() const { return live_; }
  const Stats& stats() const { return stats_; }

  // Mirrors the Stats increments into cache.* trace counters (null
  // detaches). Counter pointers are cached here so the hot lookups pay one
  // pointer test, not a registry probe.
  void set_tracer(Tracer* tracer);

  // Emits a cache.verify_failure flight-recorder event whenever a poisoned
  // entry is dropped (content no longer matches its key).
  void set_flight_recorder(FlightRecorder* recorder) {
    flight_recorder_ = recorder;
  }

  // Fault injection for tests: flips one bit of the stored content so the
  // entry no longer matches its key. Returns whether the entry existed.
  bool PoisonForTest(const Hash128& hash);

  // Every key currently cached, most recently used first (for tests that
  // poison or drop the whole store).
  std::vector<Hash128> Keys() const;

 private:
  static constexpr uint32_t kNil = ~uint32_t{0};

  struct Entry {
    Hash128 hash;
    Bytes content;
    uint32_t prev = kNil;  // toward the most recently used end
    uint32_t next = kNil;  // toward the least recently used end; free list
  };

  // Index of the entry keyed `hash`, or kNil.
  uint32_t Find(const Hash128& hash) const;
  // Slot-table position holding entry `index` (which must be indexed).
  size_t SlotOf(uint32_t index) const;
  void IndexInsert(uint32_t index);
  // Puts entry `index` in the first free slot of its probe chain.
  void Place(uint32_t index);
  void IndexErase(uint32_t index);
  void Grow();
  void Unlink(uint32_t index);
  void PushFront(uint32_t index);
  // Unlinks, unindexes and frees entry `index`, releasing its content.
  void Drop(uint32_t index);
  void EvictToBudget();

  uint64_t budget_bytes_;
  uint64_t bytes_ = 0;
  std::vector<Entry> entries_;
  std::vector<uint32_t> slots_;  // entry index per slot, kNil when empty
  size_t live_ = 0;
  uint32_t head_ = kNil;  // most recently used
  uint32_t tail_ = kNil;  // least recently used
  uint32_t free_ = kNil;  // first recycled entry
  Stats stats_;
  TraceCounter* trace_hits_ = nullptr;
  TraceCounter* trace_misses_ = nullptr;
  TraceCounter* trace_insertions_ = nullptr;
  TraceCounter* trace_refreshes_ = nullptr;
  TraceCounter* trace_evictions_ = nullptr;
  TraceCounter* trace_verify_failures_ = nullptr;
  FlightRecorder* flight_recorder_ = nullptr;
};

}  // namespace flux

#endif  // FLUX_SRC_FLUX_CHUNK_CACHE_H_

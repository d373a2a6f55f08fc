// ChunkCache tests: the budget-bounded, verified LRU against a reference
// model. The model is the plainest possible implementation of the cache's
// contract (a std::list in recency order plus a std::map index); a seeded
// random op sequence drives both, and after every op the recency order,
// byte and entry counts, and every Stats field (and its trace counter)
// must agree. One key family collides in the low bits of `hash.lo`, which
// is what the cache's slot table is keyed on, so probe chains, wrap-around,
// table growth and backward-shift deletion all run.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <list>
#include <map>
#include <string>
#include <vector>

#include "src/base/hash.h"
#include "src/base/rng.h"
#include "src/base/sim_clock.h"
#include "src/flux/chunk_cache.h"
#include "src/flux/trace.h"

namespace flux {
namespace {

ByteSpan Span(const Bytes& b) { return ByteSpan(b.data(), b.size()); }

// The reference: the cache's documented semantics, node-based and obvious.
class ModelCache {
 public:
  explicit ModelCache(uint64_t budget) : budget_(budget) {}

  void Insert(const Hash128& hash, const Bytes& content) {
    auto it = index_.find(hash);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      bytes_ -= it->second->second.size();
      it->second->second = content;
      bytes_ += content.size();
      ++stats_.refreshes;
      EvictToBudget();
      return;
    }
    if (content.size() > budget_) {
      return;
    }
    lru_.emplace_front(hash, content);
    index_[hash] = lru_.begin();
    bytes_ += content.size();
    ++stats_.insertions;
    EvictToBudget();
  }

  bool HasValid(const Hash128& hash) {
    auto it = index_.find(hash);
    if (it == index_.end()) {
      ++stats_.misses;
      return false;
    }
    if (FluxHash128(Span(it->second->second)) != hash) {
      ++stats_.verify_failures;
      Erase(it);
      return false;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.hits;
    return true;
  }

  bool Fetch(const Hash128& hash, Bytes& out) {
    if (!HasValid(hash)) {
      return false;
    }
    out = lru_.front().second;
    return true;
  }

  bool Remove(const Hash128& hash) {
    auto it = index_.find(hash);
    if (it == index_.end()) {
      return false;
    }
    Erase(it);
    return true;
  }

  bool Poison(const Hash128& hash) {
    auto it = index_.find(hash);
    if (it == index_.end() || it->second->second.empty()) {
      return false;
    }
    it->second->second[0] ^= 0x01;
    return true;
  }

  void Clear() {
    lru_.clear();
    index_.clear();
    bytes_ = 0;
  }

  void SetBudget(uint64_t budget) {
    budget_ = budget;
    EvictToBudget();
  }

  std::vector<Hash128> Keys() const {
    std::vector<Hash128> keys;
    for (const auto& [hash, content] : lru_) {
      keys.push_back(hash);
    }
    return keys;
  }

  uint64_t bytes() const { return bytes_; }
  size_t entries() const { return index_.size(); }
  const ChunkCache::Stats& stats() const { return stats_; }

 private:
  using Lru = std::list<std::pair<Hash128, Bytes>>;

  void Erase(std::map<Hash128, Lru::iterator>::iterator it) {
    bytes_ -= it->second->second.size();
    lru_.erase(it->second);
    index_.erase(it);
  }

  void EvictToBudget() {
    while (bytes_ > budget_ && !lru_.empty()) {
      bytes_ -= lru_.back().second.size();
      index_.erase(lru_.back().first);
      lru_.pop_back();
      ++stats_.evictions;
    }
  }

  uint64_t budget_;
  uint64_t bytes_ = 0;
  Lru lru_;  // front = most recently used
  std::map<Hash128, Lru::iterator> index_;
  ChunkCache::Stats stats_;
};

struct Key {
  Hash128 hash;
  Bytes content;  // hashes to `hash`
};

Bytes SeedBytes(const std::string& seed, size_t size) {
  Bytes out(size);
  for (size_t i = 0; i < size; ++i) {
    out[i] = static_cast<uint8_t>(seed[i % seed.size()] + i);
  }
  return out;
}

// 48 ordinary keys of assorted sizes (one of them empty), plus 24 whose
// hash.lo agree in the low 12 bits with one of three targets: the last
// slot (chains wrap to slot 0), the one before it, and slot 0. That holds
// for every table size up to 4096 slots.
std::vector<Key> MakeKeys() {
  std::vector<Key> keys;
  for (int i = 0; i < 48; ++i) {
    Key key;
    key.content = SeedBytes("plain/" + std::to_string(i),
                            i == 0 ? 0 : static_cast<size_t>(7 + i * 13 % 300));
    key.hash = FluxHash128(Span(key.content));
    keys.push_back(key);
  }
  const uint64_t targets[3] = {0xFFF, 0xFFE, 0x000};
  int found[3] = {0, 0, 0};
  for (int i = 0; found[0] + found[1] + found[2] < 24; ++i) {
    Key key;
    key.content = SeedBytes("collide/" + std::to_string(i),
                            static_cast<size_t>(16 + i % 48));
    key.hash = FluxHash128(Span(key.content));
    for (int t = 0; t < 3; ++t) {
      if ((key.hash.lo & 0xFFF) == targets[t] && found[t] < 8) {
        ++found[t];
        keys.push_back(key);
      }
    }
  }
  return keys;
}

void ExpectSame(const ChunkCache& cache, const ModelCache& model,
                Tracer& tracer, int step) {
  SCOPED_TRACE("step " + std::to_string(step));
  ASSERT_EQ(cache.Keys(), model.Keys());
  ASSERT_EQ(cache.bytes(), model.bytes());
  ASSERT_EQ(cache.entries(), model.entries());
  const ChunkCache::Stats& got = cache.stats();
  const ChunkCache::Stats& want = model.stats();
  ASSERT_EQ(got.insertions, want.insertions);
  ASSERT_EQ(got.refreshes, want.refreshes);
  ASSERT_EQ(got.hits, want.hits);
  ASSERT_EQ(got.misses, want.misses);
  ASSERT_EQ(got.verify_failures, want.verify_failures);
  ASSERT_EQ(got.evictions, want.evictions);
#if FLUX_TRACE_ENABLED
  ASSERT_EQ(tracer.counter(trace_names::kCacheInsertions)->value(),
            want.insertions);
  ASSERT_EQ(tracer.counter(trace_names::kCacheRefreshes)->value(),
            want.refreshes);
  ASSERT_EQ(tracer.counter(trace_names::kCacheHits)->value(), want.hits);
  ASSERT_EQ(tracer.counter(trace_names::kCacheMisses)->value(), want.misses);
  ASSERT_EQ(tracer.counter(trace_names::kCacheVerifyFailures)->value(),
            want.verify_failures);
  ASSERT_EQ(tracer.counter(trace_names::kCacheEvictions)->value(),
            want.evictions);
#else
  (void)tracer;
#endif
}

TEST(ChunkCacheModelTest, RandomOpsMatchTheReferenceModel) {
  const std::vector<Key> keys = MakeKeys();
  ASSERT_EQ(keys.size(), 72u);
  const uint64_t budgets[] = {0, 64, 700, 3000, uint64_t{1} << 20};
  SimClock clock;
  Tracer tracer(&clock);
  ChunkCache cache(uint64_t{1} << 20);
  cache.set_tracer(&tracer);
  ModelCache model(uint64_t{1} << 20);
  Rng rng(0xC0FFEE);
  constexpr int kSteps = 40000;
  for (int step = 0; step < kSteps; ++step) {
    // Mostly the colliding family in one stretch of the run, mostly the
    // plain keys in another, so both long chains and growth show up.
    const bool colliding = (step / 2000) % 2 == 1 ? rng.NextBool(0.8)
                                                  : rng.NextBool(0.2);
    const Key& key = colliding ? keys[48 + rng.NextBelow(24)]
                               : keys[rng.NextBelow(48)];
    const uint64_t op = rng.NextBelow(100);
    if (op < 40) {
      cache.Insert(key.hash, Span(key.content));
      model.Insert(key.hash, key.content);
    } else if (op < 44) {
      // A refresh whose bytes (and size) differ from the stored ones:
      // the caller vouches for the hash, so this stores unverifiable
      // content that the next query must drop.
      const Bytes other = SeedBytes("other/" + std::to_string(step),
                                    1 + rng.NextBelow(200));
      cache.Insert(key.hash, Span(other));
      model.Insert(key.hash, other);
    } else if (op < 64) {
      ASSERT_EQ(cache.HasValid(key.hash), model.HasValid(key.hash));
    } else if (op < 76) {
      Bytes got;
      Bytes want;
      const bool hit = cache.Fetch(key.hash, got);
      ASSERT_EQ(hit, model.Fetch(key.hash, want));
      if (hit) {
        ASSERT_EQ(got, want);
      }
    } else if (op < 86) {
      ASSERT_EQ(cache.Remove(key.hash), model.Remove(key.hash));
    } else if (op < 92) {
      ASSERT_EQ(cache.PoisonForTest(key.hash), model.Poison(key.hash));
    } else if (op < 99) {
      const uint64_t budget = budgets[rng.NextBelow(std::size(budgets))];
      cache.set_budget_bytes(budget);
      model.SetBudget(budget);
    } else if (rng.NextBool(0.1)) {
      cache.Clear();
      model.Clear();
    }
    ExpectSame(cache, model, tracer, step);
  }
}

TEST(ChunkCacheModelTest, CollidingKeysSurviveGrowthAndDeletion) {
  // Every colliding key in one cache: a table that grows from 16 slots
  // with all of them on one wrapped run, then deletions from the middle of
  // the run must leave every survivor reachable.
  const std::vector<Key> keys = MakeKeys();
  ChunkCache cache(uint64_t{1} << 20);
  for (size_t i = 48; i < keys.size(); ++i) {
    cache.Insert(keys[i].hash, Span(keys[i].content));
  }
  ASSERT_EQ(cache.entries(), 24u);
  for (size_t i = 48; i < keys.size(); i += 3) {
    ASSERT_TRUE(cache.Remove(keys[i].hash));
  }
  for (size_t i = 48; i < keys.size(); ++i) {
    EXPECT_EQ(cache.HasValid(keys[i].hash), (i - 48) % 3 != 0) << i;
  }
  EXPECT_EQ(cache.entries(), 16u);
  // Freed entries are recycled: re-inserting fills the same store.
  for (size_t i = 48; i < keys.size(); i += 3) {
    cache.Insert(keys[i].hash, Span(keys[i].content));
  }
  EXPECT_EQ(cache.entries(), 24u);
  for (size_t i = 48; i < keys.size(); ++i) {
    EXPECT_TRUE(cache.HasValid(keys[i].hash)) << i;
  }
}

// The cache itself: budget-bounded LRU with verified reads.
TEST(ChunkCacheTest, LruEvictionVerificationAndBudget) {
  ChunkCache cache(/*budget_bytes=*/1024);
  Bytes chunk_a(400, 0x11);
  Bytes chunk_b(400, 0x22);
  Bytes chunk_c(400, 0x33);
  const Hash128 ha = FluxHash128(ByteSpan(chunk_a.data(), chunk_a.size()));
  const Hash128 hb = FluxHash128(ByteSpan(chunk_b.data(), chunk_b.size()));
  const Hash128 hc = FluxHash128(ByteSpan(chunk_c.data(), chunk_c.size()));

  cache.Insert(ha, ByteSpan(chunk_a.data(), chunk_a.size()));
  cache.Insert(hb, ByteSpan(chunk_b.data(), chunk_b.size()));
  EXPECT_TRUE(cache.HasValid(ha));  // bump A ahead of B
  cache.Insert(hc, ByteSpan(chunk_c.data(), chunk_c.size()));

  // 1200 bytes over a 1024 budget: B (least recent) was evicted.
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_FALSE(cache.HasValid(hb));
  EXPECT_TRUE(cache.HasValid(ha));
  EXPECT_TRUE(cache.HasValid(hc));
  EXPECT_EQ(cache.stats().evictions, 1u);

  // A poisoned entry fails verification once and is gone.
  ASSERT_TRUE(cache.PoisonForTest(ha));
  EXPECT_FALSE(cache.HasValid(ha));
  EXPECT_EQ(cache.stats().verify_failures, 1u);
  EXPECT_EQ(cache.entries(), 1u);

  // Fetch returns the exact bytes; an oversized insert is refused.
  Bytes out;
  EXPECT_TRUE(cache.Fetch(hc, out));
  EXPECT_EQ(out, chunk_c);
  Bytes huge(2048, 0x44);
  cache.Insert(FluxHash128(ByteSpan(huge.data(), huge.size())),
               ByteSpan(huge.data(), huge.size()));
  EXPECT_EQ(cache.entries(), 1u);
}

}  // namespace
}  // namespace flux

#include "numasim/l3_cache.h"

#include <gtest/gtest.h>

#include <list>
#include <unordered_map>
#include <vector>

#include "simcore/rng.h"

namespace elastic::numasim {
namespace {

TEST(L3CacheTest, MissThenHit) {
  L3Cache cache(4);
  EXPECT_FALSE(cache.Access(1));
  EXPECT_TRUE(cache.Access(1));
}

TEST(L3CacheTest, EvictsLeastRecentlyUsed) {
  L3Cache cache(2);
  cache.Access(1);
  cache.Access(2);
  cache.Access(1);      // 1 is now MRU
  cache.Access(3);      // evicts 2
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
}

TEST(L3CacheTest, CapacityIsRespected) {
  L3Cache cache(8);
  for (PageId p = 0; p < 100; ++p) cache.Access(p);
  EXPECT_EQ(cache.size(), 8);
}

TEST(L3CacheTest, InvalidateRemoves) {
  L3Cache cache(4);
  cache.Access(42);
  EXPECT_TRUE(cache.Invalidate(42));
  EXPECT_FALSE(cache.Contains(42));
  EXPECT_FALSE(cache.Invalidate(42));  // second time: nothing there
}

TEST(L3CacheTest, ClearDropsEverything) {
  L3Cache cache(4);
  cache.Access(1);
  cache.Access(2);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0);
  EXPECT_FALSE(cache.Contains(1));
}

TEST(L3CacheTest, WorkingSetLargerThanCacheAlwaysMisses) {
  // Sequential scan of 2x the capacity: LRU gives zero hits on re-scan.
  L3Cache cache(16);
  for (int round = 0; round < 2; ++round) {
    for (PageId p = 0; p < 32; ++p) {
      EXPECT_FALSE(cache.Access(p)) << "round " << round << " page " << p;
    }
  }
}

TEST(L3CacheTest, WorkingSetWithinCacheAlwaysHitsAfterWarmup) {
  L3Cache cache(32);
  for (PageId p = 0; p < 16; ++p) cache.Access(p);
  for (int round = 0; round < 3; ++round) {
    for (PageId p = 0; p < 16; ++p) {
      EXPECT_TRUE(cache.Access(p));
    }
  }
}

/// The list + hash-map LRU the array cache replaced, kept here as the
/// reference the array cache must match access for access.
class ReferenceLru {
 public:
  explicit ReferenceLru(int capacity) : capacity_(capacity) {}

  /// Returns true on hit; on a miss that evicts, stores the victim.
  bool Access(PageId page, PageId* victim) {
    auto it = map_.find(page);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return true;
    }
    if (static_cast<int>(map_.size()) >= capacity_) {
      *victim = lru_.back();
      lru_.pop_back();
      map_.erase(*victim);
    }
    lru_.push_front(page);
    map_[page] = lru_.begin();
    return false;
  }
  bool Contains(PageId page) const { return map_.count(page) != 0; }
  bool Invalidate(PageId page) {
    auto it = map_.find(page);
    if (it == map_.end()) return false;
    lru_.erase(it->second);
    map_.erase(it);
    return true;
  }
  void Clear() {
    lru_.clear();
    map_.clear();
  }
  int64_t size() const { return static_cast<int64_t>(map_.size()); }

 private:
  int capacity_;
  std::list<PageId> lru_;
  std::unordered_map<PageId, std::list<PageId>::iterator> map_;
};

class L3CacheDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(L3CacheDifferentialTest, MatchesReferenceLruOpForOp) {
  const int capacity = GetParam();
  L3Cache cache(capacity);
  ReferenceLru reference(capacity);
  // Pages of several buffers, so ids differ in their high bits as well;
  // three times the capacity keeps both hits and evictions frequent.
  std::vector<PageId> universe;
  const int64_t per_buffer = capacity + 2;
  for (numasim::BufferId buffer = 1; buffer <= 3; ++buffer) {
    for (int64_t index = 0; index < per_buffer; ++index) {
      universe.push_back(PageTable::PageOf(buffer, index));
    }
  }
  simcore::Rng rng(0xC0FFEE + static_cast<uint64_t>(capacity));
  const int kOps = 200'000;
  for (int op = 0; op < kOps; ++op) {
    const PageId page = universe[rng.NextBounded(universe.size())];
    const uint64_t kind = rng.NextBounded(1000);
    if (kind < 700) {
      PageId victim = kInvalidPage;
      const bool hit = reference.Access(page, &victim);
      ASSERT_EQ(cache.Access(page), hit) << "op " << op;
      // With equal resident sets before the access, the same victim leaving
      // (and the page arriving) keeps them equal: the eviction order agrees.
      if (victim != kInvalidPage) {
        ASSERT_FALSE(cache.Contains(victim)) << "op " << op;
      }
      ASSERT_TRUE(cache.Contains(page)) << "op " << op;
    } else if (kind < 900) {
      ASSERT_EQ(cache.Invalidate(page), reference.Invalidate(page))
          << "op " << op;
    } else if (kind < 999) {
      ASSERT_EQ(cache.Contains(page), reference.Contains(page)) << "op " << op;
    } else {
      cache.Clear();
      reference.Clear();
    }
    ASSERT_EQ(cache.size(), reference.size()) << "op " << op;
    if (op % 4096 == 0) {
      for (const PageId probe : universe) {
        ASSERT_EQ(cache.Contains(probe), reference.Contains(probe))
            << "op " << op;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, L3CacheDifferentialTest,
                         ::testing::Values(1, 2, 7, 1536));

}  // namespace
}  // namespace elastic::numasim

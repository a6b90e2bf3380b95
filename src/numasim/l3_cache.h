#ifndef ELASTICORE_NUMASIM_L3_CACHE_H_
#define ELASTICORE_NUMASIM_L3_CACHE_H_

#include <cstdint>
#include <vector>

#include "numasim/page_table.h"

namespace elastic::numasim {

/// Page-granular LRU model of one socket's shared L3 cache.
///
/// The paper's effects (cache conflicts between co-located threads, cache
/// invalidations between scattered threads, L3 load-miss counts per socket)
/// are reproduced at page granularity: 6 MB / 4 KB = 1536 page frames per
/// socket. All cores of a socket share the structure, so unrelated threads
/// packed onto one node evict each other — exactly the "dense" failure mode
/// the paper describes.
///
/// The cache is an exact LRU over a fixed slot array: every resident page
/// holds one slot, the slots form a doubly linked recency list through
/// intrusive prev/next indices, and an open-addressing (linear probing)
/// index maps pages to slots. Everything is sized once in the constructor,
/// so Access and Invalidate never allocate. A hit moves the page to the
/// front, a miss on a full cache evicts the back, and Invalidate unlinks the
/// page wherever it sits — the same eviction order as a list-based LRU.
class L3Cache {
 public:
  explicit L3Cache(int capacity_pages);

  /// Looks up a page; on miss, inserts it (evicting the LRU page when full).
  /// Returns true on hit.
  bool Access(PageId page);

  /// True when the page currently resides in this cache.
  bool Contains(PageId page) const;

  /// Removes the page if present (cross-socket write invalidation).
  /// Returns true when something was invalidated.
  bool Invalidate(PageId page);

  /// Number of resident pages.
  int64_t size() const { return size_; }
  int capacity() const { return capacity_; }

  /// Drops all contents (e.g., between experiments).
  void Clear();

 private:
  static constexpr int32_t kNone = -1;

  /// One frame: the resident page and its recency-list neighbours (prev is
  /// towards the most recent end). A free slot chains the free list
  /// through `next`.
  struct Slot {
    PageId page = 0;
    int32_t prev = kNone;
    int32_t next = kNone;
  };
  /// Index bucket: a page and its slot; slot == kNone marks an empty bucket.
  struct Bucket {
    PageId page = 0;
    int32_t slot = kNone;
  };

  size_t HomeBucket(PageId page) const;
  /// The bucket holding `page`, or the empty bucket that ends its probe run.
  size_t FindBucket(PageId page) const;
  /// Empties a bucket, shifting later entries of its probe run back so that
  /// no lookup stops early (deletion without tombstones).
  void EraseBucket(size_t bucket);
  void Unlink(int32_t slot);
  void PushFront(int32_t slot);

  int capacity_;
  int64_t size_ = 0;
  std::vector<Slot> slots_;
  int32_t head_ = kNone;  // most recently used
  int32_t tail_ = kNone;  // least recently used: the next victim
  int32_t free_ = kNone;
  std::vector<Bucket> buckets_;
  int bucket_shift_ = 0;  // 64 - log2(buckets_.size())
};

}  // namespace elastic::numasim

#endif  // ELASTICORE_NUMASIM_L3_CACHE_H_

#include "numasim/l3_cache.h"

#include "simcore/check.h"

namespace elastic::numasim {

L3Cache::L3Cache(int capacity_pages) : capacity_(capacity_pages) {
  ELASTIC_CHECK(capacity_pages >= 1, "cache needs at least one frame");
  slots_.resize(static_cast<size_t>(capacity_pages));
  // At least twice as many buckets as frames keeps probe runs short.
  size_t buckets = 2;
  int log2 = 1;
  while (buckets < 2 * slots_.size()) {
    buckets *= 2;
    log2++;
  }
  buckets_.resize(buckets);
  bucket_shift_ = 64 - log2;
  Clear();
}

size_t L3Cache::HomeBucket(PageId page) const {
  // Fibonacci hashing: page ids are (buffer, index) bit fields, so the
  // multiply spreads both halves over the top bits.
  return static_cast<size_t>((page * 0x9E3779B97F4A7C15ULL) >> bucket_shift_);
}

size_t L3Cache::FindBucket(PageId page) const {
  const size_t mask = buckets_.size() - 1;
  size_t b = HomeBucket(page);
  while (buckets_[b].slot != kNone && buckets_[b].page != page) {
    b = (b + 1) & mask;
  }
  return b;
}

void L3Cache::EraseBucket(size_t hole) {
  const size_t mask = buckets_.size() - 1;
  for (size_t b = (hole + 1) & mask; buckets_[b].slot != kNone;
       b = (b + 1) & mask) {
    // The entry at b may fill the hole when the hole lies on its probe
    // path, i.e. its home is no further from b than the hole is.
    const size_t home = HomeBucket(buckets_[b].page);
    if (((b - home) & mask) >= ((b - hole) & mask)) {
      buckets_[hole] = buckets_[b];
      hole = b;
    }
  }
  buckets_[hole].slot = kNone;
}

void L3Cache::Unlink(int32_t slot) {
  Slot& s = slots_[static_cast<size_t>(slot)];
  if (s.prev != kNone) {
    slots_[static_cast<size_t>(s.prev)].next = s.next;
  } else {
    head_ = s.next;
  }
  if (s.next != kNone) {
    slots_[static_cast<size_t>(s.next)].prev = s.prev;
  } else {
    tail_ = s.prev;
  }
}

void L3Cache::PushFront(int32_t slot) {
  Slot& s = slots_[static_cast<size_t>(slot)];
  s.prev = kNone;
  s.next = head_;
  if (head_ != kNone) {
    slots_[static_cast<size_t>(head_)].prev = slot;
  } else {
    tail_ = slot;
  }
  head_ = slot;
}

bool L3Cache::Access(PageId page) {
  size_t b = FindBucket(page);
  if (buckets_[b].slot != kNone) {
    const int32_t slot = buckets_[b].slot;
    if (slot != head_) {
      Unlink(slot);
      PushFront(slot);
    }
    return true;
  }
  int32_t slot;
  if (size_ >= capacity_) {
    slot = tail_;
    Unlink(slot);
    EraseBucket(FindBucket(slots_[static_cast<size_t>(slot)].page));
    size_--;
    // The back-shift may have moved the end of `page`'s probe run.
    b = FindBucket(page);
  } else {
    slot = free_;
    free_ = slots_[static_cast<size_t>(slot)].next;
  }
  slots_[static_cast<size_t>(slot)].page = page;
  PushFront(slot);
  buckets_[b] = {page, slot};
  size_++;
  return false;
}

bool L3Cache::Contains(PageId page) const {
  return buckets_[FindBucket(page)].slot != kNone;
}

bool L3Cache::Invalidate(PageId page) {
  const size_t b = FindBucket(page);
  const int32_t slot = buckets_[b].slot;
  if (slot == kNone) return false;
  Unlink(slot);
  EraseBucket(b);
  slots_[static_cast<size_t>(slot)].next = free_;
  free_ = slot;
  size_--;
  return true;
}

void L3Cache::Clear() {
  for (Bucket& bucket : buckets_) bucket.slot = kNone;
  const auto n = static_cast<int32_t>(slots_.size());
  for (int32_t s = 0; s < n; ++s) {
    slots_[static_cast<size_t>(s)].next = s + 1 < n ? s + 1 : kNone;
  }
  free_ = 0;
  head_ = kNone;
  tail_ = kNone;
  size_ = 0;
}

}  // namespace elastic::numasim

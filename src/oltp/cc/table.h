#ifndef ELASTICORE_OLTP_CC_TABLE_H_
#define ELASTICORE_OLTP_CC_TABLE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>

namespace elastic::oltp::cc {

/// One record of the concurrency-control key space. The record carries the
/// metadata words of *every* protocol side by side (a run uses exactly one
/// protocol, so the unused words stay zero): the TicToc timestamp word, the
/// 2PL reader-writer lock word, and the per-key commit counter the lock
/// protocols use as the version number recorded into histories. All fields
/// are atomics because the protocols are driven both by the single-threaded
/// machine simulation and by real std::thread workers in the
/// serializability stress harness — the same code must be race-free under
/// ThreadSanitizer.
struct alignas(64) Record {
  /// TicToc timestamp word: [63] lock, [32..62] delta (rts - wts; an rts
  /// extension that would overflow the field aborts the extender instead of
  /// saturating, so the stored rts is always exact), [0..31] wts.
  std::atomic<uint64_t> tictoc{0};
  /// 2PL reader-writer lock word: [63] writer held, [0..62] reader count.
  std::atomic<uint64_t> rwlock{0};
  /// Commit counter: bumped by every committed write under PartitionLock /
  /// TwoPhaseLock; version 0 is the unwritten initial state.
  std::atomic<uint64_t> version{0};
  /// The value itself (a balance, a YCSB counter).
  std::atomic<int64_t> value{0};
};

inline constexpr uint64_t kTicTocLockBit = 1ULL << 63;
inline constexpr uint64_t kTicTocDeltaShift = 32;
inline constexpr uint64_t kTicTocDeltaMask = (1ULL << 31) - 1;
inline constexpr uint64_t kTicTocWtsMask = (1ULL << 32) - 1;

inline uint64_t TicTocWts(uint64_t word) { return word & kTicTocWtsMask; }
inline uint64_t TicTocRts(uint64_t word) {
  return TicTocWts(word) + ((word >> kTicTocDeltaShift) & kTicTocDeltaMask);
}
inline bool TicTocLocked(uint64_t word) { return (word & kTicTocLockBit) != 0; }
inline uint64_t TicTocPack(uint64_t wts, uint64_t rts, bool locked) {
  uint64_t delta = rts - wts;
  if (delta > kTicTocDeltaMask) delta = kTicTocDeltaMask;
  return (locked ? kTicTocLockBit : 0) | (delta << kTicTocDeltaShift) |
         (wts & kTicTocWtsMask);
}

inline constexpr uint64_t kRwWriterBit = 1ULL << 63;

/// Fixed-size key space shared by one protocol instance and its
/// transactions, plus the coarse per-partition locks of the PartitionLock
/// protocol. Keys are dense [0, num_records); partitions are contiguous key
/// ranges, so a skewed key distribution concentrates its hot keys on few
/// partitions — exactly the regime where coarse locking collapses first.
class Table {
 public:
  Table(int64_t num_records, int num_partitions)
      : num_records_(num_records),
        num_partitions_(num_partitions > 0 ? num_partitions : 1),
        keys_per_partition_(
            (num_records + num_partitions_ - 1) / num_partitions_),
        records_(AllocateRecords(num_records)),
        partition_locks_(new std::atomic<uint64_t>[static_cast<size_t>(
            num_partitions_)]) {
    for (int p = 0; p < num_partitions_; ++p) partition_locks_[p] = 0;
  }

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  int64_t num_records() const { return num_records_; }
  int num_partitions() const { return num_partitions_; }

  Record& record(uint64_t key) { return records_[key]; }
  const Record& record(uint64_t key) const { return records_[key]; }

  int partition_of(uint64_t key) const {
    return static_cast<int>(static_cast<int64_t>(key) / keys_per_partition_);
  }
  std::atomic<uint64_t>& partition_lock(int p) { return partition_locks_[p]; }

  /// Sum of all values. Only meaningful while no transaction is in flight
  /// (invariant checks before/after a run).
  int64_t SumValues() const {
    int64_t sum = 0;
    for (int64_t k = 0; k < num_records_; ++k) {
      sum += records_[k].value.load(std::memory_order_relaxed);
    }
    return sum;
  }

  /// Quiescent initialisation of every value (e.g. opening balances).
  void FillValues(int64_t value) {
    for (int64_t k = 0; k < num_records_; ++k) {
      records_[k].value.store(value, std::memory_order_relaxed);
    }
  }

 private:
  static_assert(std::is_trivially_destructible_v<Record>,
                "ReleaseBlock drops records without running destructors");

  /// Page-aligned memory for a record array. Tables of tens of MB are built
  /// and dropped one after another (one engine per experiment set-up). A
  /// block freed to the heap leaves a hole that later small allocations
  /// settle into, so the next table lands elsewhere and resident memory
  /// follows heap layout rather than live data; a fresh mapping per table
  /// makes every set-up fault the whole array in. So blocks are mapped
  /// outside the heap, and a few released ones are kept for the next table
  /// of the same size, which rewrites resident memory.
  static void* AcquireBlock(size_t bytes);
  static void ReleaseBlock(void* block, size_t bytes);

  struct Release {
    size_t bytes = 0;
    void operator()(Record* records) const { ReleaseBlock(records, bytes); }
  };
  using Records = std::unique_ptr<Record[], Release>;

  static Records AllocateRecords(int64_t num_records) {
    const size_t count = static_cast<size_t>(std::max<int64_t>(num_records, 1));
    const size_t bytes = count * sizeof(Record);
    Record* records = static_cast<Record*>(AcquireBlock(bytes));
    for (size_t k = 0; k < count; ++k) new (&records[k]) Record();
    return Records(records, Release{bytes});
  }

  int64_t num_records_;
  int num_partitions_;
  int64_t keys_per_partition_;
  Records records_;
  std::unique_ptr<std::atomic<uint64_t>[]> partition_locks_;
};

}  // namespace elastic::oltp::cc

#endif  // ELASTICORE_OLTP_CC_TABLE_H_

#ifndef ELASTICORE_OLTP_TXN_ENGINE_H_
#define ELASTICORE_OLTP_TXN_ENGINE_H_

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "exec/base_catalog.h"
#include "mem/policy.h"
#include "oltp/abort_window.h"
#include "oltp/cc/protocol.h"
#include "oltp/cc/workload.h"
#include "oltp/txn.h"
#include "ossim/machine.h"

namespace elastic::oltp {

struct TxnEngineOptions {
  /// Horizontal partitions over the customer/partsupp/orders row ranges.
  /// One latch per partition: two transactions on the same partition
  /// serialize, transactions on different partitions run concurrently —
  /// the per-partition discipline of H-Store-style engines, and the source
  /// of the contention ceiling under skewed mixes.
  int num_partitions = 16;
  /// Worker pool size; -1 = one worker per machine core (like DbmsEngine).
  int pool_size = -1;
  /// Cpuset group the workers are confined to (a CoreArbiter tenant cpuset
  /// in HTAP deployments; the arbiter resizes it underneath the engine).
  ossim::CpusetId cpuset = ossim::kGlobalCpuset;
  /// Bound the number of in-flight transactions by the cpuset's current
  /// width instead of the worker-pool size: when the arbiter shrinks the
  /// cpuset, surplus transactions park in the runnable queue (their CC
  /// operations not yet executed, so they open no conflict window) instead
  /// of time-slicing the remaining cores with wide-open conflict windows.
  /// This is what makes "fewer cores" actually mean "fewer overlapping
  /// transactions" under an arbiter-managed contention workload. Off by
  /// default: the worker pool alone bounds concurrency, byte-identical to
  /// the pre-option engine.
  bool concurrency_follow_cpuset = false;
  /// Pure compute charged per page a transaction touches (index lookups,
  /// logging, latching overhead). OLTP burns far more cycles per page than
  /// a scan: it chases pointers instead of streaming. Keep this below the
  /// scheduler's per-tick cycle budget — a page is the simulator's smallest
  /// work unit, so cost beyond one quantum per page is dropped, and
  /// transaction weight should be scaled via the row-neighbourhood knobs
  /// below instead.
  int64_t cpu_cycles_per_page = 600'000;
  /// Rows of the partsupp neighbourhood a NewOrder stock-checks, and of the
  /// customer neighbourhood both profiles read. These set the page counts —
  /// and so the service time — of the two transaction profiles.
  int64_t neworder_stock_rows = 256;
  int64_t customer_rows = 64;
  /// Pages of the engine-owned write area each partition appends order and
  /// line rows into (cycled deterministically, modelling a redo log slab).
  int64_t log_pages_per_partition = 32;
  /// NUMA placement of the engine-owned slabs (the per-partition log slab
  /// and the lazily created CC key-space buffer). The default first-touch
  /// policy leaves the simulator's first-touch rule in charge —
  /// byte-identical to the pre-placement engine; island_bound homes every
  /// page on mem_island, modelling a tenant whose working set was loaded on
  /// one socket.
  mem::Policy mem_policy = mem::Policy::kLocalFirstTouch;
  numasim::NodeId mem_island = numasim::kInvalidNode;

  /// Concurrency-control layer. With the default (kPartitionLock) protocol
  /// the classic NewOrder/Payment workload runs on the original
  /// partition-latch path, bit-for-bit identical to the pre-CC engine; any
  /// other protocol — or any record-level workload submitted through the
  /// CcTxn overload of Submit — routes through the pluggable cc::Protocol
  /// interface, where transactions can abort and are retried by the client.
  cc::CcConfig cc;
};

/// A lightweight partition-latched transaction engine over the TPC-H-derived
/// base tables — the OLTP half of the HTAP scenario.
///
/// Transactions arrive as TxnRequests. Each resolves to one short ossim::Job
/// touching a few pages: NewOrder reads a customer neighbourhood and a
/// partsupp ("stock") neighbourhood of its partition and appends two pages
/// to the partition's log slab; Payment reads one customer neighbourhood and
/// rewrites one page of it (balance update, modelled in the write area).
/// The partition latch is held for the whole transaction; queued
/// transactions behind a busy latch count as latch waits. Like DbmsEngine,
/// the engine is oblivious to the elastic mechanism — cores come and go
/// underneath its cpuset.
///
/// Beyond the classic latch path the engine executes transactions through a
/// pluggable concurrency-control protocol (see TxnEngineOptions::cc): the
/// record-level operations run against the CC table when the transaction is
/// dispatched, the commit/validation happens when its simulated job
/// completes — so the job duration is the window in which other
/// transactions can conflict with it, and aborted attempts still burn
/// (truncated) jobs' worth of simulated work. That wasted work is what makes
/// contention collapse visible in goodput, not just in abort counters.
class TxnEngine {
 public:
  TxnEngine(ossim::Machine* machine, const exec::BaseCatalog* catalog,
            const TxnEngineOptions& options);

  TxnEngine(const TxnEngine&) = delete;
  TxnEngine& operator=(const TxnEngine&) = delete;

  /// Completion callback of a submitted transaction. `txn` is the
  /// transaction as submitted (the derived record-level one for a classic
  /// request under a CC protocol, empty on the latch path), handed back so
  /// that a caller retrying an abort can move it into its retry queue
  /// instead of keeping a copy of its own.
  using Completion = std::function<void(bool committed, cc::CcTxn& txn)>;

  /// Starts (or enqueues, when the partition latch is busy) one classic
  /// NewOrder/Payment transaction. Under the default kPartitionLock protocol
  /// this is the original latch path and `committed` is always true; under
  /// any other protocol the request is translated into record-level
  /// operations and executed through the CC layer, where it can abort —
  /// `on_complete(false, ...)` means the caller owns the retry.
  void Submit(const TxnRequest& request, Completion on_complete);

  /// Starts one record-level transaction (YCSB / SmallBank) through the
  /// configured CC protocol. `request` only contributes the transaction id;
  /// isolation comes from the protocol, not the partition latches.
  void Submit(const TxnRequest& request, cc::CcTxn txn, Completion on_complete);

  int64_t completed_txns() const { return completed_; }
  /// Transactions that had to queue behind a busy partition latch.
  int64_t latch_waits() const { return latch_waits_; }
  /// Transactions currently executing or queued (on a latch or for a worker).
  int64_t active_txns() const { return active_; }
  int num_workers() const { return static_cast<int>(workers_.size()); }
  const TxnEngineOptions& options() const { return options_; }

  // -- CC-layer statistics (contention signals for arbiter policies) --

  /// Transactions committed through the CC layer.
  int64_t cc_commits() const { return cc_commits_; }
  /// Total CC aborts (lock conflicts + validation failures).
  int64_t cc_aborts() const { return cc_lock_conflicts_ + cc_validation_failures_; }
  /// Aborts at operation time: a no-wait lock/latch conflict or a reader
  /// giving up on a locked record.
  int64_t cc_lock_conflicts() const { return cc_lock_conflicts_; }
  /// Aborts at commit time: OCC read-set validation failures.
  int64_t cc_validation_failures() const { return cc_validation_failures_; }
  /// Fraction of CC transaction attempts finishing in (now - window, now]
  /// that aborted (0 when none finished). The engine-side contention signal:
  /// it rises with conflict probability, not with queueing, so a policy can
  /// tell "needs more cores" from "more cores will only burn in aborts".
  double RecentAbortFraction(simcore::Tick now,
                             simcore::Tick window_ticks) const;
  /// CC commits finishing in (now - window, now] per simulated second — the
  /// goodput half of the contention probe pair: the arbiter's hill-climbing
  /// controller differentiates successive readings to estimate the marginal
  /// goodput of its last allocation change.
  double RecentCommitRate(simcore::Tick now, simcore::Tick window_ticks) const;
  /// CC attempts finishing in the window (distinguishes "no aborts" from
  /// "no traffic" — RecentAbortFraction reads 0 in both cases).
  int64_t RecentAttempts(simcore::Tick now, simcore::Tick window_ticks) const;

  // -- Memory-placement statistics (the kMemory telemetry signal) --

  /// Fraction of the workers' page accesses so far that were served from a
  /// remote NUMA node; < 0 when no page has been accessed yet.
  double RemotePageFraction() const;
  /// Resident pages of the engine-owned buffers (log slab + CC key space)
  /// per NUMA node. Index = node id; untouched pages count nowhere.
  std::vector<int64_t> ResidentPagesPerNode() const;

  /// The CC table (created on first use). Exposed so workload setup can
  /// seed initial values (e.g. SmallBank balances) and tests can check
  /// invariants over final state.
  cc::Table& cc_table();
  /// Commit footprints recorded when options().cc.record_history is set.
  const std::vector<cc::CommittedTxn>& cc_history() const;

 private:
  struct PendingTxn {
    TxnRequest request;
    Completion on_complete;
    /// CC-path fields (unused on the legacy latch path).
    bool is_cc = false;
    cc::CcTxn cc;
  };

  /// One worker's in-flight transaction. The CC context belongs to the
  /// worker, not to the transaction: Begin clears its sets but keeps their
  /// capacity, so a worker's transactions stop allocating once the largest
  /// has run.
  struct WorkerSlot {
    bool busy = false;
    PendingTxn txn;
    cc::TxnCtx ctx;
    /// The transaction hit a no-wait conflict at dispatch and was already
    /// rolled back; its job models the wasted work of the attempt.
    bool pre_aborted = false;
  };

  /// Lazily created CC state: nothing here exists (and no simulated pages
  /// are allocated) until the first transaction routes through a protocol,
  /// which keeps default PartitionLock runs bit-for-bit identical to the
  /// pre-CC engine.
  struct CcState {
    cc::Table table;
    std::unique_ptr<cc::Protocol> protocol;
    /// Simulated pages backing the CC key space (rows_per_page keys each).
    numasim::BufferId buffer = 0;
    std::vector<cc::CommittedTxn> history;
    CcState(int64_t num_records, int num_partitions)
        : table(num_records, num_partitions) {}
  };

  /// Builds the page-access job for one transaction.
  ossim::Job JobFor(const TxnRequest& request);
  /// Hands the transaction to an idle worker or queues it for one.
  void Dispatch(PendingTxn txn);
  void OnJobDone(ossim::ThreadId worker);
  /// Whether concurrency_follow_cpuset currently blocks another dispatch
  /// (in-flight transactions already cover the cpuset's width).
  bool ThrottledByCpuset() const;

  void EnsureCcState();
  /// Translates a classic NewOrder/Payment request into record-level
  /// operations on the CC key space: each partition owns a contiguous slice
  /// of keys, the customer neighbourhood maps into its lower half and the
  /// stock neighbourhood into its upper half. NewOrder reads the customer
  /// and read-modify-writes the stock row; Payment read-modify-writes the
  /// customer row.
  cc::CcTxn DeriveClassicCcTxn(const TxnRequest& request) const;
  void SubmitCc(PendingTxn txn);
  /// Runs the slot's transaction through the protocol (aborting it on a
  /// no-wait conflict) and returns the page-access job modelling the
  /// attempt's work; Commit/Abort accounting happens at job completion.
  ossim::Job ExecuteCc(WorkerSlot& slot);
  WorkerSlot& SlotOf(ossim::ThreadId worker);

  /// Page range of `rows` rows around `offset` within the partition's slice
  /// of a base column.
  ossim::PageRange BaseRange(const std::string& table_column, int partition,
                             double offset, int64_t rows) const;

  ossim::Machine* machine_;
  const exec::BaseCatalog* catalog_;
  TxnEngineOptions options_;

  /// Engine-owned write area: num_partitions * log_pages_per_partition pages.
  numasim::BufferId log_buffer_ = 0;
  /// Per-partition append cursor into the log slab.
  std::vector<int64_t> log_cursor_;

  /// Per-partition latch: the in-flight transaction (if any) plus waiters.
  std::vector<bool> latch_busy_;
  std::vector<std::deque<PendingTxn>> latch_queue_;

  std::vector<ossim::ThreadId> workers_;
  std::deque<ossim::ThreadId> idle_workers_;
  /// Latched transactions waiting for a free worker.
  std::deque<PendingTxn> runnable_;
  /// In-flight bookkeeping, one slot per worker (workers_ holds
  /// consecutive thread ids, so a worker's slot is its offset from the
  /// first).
  std::vector<WorkerSlot> slots_;
  int64_t in_flight_ = 0;
  /// Reused scratch of ExecuteCc: the keys a transaction touched and the
  /// CC-buffer pages they map onto.
  std::vector<uint64_t> touched_;
  std::vector<int64_t> pages_;

  int64_t completed_ = 0;
  int64_t latch_waits_ = 0;
  int64_t active_ = 0;

  std::unique_ptr<CcState> cc_state_;
  int64_t cc_commits_ = 0;
  int64_t cc_lock_conflicts_ = 0;
  int64_t cc_validation_failures_ = 0;
  /// Finish ticks of recent CC attempts, behind the windowed abort-fraction
  /// and commit-rate signals.
  AbortWindow cc_window_;
};

}  // namespace elastic::oltp

#endif  // ELASTICORE_OLTP_TXN_ENGINE_H_

#include "oltp/txn_engine.h"

#include <algorithm>
#include <utility>

#include "mem/sim_placement.h"
#include "simcore/check.h"

namespace elastic::oltp {

const char* TxnTypeName(TxnType type) {
  switch (type) {
    case TxnType::kNewOrder: return "new_order";
    case TxnType::kPayment: return "payment";
  }
  return "?";
}

TxnEngine::TxnEngine(ossim::Machine* machine,
                     const exec::BaseCatalog* catalog,
                     const TxnEngineOptions& options)
    : machine_(machine), catalog_(catalog), options_(options) {
  ELASTIC_CHECK(options_.num_partitions >= 1, "need at least one partition");
  ELASTIC_CHECK(options_.log_pages_per_partition >= 2,
                "log slab needs >= 2 pages per partition");
  const int pool = options_.pool_size > 0
                       ? options_.pool_size
                       : machine_->topology().total_cores();
  ELASTIC_CHECK(pool >= 1, "worker pool must not be empty");

  log_buffer_ = machine_->page_table().CreateBuffer(
      static_cast<int64_t>(options_.num_partitions) *
          options_.log_pages_per_partition,
      "oltp.log");
  mem::ApplyPlacement(&machine_->page_table(), log_buffer_,
                      options_.mem_policy, options_.mem_island);
  log_cursor_.assign(static_cast<size_t>(options_.num_partitions), 0);
  latch_busy_.assign(static_cast<size_t>(options_.num_partitions), false);
  latch_queue_.resize(static_cast<size_t>(options_.num_partitions));

  auto on_job_done = [this](ossim::ThreadId worker) { OnJobDone(worker); };
  for (int w = 0; w < pool; ++w) {
    const ossim::ThreadId id = machine_->scheduler().SpawnWorker(
        std::nullopt, on_job_done, options_.cpuset);
    ELASTIC_CHECK(workers_.empty() || id == workers_.back() + 1,
                  "engine workers must hold consecutive thread ids");
    workers_.push_back(id);
    idle_workers_.push_back(id);
  }
  slots_.resize(workers_.size());
}

ossim::PageRange TxnEngine::BaseRange(const std::string& table_column,
                                      int partition, double offset,
                                      int64_t rows) const {
  ELASTIC_CHECK(catalog_ != nullptr,
                "the classic latch path needs a base catalog (CC-only "
                "deployments may pass none)");
  const int64_t total_rows = catalog_->RowsOf(table_column);
  const int64_t total_pages = catalog_->PagesOf(table_column);
  const int64_t part_rows =
      std::max<int64_t>(1, total_rows / options_.num_partitions);
  const int64_t row_begin =
      partition * part_rows +
      static_cast<int64_t>(offset * static_cast<double>(part_rows));
  const int64_t rows_per_page = std::max<int64_t>(
      1, total_rows / std::max<int64_t>(1, total_pages));
  ossim::PageRange range;
  range.buffer = catalog_->BufferOf(table_column);
  range.begin = std::min(row_begin / rows_per_page, total_pages - 1);
  range.end = std::min(range.begin + std::max<int64_t>(1, rows / rows_per_page + 1),
                       total_pages);
  return range;
}

ossim::Job TxnEngine::JobFor(const TxnRequest& request) {
  ossim::Job job;
  const int p = request.partition;
  const int64_t slab_base =
      static_cast<int64_t>(p) * options_.log_pages_per_partition;
  auto log_range = [&](int64_t pages) {
    // Append-style cycling cursor inside the partition's slab; a write that
    // would run past the slab end wraps to the start instead (every
    // transaction profile appends its full page count).
    int64_t& cursor = log_cursor_[static_cast<size_t>(p)];
    if (cursor + pages > options_.log_pages_per_partition) cursor = 0;
    ossim::PageRange range;
    range.buffer = log_buffer_;
    range.begin = slab_base + cursor;
    range.end = range.begin + pages;
    range.write = true;
    cursor = (cursor + pages) % options_.log_pages_per_partition;
    return range;
  };

  switch (request.type) {
    case TxnType::kNewOrder:
      // Stock check over a partsupp neighbourhood, customer read, then the
      // order + line append (two log pages).
      job.ranges.push_back(BaseRange("partsupp.ps_availqty", p,
                                     request.stock_offset,
                                     options_.neworder_stock_rows));
      job.ranges.push_back(BaseRange("customer.c_acctbal", p,
                                     request.customer_offset,
                                     options_.customer_rows));
      job.ranges.push_back(log_range(2));
      break;
    case TxnType::kPayment:
      // Balance read + rewrite of one customer neighbourhood page.
      job.ranges.push_back(BaseRange("customer.c_acctbal", p,
                                     request.customer_offset,
                                     options_.customer_rows));
      job.ranges.push_back(log_range(1));
      break;
  }
  job.cpu_cycles_per_page = options_.cpu_cycles_per_page;
  return job;
}

void TxnEngine::Submit(const TxnRequest& request, Completion on_complete) {
  ELASTIC_CHECK(request.partition >= 0 &&
                    request.partition < options_.num_partitions,
                "partition out of range");
  if (options_.cc.protocol != cc::ProtocolKind::kPartitionLock) {
    PendingTxn txn;
    txn.request = request;
    txn.on_complete = std::move(on_complete);
    txn.is_cc = true;
    txn.cc = DeriveClassicCcTxn(request);
    SubmitCc(std::move(txn));
    return;
  }
  active_++;
  PendingTxn txn;
  txn.request = request;
  txn.on_complete = std::move(on_complete);
  const auto p = static_cast<size_t>(request.partition);
  if (latch_busy_[p]) {
    latch_waits_++;
    latch_queue_[p].push_back(std::move(txn));
    return;
  }
  latch_busy_[p] = true;
  Dispatch(std::move(txn));
}

void TxnEngine::Submit(const TxnRequest& request, cc::CcTxn txn,
                       Completion on_complete) {
  PendingTxn pending;
  pending.request = request;
  pending.on_complete = std::move(on_complete);
  pending.is_cc = true;
  pending.cc = std::move(txn);
  SubmitCc(std::move(pending));
}

void TxnEngine::SubmitCc(PendingTxn txn) {
  EnsureCcState();
  active_++;
  Dispatch(std::move(txn));
}

void TxnEngine::EnsureCcState() {
  if (cc_state_) return;
  ELASTIC_CHECK(options_.cc.num_records >= 1, "CC table must not be empty");
  ELASTIC_CHECK(options_.cc.rows_per_page >= 1, "need >= 1 row per page");
  cc_state_ = std::make_unique<CcState>(options_.cc.num_records,
                                        options_.cc.num_partitions);
  cc_state_->protocol =
      cc::MakeProtocol(options_.cc.protocol, &cc_state_->table);
  const int64_t pages =
      (options_.cc.num_records + options_.cc.rows_per_page - 1) /
      options_.cc.rows_per_page;
  cc_state_->buffer = machine_->page_table().CreateBuffer(pages, "oltp.cc");
  mem::ApplyPlacement(&machine_->page_table(), cc_state_->buffer,
                      options_.mem_policy, options_.mem_island);
}

double TxnEngine::RemotePageFraction() const {
  int64_t pages = 0;
  int64_t remote = 0;
  const ossim::Scheduler& scheduler = machine_->scheduler();
  for (const ossim::ThreadId id : workers_) {
    const ossim::Thread& worker = scheduler.thread(id);
    pages += worker.pages_processed;
    remote += worker.remote_pages;
  }
  if (pages == 0) return -1.0;
  return static_cast<double>(remote) / static_cast<double>(pages);
}

std::vector<int64_t> TxnEngine::ResidentPagesPerNode() const {
  const numasim::PageTable& pages = machine_->page_table();
  std::vector<int64_t> resident(static_cast<size_t>(pages.num_nodes()), 0);
  for (int node = 0; node < pages.num_nodes(); ++node) {
    resident[static_cast<size_t>(node)] =
        pages.ResidentPagesOfBuffer(log_buffer_, node) +
        (cc_state_ ? pages.ResidentPagesOfBuffer(cc_state_->buffer, node) : 0);
  }
  return resident;
}

cc::CcTxn TxnEngine::DeriveClassicCcTxn(const TxnRequest& request) const {
  const int64_t keys_per_partition =
      std::max<int64_t>(2, options_.cc.num_records / options_.num_partitions);
  const int64_t half = keys_per_partition / 2;
  const int64_t base =
      static_cast<int64_t>(request.partition) * keys_per_partition;
  const auto neighbourhood_key = [&](int64_t offset_base, double offset) {
    const int64_t row = static_cast<int64_t>(
        offset * static_cast<double>(half));
    return static_cast<uint64_t>(offset_base + std::min(row, half - 1));
  };
  const uint64_t customer = neighbourhood_key(base, request.customer_offset);
  const uint64_t stock =
      neighbourhood_key(base + half, request.stock_offset);
  cc::CcTxn txn;
  txn.kind = cc::WorkloadKind::kNewOrderPayment;
  switch (request.type) {
    case TxnType::kNewOrder:
      txn.ops.push_back({customer, /*write=*/false});
      txn.ops.push_back({stock, /*write=*/true});
      break;
    case TxnType::kPayment:
      txn.ops.push_back({customer, /*write=*/true});
      break;
  }
  return txn;
}

ossim::Job TxnEngine::ExecuteCc(WorkerSlot& slot) {
  cc::Protocol& protocol = *cc_state_->protocol;
  protocol.Begin(slot.ctx, static_cast<uint64_t>(slot.txn.request.id));
  slot.pre_aborted = false;
  touched_.clear();
  if (!cc::ExecuteCcTxn(protocol, slot.ctx, slot.txn.cc, &touched_)) {
    // No-wait conflict mid-transaction: roll back now; the job below still
    // charges the attempted operations (the wasted work of the abort).
    protocol.Abort(slot.ctx);
    slot.pre_aborted = true;
    cc_lock_conflicts_++;
  }

  // Map the touched keys onto pages of the CC buffer: sorted, deduplicated,
  // adjacent pages merged into ranges. The whole job is marked as writing
  // when the transaction buffered any write (log + install traffic).
  pages_.clear();
  for (const uint64_t key : touched_) {
    pages_.push_back(static_cast<int64_t>(key) / options_.cc.rows_per_page);
  }
  std::sort(pages_.begin(), pages_.end());
  pages_.erase(std::unique(pages_.begin(), pages_.end()), pages_.end());
  if (pages_.empty()) pages_.push_back(0);

  ossim::Job job;
  job.cpu_cycles_per_page = options_.cpu_cycles_per_page;
  job.ranges.reserve(pages_.size());
  ossim::PageRange range;
  range.buffer = cc_state_->buffer;
  range.begin = pages_.front();
  range.end = pages_.front() + 1;
  range.write = !slot.ctx.writes.empty();
  for (size_t i = 1; i < pages_.size(); ++i) {
    if (pages_[i] == range.end) {
      range.end++;
      continue;
    }
    job.ranges.push_back(range);
    range.begin = pages_[i];
    range.end = pages_[i] + 1;
  }
  job.ranges.push_back(range);
  return job;
}

bool TxnEngine::ThrottledByCpuset() const {
  if (!options_.concurrency_follow_cpuset) return false;
  const int width =
      machine_->scheduler().cpuset_mask(options_.cpuset).Count();
  // A zero-width cpuset still admits one transaction: the arbiter never
  // installs an empty tenant mask, but a transient reading must not
  // deadlock the engine.
  return in_flight_ >= std::max(1, width);
}

TxnEngine::WorkerSlot& TxnEngine::SlotOf(ossim::ThreadId worker) {
  const auto index = static_cast<size_t>(worker - workers_.front());
  ELASTIC_CHECK(index < slots_.size(), "worker does not belong to this engine");
  return slots_[index];
}

void TxnEngine::Dispatch(PendingTxn txn) {
  if (idle_workers_.empty() || ThrottledByCpuset()) {
    runnable_.push_back(std::move(txn));
    return;
  }
  const ossim::ThreadId worker = idle_workers_.front();
  idle_workers_.pop_front();
  WorkerSlot& slot = SlotOf(worker);
  slot.busy = true;
  slot.txn = std::move(txn);
  in_flight_++;
  ossim::Job job = slot.txn.is_cc ? ExecuteCc(slot) : JobFor(slot.txn.request);
  machine_->scheduler().AssignJob(worker, std::move(job));
}

void TxnEngine::OnJobDone(ossim::ThreadId worker) {
  WorkerSlot& slot = SlotOf(worker);
  ELASTIC_CHECK(slot.busy, "completion from an idle worker");
  slot.busy = false;
  in_flight_--;
  // Moved out: the drain below may hand this worker its next transaction.
  PendingTxn done = std::move(slot.txn);
  idle_workers_.push_back(worker);

  if (done.is_cc) {
    // Commit at job completion: the job's duration was the transaction's
    // lifetime, i.e. the window in which others could conflict with it.
    bool committed = false;
    if (!slot.pre_aborted) {
      cc::CommittedTxn footprint;
      committed = cc_state_->protocol->Commit(
          slot.ctx, options_.cc.record_history ? &footprint : nullptr);
      if (committed) {
        if (options_.cc.record_history) {
          cc_state_->history.push_back(std::move(footprint));
        }
      } else {
        cc_validation_failures_++;
      }
    }
    const simcore::Tick now = machine_->clock().now();
    if (committed) {
      completed_++;
      cc_commits_++;
      cc_window_.RecordCommit(now);
    } else {
      cc_window_.RecordAbort(now);
    }
    active_--;

    while (!runnable_.empty() && !idle_workers_.empty() &&
           !ThrottledByCpuset()) {
      PendingTxn next = std::move(runnable_.front());
      runnable_.pop_front();
      Dispatch(std::move(next));
    }

    if (done.on_complete) done.on_complete(committed, done.cc);
    return;
  }

  completed_++;
  active_--;

  // Release the partition latch; the next waiter (if any) takes it
  // immediately and becomes runnable.
  const auto p = static_cast<size_t>(done.request.partition);
  ELASTIC_CHECK(latch_busy_[p], "completion on an unlatched partition");
  if (latch_queue_[p].empty()) {
    latch_busy_[p] = false;
  } else {
    PendingTxn next = std::move(latch_queue_[p].front());
    latch_queue_[p].pop_front();
    runnable_.push_back(std::move(next));
  }

  // Drain runnable transactions onto idle workers (the just-freed worker
  // plus any others parked while latches were busy).
  while (!runnable_.empty() && !idle_workers_.empty() &&
         !ThrottledByCpuset()) {
    PendingTxn next = std::move(runnable_.front());
    runnable_.pop_front();
    Dispatch(std::move(next));
  }

  if (done.on_complete) done.on_complete(true, done.cc);
}

double TxnEngine::RecentAbortFraction(simcore::Tick now,
                                      simcore::Tick window_ticks) const {
  return cc_window_.Fraction(now, window_ticks);
}

double TxnEngine::RecentCommitRate(simcore::Tick now,
                                   simcore::Tick window_ticks) const {
  return cc_window_.CommitRate(now, window_ticks);
}

int64_t TxnEngine::RecentAttempts(simcore::Tick now,
                                  simcore::Tick window_ticks) const {
  return cc_window_.AttemptsInWindow(now, window_ticks);
}

cc::Table& TxnEngine::cc_table() {
  EnsureCcState();
  return cc_state_->table;
}

const std::vector<cc::CommittedTxn>& TxnEngine::cc_history() const {
  static const std::vector<cc::CommittedTxn> kEmpty;
  return cc_state_ ? cc_state_->history : kEmpty;
}

}  // namespace elastic::oltp

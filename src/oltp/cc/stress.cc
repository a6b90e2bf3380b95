#include "oltp/cc/stress.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

namespace elastic::oltp::cc {
namespace {

struct ThreadOutcome {
  int64_t committed = 0;
  int64_t aborted = 0;
  int64_t gave_up = 0;
  std::vector<CommittedTxn> history;
};

/// The progress watchdog: no commit anywhere in the run for this long
/// drops the transaction that noticed.
constexpr int64_t kStallTimeoutNs = 5'000'000'000;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Waits before retry `attempt` (1-based) of an aborted transaction: a
/// yield for the first few, then sleeps doubling from 1 us up to 1 ms, so a
/// preempted lock holder gets the CPU back instead of losing it to spinners.
void BackOff(int attempt) {
  if (attempt <= 8) {
    std::this_thread::yield();
    return;
  }
  const int shift = std::min(attempt - 9, 10);
  std::this_thread::sleep_for(std::chrono::microseconds(1 << shift));
}

void RunWorker(const StressConfig& config, Protocol* protocol, int tid,
               std::atomic<int64_t>* last_commit_ns, ThreadOutcome* out) {
  // Each worker owns an independent, deterministic transaction stream; only
  // the interleaving is left to the scheduler.
  const uint64_t seed = config.seed + 0x9E3779B97F4A7C15ULL * (tid + 1);
  YcsbGenerator ycsb(config.ycsb, seed);
  SmallBankGenerator smallbank(config.smallbank, seed);
  TxnCtx ctx;
  for (int i = 0; i < config.txns_per_thread; ++i) {
    const CcTxn txn = config.workload == WorkloadKind::kSmallBank
                          ? smallbank.Next()
                          : ycsb.Next();
    const uint64_t txn_id =
        static_cast<uint64_t>(tid) * config.txns_per_thread + i;
    for (int attempt = 1;; ++attempt) {
      protocol->Begin(ctx, txn_id);
      CommittedTxn committed;
      if (ExecuteCcTxn(*protocol, ctx, txn, nullptr)) {
        if (protocol->Commit(ctx,
                             config.record_history ? &committed : nullptr)) {
          last_commit_ns->store(NowNs(), std::memory_order_relaxed);
          ++out->committed;
          if (config.record_history) {
            out->history.push_back(std::move(committed));
          }
          break;
        }
      } else {
        protocol->Abort(ctx);
      }
      ++out->aborted;
      if (NowNs() - last_commit_ns->load(std::memory_order_relaxed) >
          kStallTimeoutNs) {
        ++out->gave_up;
        break;
      }
      BackOff(attempt);
    }
  }
}

}  // namespace

StressResult RunCcStress(const StressConfig& config) {
  const int64_t num_records = config.workload == WorkloadKind::kSmallBank
                                  ? SmallBankNumRecords(config.smallbank)
                                  : config.ycsb.num_records;
  Table table(num_records, /*num_partitions=*/16);
  if (config.workload == WorkloadKind::kSmallBank) {
    table.FillValues(config.smallbank.initial_balance);
  }
  std::unique_ptr<Protocol> protocol = MakeProtocol(config.protocol, &table);

  StressResult result;
  result.initial_sum = table.SumValues();

  std::atomic<int64_t> last_commit_ns{NowNs()};
  std::vector<ThreadOutcome> outcomes(
      static_cast<size_t>(config.num_threads));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(config.num_threads));
  for (int tid = 0; tid < config.num_threads; ++tid) {
    threads.emplace_back(RunWorker, std::cref(config), protocol.get(), tid,
                         &last_commit_ns,
                         &outcomes[static_cast<size_t>(tid)]);
  }
  for (std::thread& t : threads) t.join();

  for (ThreadOutcome& out : outcomes) {
    result.committed += out.committed;
    result.aborted += out.aborted;
    result.gave_up += out.gave_up;
    for (CommittedTxn& txn : out.history) {
      result.history.push_back(std::move(txn));
    }
  }
  result.final_sum = table.SumValues();
  return result;
}

}  // namespace elastic::oltp::cc

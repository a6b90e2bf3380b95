#include "oltp/txn_engine.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "oltp/oltp_client.h"
#include "tests/db/test_db.h"

namespace elastic::oltp {
namespace {

struct Stack {
  std::unique_ptr<ossim::Machine> machine;
  std::unique_ptr<exec::BaseCatalog> catalog;
  std::unique_ptr<TxnEngine> engine;
};

Stack MakeStack(TxnEngineOptions options = {}) {
  Stack stack;
  stack.machine = std::make_unique<ossim::Machine>(ossim::MachineOptions{});
  stack.catalog = std::make_unique<exec::BaseCatalog>(
      &stack.machine->page_table(), testutil::TestDb(),
      exec::BasePlacement::kChunkedRoundRobin, /*page_bytes=*/4096);
  stack.engine = std::make_unique<TxnEngine>(stack.machine.get(),
                                             stack.catalog.get(), options);
  return stack;
}

TxnRequest Request(int64_t id, TxnType type, int partition) {
  TxnRequest request;
  request.id = id;
  request.type = type;
  request.partition = partition;
  request.customer_offset = 0.25;
  request.stock_offset = 0.5;
  return request;
}

TEST(TxnEngineTest, RunsBothProfilesToCompletion) {
  Stack stack = MakeStack();
  int completions = 0;
  stack.engine->Submit(Request(0, TxnType::kNewOrder, 0),
                       [&](bool, cc::CcTxn&) { completions++; });
  stack.engine->Submit(Request(1, TxnType::kPayment, 1),
                       [&](bool, cc::CcTxn&) { completions++; });
  EXPECT_EQ(stack.engine->active_txns(), 2);
  stack.machine->RunUntilIdle(100'000);
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(stack.engine->completed_txns(), 2);
  EXPECT_EQ(stack.engine->active_txns(), 0);
  EXPECT_EQ(stack.engine->latch_waits(), 0);
}

TEST(TxnEngineTest, PartitionLatchSerializesSamePartition) {
  Stack stack = MakeStack();
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    stack.engine->Submit(Request(i, TxnType::kPayment, /*partition=*/2),
                         [&order, i](bool, cc::CcTxn&) {
                           order.push_back(i);
                         });
  }
  // Two of the three queued behind the latch.
  EXPECT_EQ(stack.engine->latch_waits(), 2);
  stack.machine->RunUntilIdle(100'000);
  // The latch hands over in FIFO order.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(TxnEngineTest, DifferentPartitionsDoNotLatchWait) {
  Stack stack = MakeStack();
  int completions = 0;
  for (int i = 0; i < 8; ++i) {
    stack.engine->Submit(Request(i, TxnType::kPayment, /*partition=*/i),
                         [&](bool, cc::CcTxn&) { completions++; });
  }
  EXPECT_EQ(stack.engine->latch_waits(), 0);
  stack.machine->RunUntilIdle(100'000);
  EXPECT_EQ(completions, 8);
}

TEST(TxnEngineTest, SamePartitionStreamTakesLongerThanSpreadStream) {
  // 16 transactions on one partition serialize on the latch; the same 16
  // spread over 16 partitions run in parallel on the pool.
  auto run = [](bool spread) {
    Stack stack = MakeStack();
    for (int i = 0; i < 16; ++i) {
      stack.engine->Submit(
          Request(i, TxnType::kNewOrder, spread ? i : 3),
          [](bool, cc::CcTxn&) {});
    }
    return stack.machine->RunUntilIdle(1'000'000);
  };
  EXPECT_GT(run(/*spread=*/false), 2 * run(/*spread=*/true));
}

TEST(TxnEngineTest, OpenLoopClientDeterministicUnderFixedSeed) {
  auto run = [] {
    Stack stack = MakeStack();
    OltpWorkload workload;
    workload.total_txns = 64;
    workload.arrival_interval_ticks = 3;
    OltpClient client(stack.machine.get(), stack.engine.get(), workload,
                      /*seed=*/777);
    client.Start();
    int64_t ticks = 0;
    while (!client.AllDone() && ticks < 200'000) {
      stack.machine->Step();
      ticks++;
    }
    EXPECT_TRUE(client.AllDone());
    return std::make_tuple(ticks, client.latencies().PercentileTicks(0.99),
                           client.latencies().PercentileTicks(0.50),
                           stack.engine->latch_waits(),
                           stack.machine->counters().ht_bytes_total);
  };
  EXPECT_EQ(run(), run());
}

TEST(TxnEngineTest, OpenLoopArrivalsDoNotWaitForCompletions) {
  // One worker on one partition: the engine drains slowly, but the open
  // loop keeps submitting on schedule, so active transactions pile up.
  TxnEngineOptions options;
  options.pool_size = 1;
  options.num_partitions = 1;
  options.cpu_cycles_per_page = 5'000'000;  // several ticks per transaction
  Stack stack = MakeStack(options);
  OltpWorkload workload;
  workload.total_txns = 32;
  workload.arrival_interval_ticks = 1;
  OltpClient client(stack.machine.get(), stack.engine.get(), workload, 5);
  client.Start();
  for (int i = 0; i < 40; ++i) stack.machine->Step();
  EXPECT_EQ(client.submitted(), 32);
  EXPECT_GT(stack.engine->active_txns(), 0);
  EXPECT_GT(stack.engine->latch_waits(), 0);
  stack.machine->RunUntilIdle(1'000'000);
  EXPECT_TRUE(client.AllDone());
  EXPECT_EQ(client.completed(), 32);
}

TEST(TxnEngineTest, CcAbortedTxnLatencyMeasuredFromFirstAdmission) {
  // Regression test for the restart-clock bug: an aborted-then-retried
  // transaction's latency must cover the whole span since it was FIRST
  // admitted — the time burnt in the aborted attempt and the retry backoff
  // is latency the caller experienced. Resetting the clock on resubmission
  // would report only the final attempt's duration, hiding exactly the
  // delays contention causes. With a backoff far above any single job
  // duration, the max recorded latency separates the two behaviours
  // cleanly: >= backoff only when measured from first admission.
  constexpr int64_t kBackoff = 50'000;
  TxnEngineOptions options;
  options.cc.protocol = cc::ProtocolKind::kTwoPhaseLock;
  options.cc.num_records = 64;  // hot key space: conflicts guaranteed
  options.cc.retry_backoff_ticks = kBackoff;
  options.cpu_cycles_per_page = 5'000'000;  // multi-tick conflict windows
  Stack stack = MakeStack(options);

  OltpWorkload workload;
  workload.kind = cc::WorkloadKind::kYcsb;
  workload.ycsb.num_records = 64;
  workload.ycsb.theta = 0.9;
  workload.total_txns = 64;
  workload.arrival_interval_ticks = 1;  // pile up in-flight transactions
  OltpClient client(stack.machine.get(), stack.engine.get(), workload,
                    /*seed=*/11);
  client.Start();
  int64_t ticks = 0;
  while (!client.AllDone() && ticks < 5'000'000) {
    stack.machine->Step();
    ticks++;
  }
  ASSERT_TRUE(client.AllDone());
  // Aborts never fail the transaction — every arrival eventually commits.
  EXPECT_EQ(client.completed(), workload.total_txns);
  EXPECT_EQ(client.failed(), 0);
  ASSERT_GT(client.cc_aborts(), 0) << "no contention: test proves nothing";
  EXPECT_EQ(client.cc_retries(), client.cc_aborts());
  // At least one transaction sat out a backoff; its recorded latency must
  // include it.
  EXPECT_GE(client.latencies().PercentileTicks(1.0), kBackoff);
}

TEST(TxnEngineTest, SurfacesCcCountersAndRecentAbortFraction) {
  TxnEngineOptions options;
  options.cc.protocol = cc::ProtocolKind::kTicToc;
  options.cc.num_records = 64;
  options.cpu_cycles_per_page = 5'000'000;
  Stack stack = MakeStack(options);

  OltpWorkload workload;
  workload.kind = cc::WorkloadKind::kYcsb;
  workload.ycsb.num_records = 64;
  workload.ycsb.theta = 0.9;
  workload.total_txns = 64;
  workload.arrival_interval_ticks = 1;
  OltpClient client(stack.machine.get(), stack.engine.get(), workload,
                    /*seed=*/11);
  client.Start();
  int64_t ticks = 0;
  while (!client.AllDone() && ticks < 5'000'000) {
    stack.machine->Step();
    ticks++;
  }
  ASSERT_TRUE(client.AllDone());
  EXPECT_EQ(stack.engine->cc_commits(), workload.total_txns);
  EXPECT_EQ(stack.engine->cc_aborts(), client.cc_aborts());
  // OCC aborts are validation failures, not lock conflicts.
  EXPECT_GT(stack.engine->cc_validation_failures(), 0);
  EXPECT_EQ(stack.engine->cc_lock_conflicts(), 0);
  // Over a window covering the whole run, the abort fraction is the overall
  // abort share: in (0, 1) since both commits and aborts happened.
  const simcore::Tick now = stack.machine->clock().now();
  const double fraction = stack.engine->RecentAbortFraction(now, now + 1);
  EXPECT_GT(fraction, 0.0);
  EXPECT_LT(fraction, 1.0);
}

TEST(TxnEngineTest, IslandBoundPlacementPinsEngineSlabs) {
  TxnEngineOptions options;
  options.cc.protocol = cc::ProtocolKind::kTwoPhaseLock;
  options.cc.num_records = 4096;
  options.mem_policy = mem::Policy::kIslandBound;
  options.mem_island = 2;
  Stack stack = MakeStack(options);

  OltpWorkload workload;
  workload.kind = cc::WorkloadKind::kYcsb;
  workload.ycsb.num_records = 4096;
  workload.total_txns = 16;
  workload.arrival_interval_ticks = 1;
  OltpClient client(stack.machine.get(), stack.engine.get(), workload, 11);
  client.Start();
  int64_t ticks = 0;
  while (!client.AllDone() && ticks < 5'000'000) {
    stack.machine->Step();
    ticks++;
  }
  ASSERT_TRUE(client.AllDone());

  // Every engine-owned page (log slabs + CC table) is homed on the island,
  // no matter which nodes the workers ran on.
  const std::vector<int64_t> resident = stack.engine->ResidentPagesPerNode();
  ASSERT_EQ(resident.size(), 4u);  // default machine: 4 nodes
  EXPECT_GT(resident[2], 0);
  EXPECT_EQ(resident[0], 0);
  EXPECT_EQ(resident[1], 0);
  EXPECT_EQ(resident[3], 0);
  // Workers on the three other nodes paid remote accesses for them.
  EXPECT_GT(stack.engine->RemotePageFraction(), 0.0);
  EXPECT_LE(stack.engine->RemotePageFraction(), 1.0);
}

TEST(TxnEngineTest, DefaultPlacementLeavesFirstTouchHoming) {
  // Without a memory policy the engine behaves exactly as before the mem::
  // subsystem existed: pages home wherever workers first touch them, so no
  // node ends up with every resident page on a multi-node machine.
  TxnEngineOptions options;
  options.cc.protocol = cc::ProtocolKind::kTwoPhaseLock;
  options.cc.num_records = 4096;
  Stack stack = MakeStack(options);
  EXPECT_EQ(stack.engine->RemotePageFraction(), -1.0);  // no accesses yet

  OltpWorkload workload;
  workload.kind = cc::WorkloadKind::kYcsb;
  workload.ycsb.num_records = 4096;
  workload.total_txns = 16;
  workload.arrival_interval_ticks = 1;
  OltpClient client(stack.machine.get(), stack.engine.get(), workload, 11);
  client.Start();
  int64_t ticks = 0;
  while (!client.AllDone() && ticks < 5'000'000) {
    stack.machine->Step();
    ticks++;
  }
  ASSERT_TRUE(client.AllDone());
  const std::vector<int64_t> resident = stack.engine->ResidentPagesPerNode();
  int64_t total = 0;
  for (const int64_t pages : resident) total += pages;
  EXPECT_GT(total, 0);
}

TEST(TxnEngineTest, TxnAfterPreAbortOnReusedContextStartsWithEmptySets) {
  // One worker, so both transactions run on the same worker's context.
  TxnEngineOptions options;
  options.pool_size = 1;
  options.cc.protocol = cc::ProtocolKind::kTwoPhaseLock;
  options.cc.num_records = 1024;
  options.cc.record_history = true;
  ossim::Machine machine(ossim::MachineOptions{});
  TxnEngine engine(&machine, /*catalog=*/nullptr, options);

  // A writer outside the engine holds key 5: the first transaction reads
  // key 7, then hits the lock on key 5 and is rolled back at dispatch.
  engine.cc_table().record(5).rwlock.store(cc::kRwWriterBit);
  cc::CcTxn conflicted;
  conflicted.ops = {{7, /*write=*/false}, {5, /*write=*/false}};
  std::vector<bool> outcomes;
  TxnRequest first;
  first.id = 1;
  const auto record = [&](bool committed, cc::CcTxn&) {
    outcomes.push_back(committed);
  };
  engine.Submit(first, conflicted, record);
  EXPECT_EQ(engine.cc_lock_conflicts(), 1);
  machine.RunUntilIdle(100'000);
  engine.cc_table().record(5).rwlock.store(0);

  cc::CcTxn update;
  update.ops = {{9, /*write=*/true}};
  TxnRequest second;
  second.id = 2;
  engine.Submit(second, update, record);
  machine.RunUntilIdle(100'000);

  EXPECT_EQ(outcomes, (std::vector<bool>{false, true}));
  // The commit footprint holds the second transaction's accesses only:
  // nothing of the aborted attempt's read of key 7 leaked into it.
  ASSERT_EQ(engine.cc_history().size(), 1u);
  const cc::CommittedTxn& txn = engine.cc_history()[0];
  EXPECT_EQ(txn.txn_id, 2u);
  ASSERT_EQ(txn.reads.size(), 1u);
  EXPECT_EQ(txn.reads[0].key, 9u);
  EXPECT_EQ(txn.reads[0].version, 0u);
  ASSERT_EQ(txn.writes.size(), 1u);
  EXPECT_EQ(txn.writes[0].key, 9u);
  EXPECT_EQ(txn.writes[0].version, 1u);
  // Every lock was released with the commit.
  for (const uint64_t key : {5u, 7u, 9u}) {
    EXPECT_EQ(engine.cc_table().record(key).rwlock.load(), 0u) << key;
  }
}

/// FNV-1a over a history: transaction ids, then every read and write
/// (key, version) in recorded order.
uint64_t HistoryDigest(const std::vector<cc::CommittedTxn>& history) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const cc::CommittedTxn& txn : history) {
    mix(txn.txn_id);
    mix(txn.reads.size());
    for (const cc::Access& read : txn.reads) {
      mix(read.key);
      mix(read.version);
    }
    mix(txn.writes.size());
    for (const cc::Access& write : txn.writes) {
      mix(write.key);
      mix(write.version);
    }
  }
  return hash;
}

class TxnEngineHistoryTest
    : public ::testing::TestWithParam<std::tuple<cc::ProtocolKind, uint64_t>> {
};

TEST_P(TxnEngineHistoryTest, SeededRunReproducesGoldenCommitFootprints) {
  // A hot YCSB run: aborts and retries reuse every worker's context many
  // times over. The digests were captured from the engine that built a
  // fresh context per transaction.
  TxnEngineOptions options;
  options.cc.protocol = std::get<0>(GetParam());
  options.cc.num_records = 64;
  options.cc.record_history = true;
  options.cpu_cycles_per_page = 5'000'000;  // long, overlapping attempts
  Stack stack = MakeStack(options);

  OltpWorkload workload;
  workload.kind = cc::WorkloadKind::kYcsb;
  workload.ycsb.num_records = 64;
  workload.ycsb.theta = 0.9;
  workload.total_txns = 96;
  workload.arrival_interval_ticks = 1;
  OltpClient client(stack.machine.get(), stack.engine.get(), workload,
                    /*seed=*/23);
  client.Start();
  int64_t ticks = 0;
  while (!client.AllDone() && ticks < 5'000'000) {
    stack.machine->Step();
    ticks++;
  }
  ASSERT_TRUE(client.AllDone());
  EXPECT_GT(stack.engine->cc_aborts(), 0);
  ASSERT_EQ(stack.engine->cc_history().size(),
            static_cast<size_t>(workload.total_txns));
  EXPECT_TRUE(cc::CheckSerializable(stack.engine->cc_history()));
  EXPECT_EQ(HistoryDigest(stack.engine->cc_history()),
            std::get<1>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, TxnEngineHistoryTest,
    ::testing::Values(
        std::make_tuple(cc::ProtocolKind::kPartitionLock,
                        0x588a01283eefd741ULL),
        std::make_tuple(cc::ProtocolKind::kTwoPhaseLock,
                        0x6f19486a4ce6fcd5ULL),
        std::make_tuple(cc::ProtocolKind::kTicToc, 0xae02842aedab49a5ULL)));

}  // namespace
}  // namespace elastic::oltp

#include "ossim/scheduler.h"

#include <gtest/gtest.h>

#include "ossim/machine.h"

namespace elastic::ossim {
namespace {

using platform::CpuMask;

/// A machine with tracing enabled and a small job helper.
class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest() {
    MachineOptions options;
    options.scheduler.trace_migrations = true;
    machine_ = std::make_unique<Machine>(options);
  }

  /// A job scanning `pages` fresh pages of a new buffer.
  Job ScanJob(int64_t pages, bool write = false, int stream = 0) {
    const numasim::BufferId buffer =
        machine_->page_table().CreateBuffer(pages, "scan");
    if (!write) machine_->page_table().PlaceAllOn(buffer, 0);
    Job job;
    job.stream = stream;
    PageRange range;
    range.buffer = buffer;
    range.begin = 0;
    range.end = pages;
    range.write = write;
    job.ranges.push_back(range);
    job.cpu_cycles_per_page = 1000;
    return job;
  }

  std::unique_ptr<Machine> machine_;
};

TEST_F(SchedulerTest, OneShotThreadRunsAndExits) {
  bool exited = false;
  machine_->scheduler().SpawnOneShot(ScanJob(10), std::nullopt,
                                     [&exited](ThreadId) { exited = true; });
  EXPECT_EQ(machine_->scheduler().runnable_threads(), 1);
  machine_->RunUntilIdle(100);
  EXPECT_TRUE(exited);
  EXPECT_EQ(machine_->scheduler().runnable_threads(), 0);
}

TEST_F(SchedulerTest, WorkerIdlesUntilJobAssigned) {
  int completions = 0;
  const ThreadId worker = machine_->scheduler().SpawnWorker(
      std::nullopt, [&completions](ThreadId) { completions++; });
  machine_->RunFor(5);
  EXPECT_EQ(completions, 0);
  machine_->scheduler().AssignJob(worker, ScanJob(5));
  machine_->RunUntilIdle(100);
  EXPECT_EQ(completions, 1);
  // The worker can be reused.
  machine_->scheduler().AssignJob(worker, ScanJob(5));
  machine_->RunUntilIdle(100);
  EXPECT_EQ(completions, 2);
}

TEST_F(SchedulerTest, JobsCountedAsTasks) {
  const ThreadId worker =
      machine_->scheduler().SpawnWorker(std::nullopt, nullptr);
  machine_->scheduler().AssignJob(worker, ScanJob(1));
  machine_->scheduler().AssignJob(worker, ScanJob(1));
  EXPECT_EQ(machine_->counters().tasks_spawned, 2);
}

TEST_F(SchedulerTest, PlacementSpreadsAcrossNodes) {
  // 4 one-shot threads on an idle 4-node machine must land on 4 different
  // nodes (the OS balances for load, scattering threads).
  std::vector<ThreadId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(machine_->scheduler().SpawnOneShot(ScanJob(1000), std::nullopt,
                                                     nullptr));
  }
  std::set<numasim::NodeId> nodes;
  for (ThreadId id : ids) {
    const Thread& t = machine_->scheduler().thread(id);
    nodes.insert(machine_->topology().NodeOfCore(t.core));
  }
  EXPECT_EQ(nodes.size(), 4u);
}

TEST_F(SchedulerTest, MaskRestrictsPlacement) {
  machine_->scheduler().SetAllowedMask(CpuMask::Of({2, 3}));
  for (int i = 0; i < 6; ++i) {
    machine_->scheduler().SpawnOneShot(ScanJob(100), std::nullopt, nullptr);
  }
  machine_->RunFor(3);
  for (int64_t id = 0; id < machine_->scheduler().num_threads(); ++id) {
    const Thread& t = machine_->scheduler().thread(id);
    if (t.state == ThreadState::kReady || t.state == ThreadState::kRunning) {
      EXPECT_TRUE(t.core == 2 || t.core == 3) << "thread on core " << t.core;
    }
  }
}

TEST_F(SchedulerTest, ShrinkingMaskEvacuatesThreads) {
  for (int i = 0; i < 8; ++i) {
    machine_->scheduler().SpawnOneShot(ScanJob(50000), std::nullopt, nullptr);
  }
  machine_->RunFor(2);
  const int64_t migrations_before = machine_->counters().thread_migrations;
  machine_->scheduler().SetAllowedMask(CpuMask::Of({0}));
  EXPECT_GT(machine_->counters().thread_migrations, migrations_before);
  machine_->RunFor(2);
  for (int64_t id = 0; id < machine_->scheduler().num_threads(); ++id) {
    const Thread& t = machine_->scheduler().thread(id);
    if (t.state == ThreadState::kReady || t.state == ThreadState::kRunning) {
      EXPECT_EQ(t.core, 0);
    }
  }
}

TEST_F(SchedulerTest, PinnedThreadStaysOnItsNode) {
  const CpuMask node2 = CpuMask::Of({8, 9, 10, 11});
  machine_->scheduler().SpawnOneShot(ScanJob(3000), node2, nullptr);
  for (int tick = 0; tick < 20; ++tick) {
    machine_->Step();
    const Thread& t = machine_->scheduler().thread(0);
    if (t.state == ThreadState::kFinished) break;
    if (t.core != numasim::kInvalidCore) {
      EXPECT_EQ(machine_->topology().NodeOfCore(t.core), 2);
    }
  }
}

TEST_F(SchedulerTest, IdleCoreStealsWork) {
  // Pile many threads onto one allowed core, then widen the mask: the newly
  // allowed cores must steal.
  machine_->scheduler().SetAllowedMask(CpuMask::Of({0}));
  for (int i = 0; i < 8; ++i) {
    machine_->scheduler().SpawnOneShot(ScanJob(20000), std::nullopt, nullptr);
  }
  machine_->RunFor(1);
  machine_->scheduler().SetAllowedMask(CpuMask::FirstN(16));
  machine_->RunFor(3);
  EXPECT_GT(machine_->counters().stolen_tasks, 0);
}

TEST_F(SchedulerTest, LoadBalancerMovesQueuedThreads) {
  // Threads pinned to cores {0,1} make core 0's queue deep; periodic load
  // balancing should move some to core 1.
  const CpuMask pair = CpuMask::Of({0, 1});
  machine_->scheduler().SetAllowedMask(pair);
  for (int i = 0; i < 10; ++i) {
    machine_->scheduler().SpawnOneShot(ScanJob(800), pair, nullptr);
  }
  machine_->RunUntilIdle(2000);
  EXPECT_EQ(machine_->scheduler().runnable_threads(), 0);
  EXPECT_GT(machine_->counters().load_balance_rounds, 0);
}

TEST_F(SchedulerTest, BusyCyclesAreAccounted) {
  machine_->scheduler().SpawnOneShot(ScanJob(100), CpuMask::Of({0}), nullptr);
  machine_->RunUntilIdle(100);
  EXPECT_GT(machine_->counters().core_busy_cycles[0], 0);
}

TEST_F(SchedulerTest, StreamBusyCyclesAttributed) {
  Job job = ScanJob(50, false, /*stream=*/4);
  machine_->scheduler().SpawnOneShot(std::move(job), std::nullopt, nullptr);
  machine_->RunUntilIdle(100);
  EXPECT_GT(machine_->counters().stream_busy_cycles[4], 0);
  EXPECT_EQ(machine_->counters().stream_busy_cycles[5], 0);
}

TEST_F(SchedulerTest, MultiRangeJobInterleavesAndCompletes) {
  // A job over three ranges (two reads + one write) completes fully.
  const auto mk_buffer = [this](int64_t pages, bool place) {
    const numasim::BufferId b = machine_->page_table().CreateBuffer(pages);
    if (place) machine_->page_table().PlaceAllOn(b, 1);
    return b;
  };
  Job job;
  job.stream = 0;
  job.ranges.push_back(PageRange{mk_buffer(40, true), 0, 40, false});
  job.ranges.push_back(PageRange{mk_buffer(40, true), 0, 40, false});
  job.ranges.push_back(PageRange{mk_buffer(20, false), 0, 20, true});
  job.cpu_cycles_per_page = 100;
  bool done = false;
  machine_->scheduler().SpawnOneShot(std::move(job), std::nullopt,
                                     [&done](ThreadId) { done = true; });
  machine_->RunUntilIdle(200);
  EXPECT_TRUE(done);
  EXPECT_EQ(machine_->scheduler().thread(0).pages_processed, 100);
}

TEST_F(SchedulerTest, CpusetConfinesThreads) {
  const CpusetId group = machine_->scheduler().CreateCpuset(CpuMask::Of({0, 1}));
  for (int i = 0; i < 6; ++i) {
    machine_->scheduler().SpawnOneShot(ScanJob(500), std::nullopt, nullptr,
                                       group);
  }
  machine_->RunFor(3);
  for (int64_t id = 0; id < machine_->scheduler().num_threads(); ++id) {
    const Thread& t = machine_->scheduler().thread(id);
    if (t.state == ThreadState::kReady || t.state == ThreadState::kRunning) {
      EXPECT_TRUE(t.core == 0 || t.core == 1) << "thread on core " << t.core;
    }
  }
}

TEST_F(SchedulerTest, CpusetRebalanceMigratesOnlyItsThreads) {
  const CpusetId a = machine_->scheduler().CreateCpuset(CpuMask::Of({0, 1}));
  const CpusetId b = machine_->scheduler().CreateCpuset(CpuMask::Of({2, 3}));
  std::vector<ThreadId> a_threads;
  std::vector<ThreadId> b_threads;
  for (int i = 0; i < 4; ++i) {
    a_threads.push_back(machine_->scheduler().SpawnOneShot(
        ScanJob(50000), std::nullopt, nullptr, a));
    b_threads.push_back(machine_->scheduler().SpawnOneShot(
        ScanJob(50000), std::nullopt, nullptr, b));
  }
  machine_->RunFor(2);
  // Hand group a a different pair of cores, as the arbiter does at a
  // monitor-round boundary.
  machine_->scheduler().SetCpusetMask(a, CpuMask::Of({4, 5}));
  machine_->RunFor(2);
  for (ThreadId id : a_threads) {
    const Thread& t = machine_->scheduler().thread(id);
    if (t.state == ThreadState::kReady || t.state == ThreadState::kRunning) {
      EXPECT_TRUE(t.core == 4 || t.core == 5) << "thread on core " << t.core;
    }
  }
  for (ThreadId id : b_threads) {
    const Thread& t = machine_->scheduler().thread(id);
    if (t.state == ThreadState::kReady || t.state == ThreadState::kRunning) {
      EXPECT_TRUE(t.core == 2 || t.core == 3) << "thread on core " << t.core;
    }
  }
}

TEST_F(SchedulerTest, StealNeverCrossesCpusetBoundary) {
  // Six long jobs crowd the one-core group; the fifteen idle cores outside
  // the group must not steal them.
  const CpusetId group = machine_->scheduler().CreateCpuset(CpuMask::Of({0}));
  for (int i = 0; i < 6; ++i) {
    machine_->scheduler().SpawnOneShot(ScanJob(5000), std::nullopt, nullptr,
                                       group);
  }
  machine_->RunFor(10);
  EXPECT_EQ(machine_->counters().stolen_tasks, 0);
  for (int core = 1; core < 16; ++core) {
    EXPECT_EQ(machine_->counters().core_busy_cycles[core], 0)
        << "work leaked to core " << core;
  }
}

TEST_F(SchedulerTest, CpusetThreadsReconfinedAfterGlobalMaskRoundTrip) {
  // When cpuset ∩ allowed goes empty the group's threads legally fall back
  // to the global mask; once the intersection is restored they must return
  // to their group instead of squatting on foreign cores forever.
  const CpusetId group = machine_->scheduler().CreateCpuset(CpuMask::Of({4, 5}));
  std::vector<ThreadId> ids;
  for (int i = 0; i < 2; ++i) {
    ids.push_back(machine_->scheduler().SpawnOneShot(ScanJob(50000),
                                                     std::nullopt, nullptr,
                                                     group));
  }
  machine_->RunFor(2);
  machine_->scheduler().SetAllowedMask(CpuMask::Of({0, 1}));
  machine_->RunFor(2);
  for (ThreadId id : ids) {
    const Thread& t = machine_->scheduler().thread(id);
    if (t.state == ThreadState::kReady || t.state == ThreadState::kRunning) {
      EXPECT_TRUE(t.core == 0 || t.core == 1) << "thread on core " << t.core;
    }
  }
  machine_->scheduler().SetAllowedMask(CpuMask::FirstN(16));
  machine_->RunFor(2);
  for (ThreadId id : ids) {
    const Thread& t = machine_->scheduler().thread(id);
    if (t.state == ThreadState::kReady || t.state == ThreadState::kRunning) {
      EXPECT_TRUE(t.core == 4 || t.core == 5) << "thread on core " << t.core;
    }
  }
}

TEST_F(SchedulerTest, PinIntersectsCpusetWorld) {
  const CpusetId group = machine_->scheduler().CreateCpuset(CpuMask::Of({1, 2}));
  // Pin {0,1} ∩ cpuset {1,2} = {1}.
  machine_->scheduler().SpawnOneShot(ScanJob(3000), CpuMask::Of({0, 1}), nullptr,
                                     group);
  for (int tick = 0; tick < 10; ++tick) {
    machine_->Step();
    const Thread& t = machine_->scheduler().thread(0);
    if (t.state == ThreadState::kFinished) break;
    if (t.core != numasim::kInvalidCore) EXPECT_EQ(t.core, 1);
  }
}

TEST_F(SchedulerTest, TimesliceRotatesThreadsOnSharedCore) {
  machine_->scheduler().SetAllowedMask(CpuMask::Of({0}));
  // Two long jobs share core 0; both make progress before either finishes.
  machine_->scheduler().SpawnOneShot(ScanJob(100000), std::nullopt, nullptr);
  machine_->scheduler().SpawnOneShot(ScanJob(100000), std::nullopt, nullptr);
  machine_->RunFor(20);
  EXPECT_GT(machine_->scheduler().thread(0).pages_processed, 0);
  EXPECT_GT(machine_->scheduler().thread(1).pages_processed, 0);
}

/// Cores AssignJob picks for idle workers on a 2-node x 4-core machine with
/// two cpusets, a pinned worker and a cpuset rewrite halfway through.
std::vector<numasim::CoreId> PlacementSequence() {
  MachineOptions options;
  options.config.num_nodes = 2;
  options.config.cores_per_node = 4;
  Machine machine(options);
  Scheduler& scheduler = machine.scheduler();
  const CpusetId a = scheduler.CreateCpuset(CpuMask::Of({0, 1, 4, 5}));
  const CpusetId b = scheduler.CreateCpuset(CpuMask::Of({2, 3, 6, 7}));
  std::vector<ThreadId> workers;
  for (int i = 0; i < 4; ++i) {
    workers.push_back(scheduler.SpawnWorker(std::nullopt, nullptr, a));
  }
  for (int i = 0; i < 3; ++i) {
    workers.push_back(scheduler.SpawnWorker(std::nullopt, nullptr, b));
  }
  workers.push_back(scheduler.SpawnWorker(CpuMask::Of({5, 6}), nullptr));
  const numasim::BufferId buffer =
      machine.page_table().CreateBuffer(64, "placement");

  std::vector<numasim::CoreId> chosen;
  for (int round = 0; round < 40; ++round) {
    if (round == 20) scheduler.SetCpusetMask(a, CpuMask::Of({0, 4, 6}));
    for (size_t w = 0; w < workers.size(); ++w) {
      // A varying subset of workers gets a job of varying length each round,
      // so per-core and per-node loads differ from one placement to the next.
      if ((round + static_cast<int>(w)) % 3 == 0) continue;
      const ThreadId id = workers[w];
      const bool idle = scheduler.thread(id).state == ThreadState::kIdle;
      Job job;
      PageRange range;
      range.buffer = buffer;
      range.begin = 0;
      range.end = 1 + (round * 7 + static_cast<int>(w) * 5) % 12;
      job.ranges.push_back(range);
      job.cpu_cycles_per_page = 50'000;
      scheduler.AssignJob(id, std::move(job));
      if (idle) chosen.push_back(scheduler.thread(id).core);
    }
    machine.Step();
  }
  return chosen;
}

TEST(SchedulerPlacementTest, PlacementSequenceMatchesGolden) {
  // Captured from the list-materializing placement code this scheduler
  // replaced; locks the min-load -> least-loaded-node -> round-robin order.
  const std::vector<numasim::CoreId> kGolden = {
      0, 5, 6, 3, 5, 1, 4, 5, 2, 3, 6, 5, 0, 4, 2, 3, 0, 5, 6, 3, 5, 1, 4, 5,
      2, 6, 5, 5, 0, 4, 2, 6, 0, 5, 6, 3, 5, 1, 4, 5, 2, 7, 6, 5, 0, 4, 2, 7,
      0, 5, 6, 3, 5, 1, 4, 5, 2, 3, 6, 5, 0, 4, 2, 3, 0, 5, 6, 3, 5, 1, 4, 5,
      2, 6, 5, 5, 0, 4, 2, 6, 0, 5, 6, 3, 5, 1, 4, 5, 2, 7, 6, 5, 0, 4, 2, 7,
      0, 5, 6, 3, 5, 1, 4, 5, 2, 3, 6, 6, 0, 4, 2, 7, 4, 0, 6, 3, 5, 0, 4, 6,
      2, 7, 5, 0, 4, 6, 2, 7, 6, 0, 3, 7, 5, 4, 0, 6, 2, 7, 5, 4, 0, 6, 2, 7,
      0, 6, 7, 3, 5, 6, 0, 4, 2, 7, 5, 6, 0, 4, 2, 7, 4, 0, 6, 3, 5, 0, 4, 6,
      2, 7, 5, 0, 4, 6, 2, 7, 6, 0, 3, 7, 5, 4, 0, 6, 2, 7, 5, 4, 0, 6, 2, 7,
      0, 6, 7, 3, 5, 6, 0, 4, 2, 7, 5, 6, 0, 4, 2, 7, 4, 0, 6, 3, 5};
  EXPECT_EQ(PlacementSequence(), kGolden);
}

}  // namespace
}  // namespace elastic::ossim

// FaultInjectionPlatform tests: the decorator must be a pure passthrough
// with an empty schedule, inject exactly the scheduled faults inside their
// windows, and replay identically for a fixed seed — chaos runs are as
// deterministic as the fault-free benches.

#include "platform/fault_injection_platform.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ossim/machine.h"
#include "platform/sim_platform.h"

namespace elastic::platform {
namespace {

std::unique_ptr<ossim::Machine> SmallMachine() {
  ossim::MachineOptions options;
  options.config.num_nodes = 2;
  options.config.cores_per_node = 2;
  return std::make_unique<ossim::Machine>(options);
}

FaultRule Rule(FaultKind kind, simcore::Tick from, simcore::Tick until,
               int target = -1, double probability = 1.0) {
  FaultRule rule;
  rule.kind = kind;
  rule.from = from;
  rule.until = until;
  rule.target = target;
  rule.probability = probability;
  return rule;
}

TEST(FaultInjectionPlatformTest, EmptyScheduleIsPurePassthrough) {
  auto machine = SmallMachine();
  SimPlatform inner(machine.get());
  FaultInjectionPlatform platform(&inner, FaultSchedule{});

  const CpusetId cpuset = platform.CreateCpuset("t", CpuMask::FirstN(2));
  EXPECT_TRUE(platform.SetCpusetMask(cpuset, CpuMask::Of({0, 2})));
  EXPECT_EQ(platform.cpuset_mask(cpuset), CpuMask::Of({0, 2}));
  EXPECT_EQ(platform.Now(), inner.Now());

  auto sampler = platform.CreateSampler();
  machine->clock().Advance(10);
  const perf::WindowStats window = sampler->Sample();
  EXPECT_EQ(window.ticks, 10);
  EXPECT_TRUE(platform.injection_log().empty());
}

TEST(FaultInjectionPlatformTest, CpusetWriteFailsOnlyInWindowAndOnTarget) {
  auto machine = SmallMachine();
  SimPlatform inner(machine.get());
  FaultSchedule schedule;
  schedule.rules.push_back(
      Rule(FaultKind::kCpusetWriteFail, 5, 15, /*target=*/0));
  FaultInjectionPlatform platform(&inner, schedule);

  const CpusetId hit = platform.CreateCpuset("hit", CpuMask::FirstN(1));
  const CpusetId spared = platform.CreateCpuset("spared", CpuMask::FirstN(1));

  // Before the window: forwarded.
  EXPECT_TRUE(platform.SetCpusetMask(hit, CpuMask::Of({1})));
  machine->clock().Advance(5);  // now = 5, inside [5, 15)
  // The dropped write never reaches the backend: the old mask survives.
  EXPECT_FALSE(platform.SetCpusetMask(hit, CpuMask::Of({2})));
  EXPECT_EQ(platform.cpuset_mask(hit), CpuMask::Of({1}));
  // Another cpuset is unaffected inside the window.
  EXPECT_TRUE(platform.SetCpusetMask(spared, CpuMask::Of({3})));
  machine->clock().Advance(10);  // now = 15, window closed
  EXPECT_TRUE(platform.SetCpusetMask(hit, CpuMask::Of({2})));

  EXPECT_EQ(platform.injected(FaultKind::kCpusetWriteFail), 1);
  ASSERT_EQ(platform.injection_log().size(), 1u);
  EXPECT_EQ(platform.injection_log()[0],
            "tick 5: cpuset_write_fail target=0 dropped write 2");
}

TEST(FaultInjectionPlatformTest, SampleDropoutIsZeroWidthAndSpansTheGap) {
  auto machine = SmallMachine();
  SimPlatform inner(machine.get());
  FaultSchedule schedule;
  schedule.rules.push_back(
      Rule(FaultKind::kSampleDropout, 10, 20, /*target=*/0));
  FaultInjectionPlatform platform(&inner, schedule);

  auto sampler = platform.CreateSampler();  // creation index 0
  machine->clock().Advance(10);
  const perf::WindowStats dropped = sampler->Sample();
  EXPECT_EQ(dropped.ticks, 0);
  EXPECT_EQ(dropped.num_cores(), 0);

  // The inner sampler was never touched, so the next good window covers the
  // whole blind period — 20 ticks, not 10.
  machine->clock().Advance(10);
  const perf::WindowStats good = sampler->Sample();
  EXPECT_EQ(good.ticks, 20);
}

TEST(FaultInjectionPlatformTest, SampleGarbageScramblesBusyCounters) {
  auto machine = SmallMachine();
  SimPlatform inner(machine.get());
  FaultSchedule schedule;
  schedule.rules.push_back(
      Rule(FaultKind::kSampleGarbage, 0, 100, /*target=*/0));
  FaultInjectionPlatform platform(&inner, schedule);

  auto sampler = platform.CreateSampler();
  machine->clock().Advance(10);
  const perf::WindowStats garbage = sampler->Sample();
  ASSERT_GT(garbage.num_cores(), 0);
  // Absurd by construction: far more busy cycles than the window holds.
  EXPECT_GT(garbage.core_busy_cycles(0),
            garbage.ticks * inner.cycles_per_tick() * 100);
  EXPECT_EQ(garbage.ticks, 10);  // the window itself is real, data is not
}

TEST(FaultInjectionPlatformTest, FaultyWindowsLeaveNeighboursUnchanged) {
  // Every sampler of the platform shares one snapshot per tick: garbage on
  // one sampler must not scramble the shared copy, and a dropout must not
  // disturb it either.
  auto machine = SmallMachine();
  SimPlatform inner(machine.get());
  FaultSchedule schedule;
  schedule.rules.push_back(
      Rule(FaultKind::kSampleGarbage, 0, 100, /*target=*/0));
  schedule.rules.push_back(
      Rule(FaultKind::kSampleDropout, 0, 100, /*target=*/1));
  FaultInjectionPlatform platform(&inner, schedule);
  auto garbage = platform.CreateSampler();  // creation index 0
  auto dropout = platform.CreateSampler();  // creation index 1
  auto healthy = platform.CreateSampler();  // creation index 2
  perf::Sampler reference(&machine->counters(), &machine->clock());

  machine->counters().core_busy_cycles[1] += 700;
  machine->counters().imc_bytes[0] += 8192;
  machine->counters().ht_bytes_total += 4096;
  machine->clock().Advance(10);
  const perf::WindowStats scrambled = garbage->Sample();
  const perf::WindowStats dropped = dropout->Sample();
  const perf::WindowStats window = healthy->Sample();
  const perf::WindowStats expected = reference.Sample();

  EXPECT_GT(scrambled.core_busy_cycles(1), 700);
  EXPECT_EQ(dropped.ticks, 0);
  EXPECT_EQ(window.ticks, expected.ticks);
  EXPECT_EQ(window.ht_bytes, expected.ht_bytes);
  EXPECT_EQ(window.Deltas().core_busy_cycles,
            expected.Deltas().core_busy_cycles);
  EXPECT_EQ(window.Deltas().imc_bytes, expected.Deltas().imc_bytes);
  EXPECT_EQ(window.core_busy_cycles(1), 700);
  EXPECT_EQ(window.imc_bytes(0), 8192);
  EXPECT_EQ(platform.injected(FaultKind::kSampleGarbage), 1);
  EXPECT_EQ(platform.injected(FaultKind::kSampleDropout), 1);
  EXPECT_EQ(inner.snapshot_copies(), 2);  // creation tick + sampling tick
}

TEST(FaultInjectionPlatformTest, ClockStallFreezesNowInsideTheWindow) {
  auto machine = SmallMachine();
  SimPlatform inner(machine.get());
  FaultSchedule schedule;
  schedule.rules.push_back(Rule(FaultKind::kClockStall, 10, 20));
  FaultInjectionPlatform platform(&inner, schedule);

  machine->clock().Advance(9);
  EXPECT_EQ(platform.Now(), 9);
  machine->clock().Advance(5);  // inner now = 14, inside [10, 20)
  EXPECT_EQ(platform.Now(), 10);
  machine->clock().Advance(6);  // inner now = 20, window closed
  EXPECT_EQ(platform.Now(), 20);
}

TEST(FaultInjectionPlatformTest, TickDelayDefersButNeverDropsHookTicks) {
  auto machine = SmallMachine();
  SimPlatform inner(machine.get());
  FaultSchedule schedule;
  schedule.rules.push_back(Rule(FaultKind::kTickDelay, 3, 5, /*target=*/0));
  FaultInjectionPlatform platform(&inner, schedule);

  std::vector<simcore::Tick> fired;
  platform.AddTickHook([&](simcore::Tick now) { fired.push_back(now); });
  // Step() delivers hooks at the pre-advance tick: 0, 1, ..., 5.
  for (int i = 0; i < 6; ++i) machine->Step();

  // Ticks 3 and 4 are suppressed when they occur; the newest suppressed
  // tick (4) replays on the first delivery after the window, before tick 5.
  // A late timer runs the delayed round, it does not silently skip it.
  const std::vector<simcore::Tick> expected = {0, 1, 2, 4, 5};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(platform.injected(FaultKind::kTickDelay), 2);
}

TEST(FaultInjectionPlatformTest, SameSeedAndScheduleReplayIdentically) {
  FaultSchedule schedule;
  schedule.seed = 0xC0FFEE;
  schedule.rules.push_back(Rule(FaultKind::kCpusetWriteFail, 0, 1000,
                                /*target=*/-1, /*probability=*/0.5));

  auto run = [&schedule]() {
    auto machine = SmallMachine();
    SimPlatform inner(machine.get());
    FaultInjectionPlatform platform(&inner, schedule);
    const CpusetId cpuset = platform.CreateCpuset("t", CpuMask::FirstN(1));
    std::vector<std::string> log;
    for (int i = 0; i < 50; ++i) {
      machine->clock().Advance(1);
      platform.SetCpusetMask(
          cpuset, i % 2 == 0 ? CpuMask::Of({1}) : CpuMask::Of({2}));
    }
    return platform.injection_log();
  };

  const std::vector<std::string> first = run();
  const std::vector<std::string> second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace elastic::platform

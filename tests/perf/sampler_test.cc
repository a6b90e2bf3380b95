#include "perf/sampler.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "perf/counters.h"
#include "simcore/clock.h"

namespace elastic::perf {
namespace {

TEST(SamplerTest, DeltasSinceBaseline) {
  CounterSet counters(4, 8, 16);
  simcore::Clock clock;
  Sampler sampler(&counters, &clock);

  counters.l3_misses[2] += 10;
  counters.ht_bytes_total += 4096;
  counters.core_busy_cycles[0] += 1000;
  clock.Advance(5);

  const WindowStats stats = sampler.Sample();
  EXPECT_EQ(stats.ticks, 5);
  EXPECT_EQ(stats.l3_misses(2), 10);
  EXPECT_EQ(stats.ht_bytes, 4096);
  EXPECT_EQ(stats.core_busy_cycles(0), 1000);
}

TEST(SamplerTest, SampleRebaselines) {
  CounterSet counters(4, 8, 16);
  simcore::Clock clock;
  Sampler sampler(&counters, &clock);
  counters.minor_faults = 7;
  clock.Advance(1);
  sampler.Sample();
  clock.Advance(1);
  const WindowStats second = sampler.Sample();
  EXPECT_EQ(second.minor_faults, 0);
  EXPECT_EQ(second.ticks, 1);
}

TEST(SamplerTest, CpuLoadPercentOverMask) {
  CounterSet counters(4, 8, 16);
  simcore::Clock clock;
  Sampler sampler(&counters, &clock);
  const int64_t cycles_per_tick = 1000;
  // Core 0 fully busy for 10 ticks, core 1 idle.
  counters.core_busy_cycles[0] = 10 * cycles_per_tick;
  clock.Advance(10);
  const WindowStats stats = sampler.Sample();
  const platform::CpuMask both = platform::CpuMask::Of({0, 1});
  EXPECT_NEAR(stats.CpuLoadPercent(both, cycles_per_tick), 50.0, 1e-9);
  const platform::CpuMask only0 = platform::CpuMask::Of({0});
  EXPECT_NEAR(stats.CpuLoadPercent(only0, cycles_per_tick), 100.0, 1e-9);
}

TEST(SamplerTest, HtImcRatio) {
  CounterSet counters(4, 8, 16);
  simcore::Clock clock;
  Sampler sampler(&counters, &clock);
  counters.imc_bytes[0] = 1000;
  counters.imc_bytes[1] = 1000;
  counters.ht_bytes_total = 500;
  clock.Advance(1);
  const WindowStats stats = sampler.Sample();
  EXPECT_NEAR(stats.HtImcRatio(), 0.25, 1e-9);
}

TEST(SamplerTest, RatioOfZeroTrafficIsZero) {
  CounterSet counters(4, 8, 16);
  simcore::Clock clock;
  Sampler sampler(&counters, &clock);
  clock.Advance(1);
  EXPECT_DOUBLE_EQ(sampler.Sample().HtImcRatio(), 0.0);
}

TEST(SamplerTest, BandwidthUsesSimulatedSeconds) {
  CounterSet counters(4, 8, 16);
  simcore::Clock clock;
  Sampler sampler(&counters, &clock);
  counters.ht_bytes_total = 1'000'000;
  counters.imc_bytes[3] = 2'000'000;
  clock.Advance(1000);  // 1 simulated second at 1 ms/tick
  const WindowStats stats = sampler.Sample();
  EXPECT_NEAR(stats.HtBytesPerSecond(), 1e6, 1.0);
  EXPECT_NEAR(stats.ImcBytesPerSecond(3), 2e6, 1.0);
}

void ExpectSameWindow(const WindowStats& a, const WindowStats& b) {
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.ht_bytes, b.ht_bytes);
  EXPECT_EQ(a.minor_faults, b.minor_faults);
  EXPECT_EQ(a.stolen_tasks, b.stolen_tasks);
  EXPECT_EQ(a.thread_migrations, b.thread_migrations);
  EXPECT_EQ(a.tasks_spawned, b.tasks_spawned);
  const CounterSnapshot da = a.Deltas();
  const CounterSnapshot db = b.Deltas();
  EXPECT_EQ(da.l3_hits, db.l3_hits);
  EXPECT_EQ(da.l3_misses, db.l3_misses);
  EXPECT_EQ(da.imc_bytes, db.imc_bytes);
  EXPECT_EQ(da.node_access_pages, db.node_access_pages);
  EXPECT_EQ(da.core_busy_cycles, db.core_busy_cycles);
}

void Bump(CounterSet* counters, int64_t by) {
  counters->l3_hits[0] += by;
  counters->l3_misses[1] += 2 * by;
  counters->imc_bytes[2] += 4096 * by;
  counters->node_access_pages[3] += 3 * by;
  counters->core_busy_cycles[5] += 1000 * by;
  counters->ht_bytes_total += 64 * by;
  counters->minor_faults += by;
  counters->stolen_tasks += by;
  counters->tasks_spawned += by;
}

TEST(SamplerTest, SamplersAtOneTickShareOneCopy) {
  CounterSet counters(4, 8, 16);
  simcore::Clock clock;
  auto source = std::make_shared<SnapshotSource>(&counters, &clock);
  std::vector<std::unique_ptr<Sampler>> shared;
  for (int i = 0; i < 8; ++i) {
    shared.push_back(std::make_unique<Sampler>(
        source, &counters, simcore::Clock::kSecondsPerTick));
  }
  // A sampler over its own private source is the reference.
  Sampler independent(&counters, &clock);
  EXPECT_EQ(source->copies(), 1);  // eight baselines, one copy

  for (int round = 1; round <= 3; ++round) {
    Bump(&counters, round);
    clock.Advance(5);
    const WindowStats expected = independent.Sample();
    EXPECT_EQ(expected.core_busy_cycles(5), 1000 * round);
    for (const auto& sampler : shared) {
      ExpectSameWindow(sampler->Sample(), expected);
    }
    EXPECT_EQ(source->copies(), 1 + round);  // one per sampling tick
  }
}

TEST(SamplerTest, ScalarBumpAtOneTickIsSeenOnlyByLaterSamplers) {
  // Hooks bump thread_migrations (SetCpusetMask) between two tenants'
  // samples at one tick. The scalar counters are read live, so only the
  // sampler that reads after the bump sees it, exactly as when every
  // sampler copied the whole CounterSet.
  CounterSet counters(2, 2, 4);
  simcore::Clock clock;
  auto source = std::make_shared<SnapshotSource>(&counters, &clock);
  Sampler first(source, &counters, simcore::Clock::kSecondsPerTick);
  Sampler second(source, &counters, simcore::Clock::kSecondsPerTick);
  clock.Advance(10);
  EXPECT_EQ(first.Sample().thread_migrations, 0);
  counters.thread_migrations += 2;
  EXPECT_EQ(second.Sample().thread_migrations, 2);
  EXPECT_EQ(source->copies(), 2);

  // Next window: the earlier sampler now picks the bump up, the later one
  // already has it in its baseline.
  clock.Advance(10);
  EXPECT_EQ(first.Sample().thread_migrations, 2);
  EXPECT_EQ(second.Sample().thread_migrations, 0);
}

TEST(SamplerTest, SetDeltasLeavesSharedSnapshotsUntouched) {
  CounterSet counters(2, 2, 4);
  simcore::Clock clock;
  auto source = std::make_shared<SnapshotSource>(&counters, &clock);
  Sampler a(source, &counters, simcore::Clock::kSecondsPerTick);
  Sampler b(source, &counters, simcore::Clock::kSecondsPerTick);
  counters.core_busy_cycles[1] += 300;
  clock.Advance(1);
  WindowStats scrambled = a.Sample();
  CounterSnapshot deltas = scrambled.Deltas();
  deltas.core_busy_cycles.assign(deltas.core_busy_cycles.size(), -1);
  scrambled.SetDeltas(std::move(deltas));
  EXPECT_EQ(scrambled.core_busy_cycles(1), -1);
  EXPECT_EQ(scrambled.ticks, 1);
  EXPECT_EQ(b.Sample().core_busy_cycles(1), 300);
}

}  // namespace
}  // namespace elastic::perf

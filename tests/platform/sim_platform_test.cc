// SimPlatform parity: the layering refactor (Platform seam between the
// arbiter and the OS) must not change a single arbitration decision. The
// goldens below were produced by the pre-refactor arbiter (constructed
// directly on ossim::Machine*) driving two fixed synthetic scenarios; the
// same scenarios replayed through a SimPlatform must reproduce them
// round for round.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/arbiter.h"
#include "ossim/machine.h"
#include "platform/sim_platform.h"

namespace elastic::platform {
namespace {

std::unique_ptr<ossim::Machine> EightCoreMachine() {
  ossim::MachineOptions options;
  options.config.num_nodes = 2;
  options.config.cores_per_node = 4;
  return std::make_unique<ossim::Machine>(options);
}

void FakeLoad(ossim::Machine* machine, const CpuMask& mask, double percent,
              int ticks) {
  const int64_t cycles_per_tick = machine->scheduler().cycles_per_tick();
  for (numasim::CoreId core : mask.ToCores()) {
    machine->counters().core_busy_cycles[static_cast<size_t>(core)] +=
        static_cast<int64_t>(percent / 100.0 * cycles_per_tick * ticks);
  }
}

char StateChar(core::PerfState state) {
  switch (state) {
    case core::PerfState::kIdle: return 'I';
    case core::PerfState::kStable: return 'S';
    case core::PerfState::kOverload: return 'O';
  }
  return '?';
}

std::string RoundLine(const core::ArbiterRound& round) {
  std::string line = std::to_string(round.tick) + ":";
  for (size_t i = 0; i < round.tenants.size(); ++i) {
    if (i > 0) line += "|";
    line += StateChar(round.tenants[i].state);
    line += std::to_string(round.tenants[i].granted);
  }
  line += " h" + std::to_string(round.handoffs);
  line += " p" + std::to_string(round.preemptions);
  return line;
}

// Pre-refactor trace of the demand_proportional scenario: tenant a bursts
// for 15 rounds, b stays stable, c bursts from round 21 — growth from the
// pool, idle shrink, and regrowth on the other side of the machine.
const std::vector<std::string> kDemandGolden = {
    "20:O2|S2|I1 h1 p0",
    "40:O3|S2|I1 h1 p0",
    "60:O4|S2|I1 h1 p0",
    "80:O5|S2|I1 h1 p0",
    "100:O5|S2|I1 h0 p0",
    "120:O5|S2|I1 h0 p0",
    "140:O5|S2|I1 h0 p0",
    "160:O5|S2|I1 h0 p0",
    "180:O5|S2|I1 h0 p0",
    "200:O5|S2|I1 h0 p0",
    "220:O5|S2|I1 h0 p0",
    "240:O5|S2|I1 h0 p0",
    "260:O5|S2|I1 h0 p0",
    "280:O5|S2|I1 h0 p0",
    "300:O5|S2|I1 h0 p0",
    "320:I4|S2|I1 h1 p0",
    "340:I3|S2|I1 h1 p0",
    "360:I2|S2|I1 h1 p0",
    "380:I1|S2|I1 h1 p0",
    "400:I1|S2|I1 h0 p0",
    "420:I1|S2|O2 h1 p0",
    "440:I1|S2|O3 h1 p0",
    "460:I1|S2|O4 h1 p0",
    "480:I1|S2|O5 h1 p0",
    "500:I1|S2|O5 h0 p0",
    "520:I1|S2|O5 h0 p0",
    "540:I1|S2|O5 h0 p0",
    "560:I1|S2|O5 h0 p0",
    "580:I1|S2|O5 h0 p0",
    "600:I1|S2|O5 h0 p0",
    "620:I1|S2|O5 h0 p0",
    "640:I1|S2|O5 h0 p0",
    "660:I1|S2|O5 h0 p0",
    "680:I1|S2|O5 h0 p0",
    "700:I1|S2|O5 h0 p0",
    "720:I1|S2|O5 h0 p0",
    "740:I1|S2|O5 h0 p0",
    "760:I1|S2|O5 h0 p0",
    "780:I1|S2|O5 h0 p0",
    "800:I1|S2|O5 h0 p0",
};

// Pre-refactor trace of the slo_aware scenario: the SLO tenant violates
// its p99 between ticks 400 and 800 while overloaded, preempting the
// overloaded best-effort tenant one core per round down to its floor, then
// sheds back to its own floor when the burst passes.
const std::vector<std::string> kSloGolden = {
    "20:S2|O3 h1 p0",
    "40:S2|O4 h1 p0",
    "60:S2|O5 h1 p0",
    "80:S2|O6 h1 p0",
    "100:S2|O6 h0 p0",
    "120:S2|O6 h0 p0",
    "140:S2|O6 h0 p0",
    "160:S2|O6 h0 p0",
    "180:S2|O6 h0 p0",
    "200:S2|O6 h0 p0",
    "220:S2|O6 h0 p0",
    "240:S2|O6 h0 p0",
    "260:S2|O6 h0 p0",
    "280:S2|O6 h0 p0",
    "300:S2|O6 h0 p0",
    "320:S2|O6 h0 p0",
    "340:S2|O6 h0 p0",
    "360:S2|O6 h0 p0",
    "380:S2|O6 h0 p0",
    "400:S2|O6 h0 p0",
    "420:O3|O5 h1 p1",
    "440:O4|O4 h1 p1",
    "460:O5|O3 h1 p1",
    "480:O6|O2 h1 p1",
    "500:O6|O2 h0 p0",
    "520:O6|O2 h0 p0",
    "540:O6|O2 h0 p0",
    "560:O6|O2 h0 p0",
    "580:O6|O2 h0 p0",
    "600:O6|O2 h0 p0",
    "620:O6|O2 h0 p0",
    "640:O6|O2 h0 p0",
    "660:O6|O2 h0 p0",
    "680:O6|O2 h0 p0",
    "700:O6|O2 h0 p0",
    "720:O6|O2 h0 p0",
    "740:O6|O2 h0 p0",
    "760:O6|O2 h0 p0",
    "780:O6|O2 h0 p0",
    "800:O6|O2 h0 p0",
    "820:I5|O3 h2 p0",
    "840:I4|O4 h2 p0",
    "860:I3|O5 h2 p0",
    "880:I2|O6 h2 p0",
    "900:I2|O6 h0 p0",
    "920:I2|O6 h0 p0",
    "940:I2|O6 h0 p0",
    "960:I2|O6 h0 p0",
    "980:I2|O6 h0 p0",
    "1000:I2|O6 h0 p0",
};

TEST(SimPlatformParityTest, DemandProportionalScenarioMatchesPreRefactor) {
  auto machine = EightCoreMachine();
  SimPlatform platform(machine.get());
  core::ArbiterConfig config;
  config.policy = core::ArbitrationPolicy::kDemandProportional;
  config.monitor_period_ticks = 20;
  core::CoreArbiter arbiter(&platform, config);

  core::ArbiterTenantConfig a;
  a.name = "a";
  a.mode = "sparse";
  a.mechanism.initial_cores = 1;
  core::ArbiterTenantConfig b;
  b.name = "b";
  b.mode = "dense";
  b.mechanism.initial_cores = 2;
  core::ArbiterTenantConfig c;
  c.name = "c";
  c.mode = "adaptive";
  c.mechanism.initial_cores = 1;
  c.weight = 2.0;
  arbiter.AddTenant(a);
  arbiter.AddTenant(b);
  arbiter.AddTenant(c);
  arbiter.Install();

  for (int round = 1; round <= 40; ++round) {
    FakeLoad(machine.get(), arbiter.tenant_mask(0), round <= 15 ? 95.0 : 5.0,
             20);
    FakeLoad(machine.get(), arbiter.tenant_mask(1), 50.0, 20);
    FakeLoad(machine.get(), arbiter.tenant_mask(2), round <= 20 ? 5.0 : 95.0,
             20);
    machine->clock().Advance(20);
    arbiter.Poll(machine->clock().now());
    ASSERT_EQ(RoundLine(arbiter.log().back()),
              kDemandGolden[static_cast<size_t>(round - 1)])
        << "diverged at round " << round;
  }
}

TEST(SimPlatformParityTest, SloAwareScenarioMatchesPreRefactor) {
  auto machine = EightCoreMachine();
  SimPlatform platform(machine.get());
  core::ArbiterConfig config;
  config.policy = core::ArbitrationPolicy::kSloAware;
  config.monitor_period_ticks = 20;
  core::CoreArbiter arbiter(&platform, config);

  core::ArbiterTenantConfig slo;
  slo.name = "slo";
  slo.mode = "dense";
  slo.mechanism.initial_cores = 2;
  slo.mechanism.max_cores = 6;
  slo.slo_p99_s = 0.05;
  slo.telemetry_caps = core::TelemetrySnapshot::kTail;
  slo.telemetry = [](simcore::Tick now) {
    core::TelemetrySnapshot snap;
    snap.p99_s = now < 400 ? 0.02 : (now < 800 ? 0.08 : 0.03);
    snap.valid_mask = core::TelemetrySnapshot::kTail;
    return snap;
  };
  core::ArbiterTenantConfig batch;
  batch.name = "batch";
  batch.mode = "adaptive";
  batch.mechanism.initial_cores = 2;
  arbiter.AddTenant(slo);
  arbiter.AddTenant(batch);
  arbiter.Install();

  for (int round = 1; round <= 50; ++round) {
    const double slo_load = round <= 20 ? 60.0 : (round <= 40 ? 90.0 : 5.0);
    FakeLoad(machine.get(), arbiter.tenant_mask(0), slo_load, 20);
    FakeLoad(machine.get(), arbiter.tenant_mask(1), 95.0, 20);
    machine->clock().Advance(20);
    arbiter.Poll(machine->clock().now());
    ASSERT_EQ(RoundLine(arbiter.log().back()),
              kSloGolden[static_cast<size_t>(round - 1)])
        << "diverged at round " << round;
  }
}

// The seam itself: cpusets created through the platform are real scheduler
// cpuset groups, and the platform clock/sampler are the machine's.
TEST(SimPlatformTest, ForwardsCpusetsClockAndSampler) {
  auto machine = EightCoreMachine();
  SimPlatform platform(machine.get());
  EXPECT_EQ(platform.topology().total_cores(), 8);

  const CpusetId cpuset = platform.CreateCpuset("t", CpuMask::FirstN(8));
  EXPECT_EQ(machine->scheduler().cpuset_mask(cpuset), CpuMask::FirstN(8));
  platform.SetCpusetMask(cpuset, CpuMask::Of({1, 2}));
  EXPECT_EQ(machine->scheduler().cpuset_mask(cpuset), CpuMask::Of({1, 2}));
  EXPECT_EQ(platform.cpuset_mask(cpuset), CpuMask::Of({1, 2}));

  machine->clock().Advance(7);
  EXPECT_EQ(platform.Now(), 7);

  auto sampler = platform.CreateSampler();
  machine->counters().core_busy_cycles[0] += 500;
  machine->clock().Advance(3);
  const perf::WindowStats stats = sampler->Sample();
  EXPECT_EQ(stats.ticks, 3);
  EXPECT_EQ(stats.core_busy_cycles(0), 500);
}

}  // namespace
}  // namespace elastic::platform

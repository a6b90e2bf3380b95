// Randomized arbiter-invariant harness: hundreds of seeded rounds of random
// demand, random contention/SLO probe readings and random control-plane
// faults, against every arbitration policy, with the arbiter's safety
// invariants checked after every single round:
//
//   1. tenant cpusets stay pairwise disjoint and inside the machine;
//   2. every active tenant keeps at least one core, and no arbitration
//      action (decay, preemption, contention walk-down) pushes a tenant
//      below its initial_cores floor — only the tenant's own mechanism may
//      shrink it below, one core per round;
//   3. a tenant's max_cores cap is never exceeded;
//   4. a quarantined tenant's mask is frozen for as long as it stays
//      quarantined;
//   5. the whole trajectory is a pure function of the seed (replaying the
//      sequence reproduces every per-round allocation bit for bit);
//   6. the seed-0xC0FFEE trajectory of every policy, with the island-affinity
//      term off and at weight 4, hashes to a committed FNV-1a digest, so a
//      refactor that changes any decision fails here.
//
// The random walk is intentionally adversarial: probe values include
// no-signal readings and saturated abort fractions, cpuset writes fail in
// seeded windows (driving tenants through backoff into quarantine and out
// again), and samplers drop out or return garbage (driving the stale-decay
// path). ARBITER_PROPERTY_ROUNDS overrides the per-policy round count (the
// TSan CI step runs a reduced count); the golden digests always run
// kGoldenRounds.

#include "core/arbiter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "ossim/machine.h"
#include "platform/fault_injection_platform.h"
#include "platform/sim_platform.h"
#include "simcore/rng.h"

namespace elastic::core {
namespace {

constexpr int kNumTenants = 4;
constexpr int kNumNodes = 4;
constexpr int kMonitorTicks = 20;
constexpr int kGoldenRounds = 250;
/// Island-affinity weight of the variant that drives the affinity term.
constexpr double kAffinityWeight = 4.0;

int RoundsPerPolicy() {
  const char* env = std::getenv("ARBITER_PROPERTY_ROUNDS");
  if (env == nullptr) return 250;
  return std::max(10, std::atoi(env));
}

/// Probe readings the tenant lambdas report; rewritten every round by the
/// random walk. Heap-allocated by the harness so the lambdas captured at
/// AddTenant time stay valid for the arbiter's lifetime.
struct ProbeState {
  std::array<double, kNumTenants> abort_fraction;
  std::array<double, kNumTenants> goodput;
  std::array<double, kNumTenants> tail_latency;
  /// kMemory residency, reported only when the affinity term is on.
  std::array<std::array<int64_t, kNumNodes>, kNumTenants> resident_pages;
};

struct TenantShape {
  int initial_cores = 1;
  int max_cores = -1;
  double weight = 1.0;
  /// Contention probes attached (tenants 0 and 1)?
  bool contention_probes = false;
  /// SLO target (tenant 0 only; < 0 = best-effort).
  double slo_p99_s = -1.0;
};

const std::array<TenantShape, kNumTenants>& Shapes() {
  static const std::array<TenantShape, kNumTenants> kShapes = {{
      {2, -1, 2.0, true, 0.05},
      {1, 6, 1.0, true, -1.0},
      {3, -1, 1.0, false, -1.0},
      {1, 4, 0.5, false, -1.0},
  }};
  return kShapes;
}

void FakeLoad(ossim::Machine* machine, const platform::CpuMask& mask,
              double percent, int ticks) {
  const int64_t cycles_per_tick = machine->scheduler().cycles_per_tick();
  for (numasim::CoreId core : mask.ToCores()) {
    machine->counters().core_busy_cycles[static_cast<size_t>(core)] +=
        static_cast<int64_t>(percent / 100.0 * cycles_per_tick * ticks);
  }
}

/// A seeded fault schedule over the run: cpuset-write failures against
/// random tenants (backoff/quarantine path) plus sampler dropouts and
/// garbage (stale path), in random windows.
platform::FaultSchedule MakeSchedule(uint64_t seed, int rounds) {
  simcore::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  platform::FaultSchedule schedule;
  schedule.seed = seed + 7;
  const simcore::Tick horizon = static_cast<simcore::Tick>(rounds) *
                                kMonitorTicks;
  for (int i = 0; i < 8; ++i) {
    platform::FaultRule rule;
    const uint64_t kind = rng.NextBounded(3);
    rule.kind = kind == 0 ? platform::FaultKind::kCpusetWriteFail
                : kind == 1 ? platform::FaultKind::kSampleDropout
                            : platform::FaultKind::kSampleGarbage;
    rule.from = static_cast<simcore::Tick>(rng.NextBounded(
        static_cast<uint64_t>(std::max<simcore::Tick>(horizon, 1))));
    rule.until = rule.from + kMonitorTicks * rng.NextInRange(3, 25);
    rule.target = rule.kind == platform::FaultKind::kCpusetWriteFail
                      ? static_cast<int>(rng.NextBounded(kNumTenants))
                      : -1;
    rule.probability = 0.25 + 0.5 * rng.NextDouble();
    schedule.rules.push_back(rule);
  }
  return schedule;
}

struct RoundSnapshot {
  std::array<uint64_t, kNumTenants> mask_bits;
};

/// Runs `rounds` random rounds of one policy and returns the per-round
/// allocation trajectory; checks every invariant after every round. A
/// positive `affinity_weight` arms the island-affinity term: every tenant
/// then reports random kMemory residency drawn from its own Rng stream, so
/// the weight-0 sequences are untouched.
std::vector<RoundSnapshot> RunSequence(ArbitrationPolicy policy,
                                       uint64_t seed, int rounds,
                                       double affinity_weight = 0.0) {
  ossim::MachineOptions machine_options;
  machine_options.config.num_nodes = kNumNodes;
  machine_options.config.cores_per_node = 4;
  auto machine = std::make_unique<ossim::Machine>(machine_options);
  platform::SimPlatform sim(machine.get());
  platform::FaultInjectionPlatform platform(&sim,
                                            MakeSchedule(seed, rounds));
  const int total = machine->topology().total_cores();

  ArbiterConfig config;
  config.policy = policy;
  config.monitor_period_ticks = kMonitorTicks;
  config.log_rounds = true;
  config.fault_seed = seed;
  config.numa_affinity_weight = affinity_weight;
  CoreArbiter arbiter(&platform, config);

  auto probes = std::make_unique<ProbeState>();
  ProbeState* probe_state = probes.get();
  for (int t = 0; t < kNumTenants; ++t) {
    const TenantShape& shape = Shapes()[static_cast<size_t>(t)];
    ArbiterTenantConfig tenant;
    tenant.name = "t" + std::to_string(t);
    tenant.weight = shape.weight;
    tenant.mechanism.initial_cores = shape.initial_cores;
    tenant.mechanism.max_cores = shape.max_cores;
    tenant.slo_p99_s = shape.slo_p99_s;
    if (shape.slo_p99_s >= 0.0) {
      tenant.telemetry_caps |= TelemetrySnapshot::kTail;
    }
    if (shape.contention_probes) {
      tenant.telemetry_caps |=
          TelemetrySnapshot::kAbort | TelemetrySnapshot::kGoodput;
    }
    if (affinity_weight > 0.0) {
      tenant.telemetry_caps |= TelemetrySnapshot::kMemory;
    }
    if (tenant.telemetry_caps != 0) {
      const uint32_t caps = tenant.telemetry_caps;
      tenant.telemetry = [probe_state, t, caps](simcore::Tick) {
        TelemetrySnapshot snap;
        if ((caps & TelemetrySnapshot::kTail) != 0) {
          snap.p99_s = probe_state->tail_latency[static_cast<size_t>(t)];
          snap.valid_mask |= TelemetrySnapshot::kTail;
        }
        if ((caps & TelemetrySnapshot::kAbort) != 0) {
          snap.abort_fraction =
              probe_state->abort_fraction[static_cast<size_t>(t)];
          snap.valid_mask |= TelemetrySnapshot::kAbort;
          snap.goodput = probe_state->goodput[static_cast<size_t>(t)];
          snap.valid_mask |= TelemetrySnapshot::kGoodput;
        }
        if ((caps & TelemetrySnapshot::kMemory) != 0) {
          const auto& pages =
              probe_state->resident_pages[static_cast<size_t>(t)];
          snap.resident_pages_per_node.assign(pages.begin(), pages.end());
          snap.remote_access_fraction = 0.0;
          snap.valid_mask |= TelemetrySnapshot::kMemory;
        }
        return snap;
      };
    }
    arbiter.AddTenant(tenant);
  }
  arbiter.Install();

  simcore::Rng rng(seed);
  simcore::Rng memory_rng(seed ^ 0x6D656D6F7279ULL);
  std::vector<RoundSnapshot> history;
  history.reserve(static_cast<size_t>(rounds));
  for (int round = 0; round < rounds; ++round) {
    std::array<int, kNumTenants> before{};
    std::array<uint64_t, kNumTenants> before_bits{};
    std::array<bool, kNumTenants> quarantined_before{};
    for (int t = 0; t < kNumTenants; ++t) {
      before[static_cast<size_t>(t)] = arbiter.nalloc(t);
      before_bits[static_cast<size_t>(t)] = arbiter.tenant_mask(t).bits();
      quarantined_before[static_cast<size_t>(t)] =
          arbiter.tenant_quarantined(t);
    }

    // Random demand: idle / stable / overload load per tenant.
    static const double kLoads[3] = {2.0, 45.0, 99.0};
    for (int t = 0; t < kNumTenants; ++t) {
      FakeLoad(machine.get(), arbiter.tenant_mask(t),
               kLoads[rng.NextBounded(3)], kMonitorTicks);
    }
    // Random probe readings, including no-signal and saturated values.
    for (int t = 0; t < kNumTenants; ++t) {
      probe_state->abort_fraction[static_cast<size_t>(t)] =
          rng.NextBernoulli(0.15) ? -1.0 : rng.NextDouble();
      probe_state->goodput[static_cast<size_t>(t)] =
          100.0 + 900.0 * rng.NextDouble();
      probe_state->tail_latency[static_cast<size_t>(t)] =
          rng.NextBernoulli(0.1) ? -1.0 : 0.15 * rng.NextDouble();
    }
    // Random residency: usually concentrated on one island, sometimes
    // nothing resident yet (no preference).
    if (affinity_weight > 0.0) {
      for (int t = 0; t < kNumTenants; ++t) {
        auto& pages = probe_state->resident_pages[static_cast<size_t>(t)];
        const bool empty = memory_rng.NextBernoulli(0.1);
        const uint64_t home = memory_rng.NextBounded(kNumNodes);
        for (int node = 0; node < kNumNodes; ++node) {
          pages[static_cast<size_t>(node)] =
              empty ? 0
                    : static_cast<int64_t>(memory_rng.NextBounded(
                          static_cast<uint64_t>(node) == home ? 4096 : 512));
        }
      }
    }
    machine->clock().Advance(kMonitorTicks);
    arbiter.Poll(machine->clock().now());

    // -- Invariants, every round. --
    EXPECT_FALSE(arbiter.log().empty());
    if (arbiter.log().empty()) break;
    const ArbiterRound& last = arbiter.log().back();
    uint64_t seen = 0;
    for (int t = 0; t < kNumTenants; ++t) {
      const platform::CpuMask& mask = arbiter.tenant_mask(t);
      const TenantShape& shape = Shapes()[static_cast<size_t>(t)];
      const int after = mask.Count();
      const int floor = std::max(1, shape.initial_cores);
      const int cap = shape.max_cores > 0 ? shape.max_cores : total;
      const int demanded = last.tenants[static_cast<size_t>(t)].demanded;

      // (1) disjoint, inside the machine.
      EXPECT_EQ(seen & mask.bits(), 0u)
          << "round " << round << ": tenant masks overlap";
      seen |= mask.bits();
      EXPECT_EQ(mask.bits() & ~((uint64_t{1} << total) - 1), 0u)
          << "round " << round << ": mask beyond the machine";

      // (2) never empty; never pushed below the floor by arbitration. The
      // only actor allowed below the floor is the tenant's own mechanism
      // (a voluntary self-shrink, one core per round).
      EXPECT_GE(after, 1) << "round " << round << ": tenant " << t
                          << " lost its last core";
      int low = std::min(before[static_cast<size_t>(t)], floor);
      if (demanded < before[static_cast<size_t>(t)]) {
        low = std::max(1, low - 1);
      }
      EXPECT_GE(after, low)
          << "round " << round << ": tenant " << t << " below its floor ("
          << before[static_cast<size_t>(t)] << " -> " << after
          << ", demanded " << demanded << ")";

      // (3) cap respected.
      EXPECT_LE(after, cap)
          << "round " << round << ": tenant " << t << " above its cap";

      // (4) quarantine freezes the mask.
      if (quarantined_before[static_cast<size_t>(t)] &&
          arbiter.tenant_quarantined(t)) {
        EXPECT_EQ(mask.bits(), before_bits[static_cast<size_t>(t)])
            << "round " << round << ": quarantined tenant " << t
            << " changed mask";
      }
    }

    RoundSnapshot snapshot;
    for (int t = 0; t < kNumTenants; ++t) {
      snapshot.mask_bits[static_cast<size_t>(t)] =
          arbiter.tenant_mask(t).bits();
    }
    history.push_back(snapshot);
    if (::testing::Test::HasFatalFailure()) break;
  }
  return history;
}

/// FNV-1a over the per-round masks, tenant by tenant, little-endian bytes.
uint64_t Digest(const std::vector<RoundSnapshot>& history) {
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (const RoundSnapshot& round : history) {
    for (const uint64_t bits : round.mask_bits) {
      for (int byte = 0; byte < 8; ++byte) {
        hash ^= (bits >> (8 * byte)) & 0xFF;
        hash *= 0x100000001B3ULL;
      }
    }
  }
  return hash;
}

struct GoldenDigests {
  ArbitrationPolicy policy;
  /// Seed 0xC0FFEE, kGoldenRounds rounds, affinity term off.
  uint64_t oblivious;
  /// The same sequence at numa_affinity_weight = kAffinityWeight.
  uint64_t affinity;
};

/// Captured from the arbiter before its entitlement policies were folded
/// into one split; every later arbiter must reproduce them exactly.
constexpr std::array<GoldenDigests, 5> kGolden = {{
    {ArbitrationPolicy::kFairShare, 0x0126BF95AAD5B11CULL,
     0x8905C76E719B3A36ULL},
    {ArbitrationPolicy::kPriorityWeighted, 0xC52CEF6512A89DDEULL,
     0x83342BA178893BDAULL},
    {ArbitrationPolicy::kDemandProportional, 0x60DE125D42CE5B75ULL,
     0xD00AB1D2B01DBBEAULL},
    {ArbitrationPolicy::kSloAware, 0x52C0B0168E00F1A6ULL,
     0xE1002C4FDAD5B06FULL},
    {ArbitrationPolicy::kContentionAware, 0x65B31944042C00F8ULL,
     0x21D5793C28FD4D06ULL},
}};

class ArbiterPropertyTest
    : public ::testing::TestWithParam<ArbitrationPolicy> {};

TEST_P(ArbiterPropertyTest, InvariantsHoldUnderRandomWalk) {
  const int rounds = RoundsPerPolicy();
  // Two independent seeds double the coverage of rare interleavings
  // (quarantine entry while shrinking, preemption of a stale tenant, ...).
  RunSequence(GetParam(), /*seed=*/0xA5F00D, rounds);
  RunSequence(GetParam(), /*seed=*/0xBADCAB, rounds);
  // The island-affinity term steers handout and preemption; the same
  // invariants must hold with it armed.
  RunSequence(GetParam(), /*seed=*/0xA5F00D, rounds, kAffinityWeight);
}

TEST_P(ArbiterPropertyTest, TrajectoryMatchesGoldenDigest) {
  const ArbitrationPolicy policy = GetParam();
  const auto golden = std::find_if(
      kGolden.begin(), kGolden.end(),
      [policy](const GoldenDigests& g) { return g.policy == policy; });
  ASSERT_NE(golden, kGolden.end());
  EXPECT_EQ(Digest(RunSequence(policy, /*seed=*/0xC0FFEE, kGoldenRounds)),
            golden->oblivious)
      << "affinity weight 0";
  EXPECT_EQ(Digest(RunSequence(policy, /*seed=*/0xC0FFEE, kGoldenRounds,
                               kAffinityWeight)),
            golden->affinity)
      << "affinity weight " << kAffinityWeight;
}

TEST_P(ArbiterPropertyTest, TrajectoryIsDeterministicPerSeed) {
  const int rounds = RoundsPerPolicy();
  const std::vector<RoundSnapshot> first =
      RunSequence(GetParam(), /*seed=*/0xC0FFEE, rounds);
  const std::vector<RoundSnapshot> second =
      RunSequence(GetParam(), /*seed=*/0xC0FFEE, rounds);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].mask_bits, second[i].mask_bits)
        << "round " << i << " diverged between identical seeded runs";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ArbiterPropertyTest,
    ::testing::Values(ArbitrationPolicy::kFairShare,
                      ArbitrationPolicy::kPriorityWeighted,
                      ArbitrationPolicy::kDemandProportional,
                      ArbitrationPolicy::kSloAware,
                      ArbitrationPolicy::kContentionAware),
    [](const ::testing::TestParamInfo<ArbitrationPolicy>& info) {
      return std::string(ArbitrationPolicyName(info.param));
    });

}  // namespace
}  // namespace elastic::core

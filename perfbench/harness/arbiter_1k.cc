// arbiter_1k: the control plane alone. A flat fair_share CoreArbiter manages
// 1000 tenants on a 256-node x 4-core SyntheticPlatform seen through a seeded
// FaultInjectionPlatform; the benchmark scripts the load and calls Poll itself,
// one round after another.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/arbiter.h"
#include "exec/tenant_builder.h"
#include "harness/timing_platform.h"
#include "harness/workloads.h"
#include "platform/fault_injection_platform.h"
#include "platform/synthetic_platform.h"
#include "simcore/rng.h"

namespace perfbench {
namespace {

using elastic::core::ArbiterConfig;
using elastic::core::CoreArbiter;
using elastic::platform::CpuMask;
using elastic::platform::FaultInjectionPlatform;
using elastic::platform::FaultKind;
using elastic::platform::FaultRule;
using elastic::platform::FaultSchedule;
using elastic::platform::SyntheticPlatform;

constexpr int kTenants = 1000;
constexpr int kNodes = 256;
constexpr int kCoresPerNode = 4;
constexpr int kPeriodTicks = 20;
constexpr int kFloor = 1;
constexpr int kCap = 2;
constexpr double kSteadyLoad = 0.50;
constexpr double kBurstLoad = 0.95;
/// Load script: rounds [20, 30) of every 30 are a burst.
constexpr int kCycleRounds = 30;
constexpr int kBurstFrom = 20;
/// Modelled outcomes are read after this many rounds (every phase of the
/// fault schedule lies before it).
constexpr int kModelRounds = 600;
/// The untraced phase runs at least this many rounds, so that ten rounds lie
/// beyond its p99.
constexpr int kMinRounds = 1000;
constexpr int kQuarantinedTenants = 3;

struct Faults {
  FaultSchedule schedule;
  std::vector<int> quarantine_targets;
  int burst_offset = 0;
};

/// The seed picks the fault stream, where the sample-dropout window falls,
/// which cpusets fail for long enough to be quarantined, and which fifth of
/// the tenants bursts.
Faults MakeFaults(uint64_t seed) {
  elastic::simcore::Rng rng(seed ^ 0xA5B1C0DEULL);
  Faults faults;
  faults.schedule.seed = seed;
  const int64_t end = int64_t{1} << 40;
  // A few percent of all cpuset writes fail: backoff and retry.
  faults.schedule.rules.push_back(
      FaultRule{FaultKind::kCpusetWriteFail, 0, end, -1, 0.03});
  // One window of five rounds in which no probe answers, starting a few
  // rounds into a burst (while the bursting tenants hold their second core):
  // hold for the three rounds of TTL, then decay towards entitlement.
  const int64_t dropout_round =
      kCycleRounds * (3 + rng.NextInRange(0, 2)) + kBurstFrom + 4;
  faults.schedule.rules.push_back(
      FaultRule{FaultKind::kSampleDropout, dropout_round * kPeriodTicks,
                (dropout_round + 5) * kPeriodTicks, -1, 1.0});
  // A few cpusets whose writes fail for 60 rounds: quarantine and probes.
  const int64_t quarantine_round = 200 + rng.NextInRange(0, 99);
  for (int i = 0; i < kQuarantinedTenants; ++i) {
    const int target = static_cast<int>(rng.NextInRange(0, kTenants - 1));
    faults.quarantine_targets.push_back(target);
    faults.schedule.rules.push_back(FaultRule{
        FaultKind::kCpusetWriteFail, quarantine_round * kPeriodTicks,
        (quarantine_round + 60) * kPeriodTicks, target, 1.0});
  }
  faults.burst_offset = static_cast<int>(rng.NextInRange(0, 4));
  return faults;
}

elastic::core::ArbiterTenantConfig TenantAt(int i) {
  elastic::core::MechanismConfig mechanism;
  mechanism.initial_cores = kFloor;
  mechanism.max_cores = kCap;
  mechanism.monitor_period_ticks = kPeriodTicks;
  mechanism.log_transitions = false;
  return elastic::exec::TenantBuilder("t" + std::to_string(i))
      .mechanism(mechanism)
      .mode("dense")
      .Build();
}

/// One arbiter with its platform stack, ready for its first Poll.
struct Rig {
  std::unique_ptr<SyntheticPlatform> synthetic;
  std::unique_ptr<FaultInjectionPlatform> faulty;
  std::unique_ptr<TimingPlatform> timing;  // traced rigs only
  std::unique_ptr<CoreArbiter> arbiter;
  std::vector<int> burst_cores;
  double topology_build_s = 0.0;
  double install_s = 0.0;
};

std::unique_ptr<Rig> SetUp(const Faults& faults, SpanRecorder* spans,
                           Report* report) {
  auto rig = std::make_unique<Rig>();
  const int64_t t0 = NowNs();
  elastic::numasim::MachineConfig machine;
  machine.num_nodes = kNodes;
  machine.cores_per_node = kCoresPerNode;
  rig->synthetic = std::make_unique<SyntheticPlatform>(machine);
  const int64_t t1 = NowNs();
  rig->faulty = std::make_unique<FaultInjectionPlatform>(rig->synthetic.get(),
                                                         faults.schedule);
  elastic::platform::Platform* platform = rig->faulty.get();
  if (spans != nullptr) {
    rig->timing = std::make_unique<TimingPlatform>(platform, spans);
    platform = rig->timing.get();
  }
  ArbiterConfig config;
  config.policy = elastic::core::ArbitrationPolicy::kFairShare;
  config.monitor_period_ticks = kPeriodTicks;
  config.register_tick_hook = false;  // the benchmark drives Poll itself
  rig->arbiter = std::make_unique<CoreArbiter>(platform, config);
  for (int i = 0; i < kTenants; ++i) rig->arbiter->AddTenant(TenantAt(i));
  rig->arbiter->Install();
  const int64_t t2 = NowNs();
  rig->topology_build_s = static_cast<double>(t1 - t0) * 1e-9;
  rig->install_s = static_cast<double>(t2 - t1) * 1e-9;

  // The fault rules address cpusets by id; they must be the tenants'.
  for (const int target : faults.quarantine_targets) {
    report->attempted++;
    if (rig->arbiter->tenant_cpuset(target) != target) {
      report->Violation("cpuset id of tenant " + std::to_string(target) +
                        " is not its index; fault targets are wrong");
    }
  }
  for (int i = faults.burst_offset; i < kTenants; i += 5) {
    rig->burst_cores.push_back(rig->arbiter->tenant_mask(i).First());
  }
  return rig;
}

void ApplyLoad(const Rig& rig, bool burst) {
  const int total = rig.synthetic->topology().total_cores();
  for (int core = 0; core < total; ++core) {
    rig.synthetic->SetCoreBusyFraction(core, kSteadyLoad);
  }
  if (!burst) return;
  for (const int core : rig.burst_cores) {
    rig.synthetic->SetCoreBusyFraction(core, kBurstLoad);
  }
}

/// Disjoint masks, floors and caps, for every tenant after every round.
/// Returns the number of tenant-rounds checked.
int64_t CheckRound(const CoreArbiter& arbiter, int round, Report* report) {
  CpuMask seen;
  int64_t bad = 0;
  std::string first;
  for (int i = 0; i < arbiter.num_tenants(); ++i) {
    const CpuMask& mask = arbiter.tenant_mask(i);
    const int n = arbiter.nalloc(i);
    const char* why = nullptr;
    if (!seen.Intersect(mask).Empty()) {
      why = "mask overlaps another tenant's";
    } else if (n != mask.Count()) {
      why = "nalloc differs from its mask";
    } else if (arbiter.tenant_active(i) && (n < kFloor || n > kCap)) {
      why = "allocation outside [floor, cap]";
    }
    seen = seen.Union(mask);
    if (why != nullptr) {
      if (bad == 0) {
        first = "round " + std::to_string(round) + " tenant " +
                std::to_string(i) + ": " + why;
      }
      bad++;
    }
  }
  if (bad > 0) report->Violation(first, bad);
  return arbiter.num_tenants();
}

std::vector<std::pair<std::string, double>> Model(const CoreArbiter& arbiter) {
  const elastic::core::ArbiterStats& stats = arbiter.stats();
  uint64_t digest = 1469598103934665603ULL;  // FNV-1a over all tenant masks
  for (int i = 0; i < arbiter.num_tenants(); ++i) {
    for (const int core : arbiter.tenant_mask(i).ToCores()) {
      digest = (digest ^ static_cast<uint64_t>(core + 1)) * 1099511628211ULL;
    }
    digest = (digest ^ 0xFFu) * 1099511628211ULL;
  }
  return {
      {"fairness", arbiter.FairnessIndex()},
      {"handoffs", static_cast<double>(arbiter.core_handoffs())},
      {"preemptions", static_cast<double>(arbiter.preemptions())},
      {"starved_rounds", static_cast<double>(arbiter.starved_rounds())},
      {"stale_rounds", static_cast<double>(stats.stale_rounds)},
      {"held_rounds", static_cast<double>(stats.held_rounds)},
      {"decayed_cores", static_cast<double>(stats.decayed_cores)},
      {"failed_installs", static_cast<double>(stats.failed_installs)},
      {"quarantine_entries", static_cast<double>(stats.quarantine_entries)},
      {"mask_digest", static_cast<double>(digest >> 12)},
  };
}

/// Runs rounds until `budget_s` of Poll time and `min_rounds` rounds are
/// spent. Returns the modelled outcome at kModelRounds.
std::vector<std::pair<std::string, double>> RunRounds(
    Rig* rig, double budget_s, int min_rounds, SpanRecorder* spans,
    Phase* phase, Report* report) {
  std::vector<std::pair<std::string, double>> model;
  const int64_t budget_ns = static_cast<int64_t>(budget_s * 1e9);
  int64_t spent_ns = 0;
  bool burst = false;
  ApplyLoad(*rig, burst);
  for (int round = 0;
       round < std::max(min_rounds, kModelRounds) || spent_ns < budget_ns;
       ++round) {
    if (spans != nullptr && spans->full() && round >= kModelRounds) break;
    const bool want_burst = round % kCycleRounds >= kBurstFrom;
    if (want_burst != burst) {
      burst = want_burst;
      ApplyLoad(*rig, burst);
    }
    rig->synthetic->AdvanceTicks(kPeriodTicks);
    const elastic::simcore::Tick now = rig->synthetic->Now();

    const int64_t cpu0 = ThreadCpuNs();
    const int64_t t0 = NowNs();
    int span = -1;
    if (spans != nullptr) {
      span = spans->Begin(SpanName::kPoll, -1, t0);
      rig->timing->set_parent(span);
    }
    rig->arbiter->Poll(now);
    const int64_t t1 = NowNs();
    const int64_t cpu1 = ThreadCpuNs();
    if (spans != nullptr) {
      spans->End(span, t1);
      rig->timing->set_parent(-1);
    }
    spent_ns += t1 - t0;
    phase->step_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    phase->step_cpu_us.push_back(static_cast<double>(cpu1 - cpu0) * 1e-3);
    phase->sim_s += elastic::simcore::Clock::ToSeconds(kPeriodTicks);

    report->attempted += CheckRound(*rig->arbiter, round, report);
    if (round + 1 == kModelRounds) model = Model(*rig->arbiter);
    if (round + 1 == kMinRounds && report->peak_rss_kb == 0) {
      report->peak_rss_kb = PeakRssKb();
    }
  }
  phase->reps++;
  return model;
}

}  // namespace

void RunArbiter1k(const RunOptions& options, Report* report) {
  const Faults faults = MakeFaults(options.seed);

  std::vector<double> topology_s;
  std::vector<double> install_s;
  const auto set_up = [&] {
    std::unique_ptr<Rig> rig = SetUp(faults, nullptr, report);
    topology_s.push_back(rig->topology_build_s);
    install_s.push_back(rig->install_s);
    return rig;
  };
  // The untraced phase uses the last set-up of the first batch.
  std::unique_ptr<Rig> rig = TimedSetUps(set_up, &report->setup_s);

  const double untraced_budget =
      options.trace ? options.seconds / 2 : options.seconds;
  const int64_t rss_before = CurrentRssKb();
  const auto model =
      RunRounds(rig.get(), untraced_budget, options.trace ? 0 : kMinRounds,
                nullptr, &report->untraced, report);
  const int64_t rss_after = CurrentRssKb();
  const double rounds = static_cast<double>(report->untraced.step_us.size());
  report->modelled = model;
  if (!options.trace) {
    rig.reset();
    TimedSetUps(set_up, &report->setup_s);
    return;
  }

  // Traced phase: a fresh rig behind the timing decorator.
  rig.reset();
  SpanRecorder spans(kSpanCapacity);
  rig = SetUp(faults, &spans, report);
  topology_s.push_back(rig->topology_build_s);
  install_s.push_back(rig->install_s);
  const auto traced_model = RunRounds(rig.get(), options.seconds / 2, 0,
                                      &spans, &report->traced, report);
  report->CheckSameModel(model, traced_model, "traced vs untraced run");

  const auto totals = spans.ComputeTotals();
  const auto& poll = totals[static_cast<size_t>(SpanName::kPoll)];
  const auto& sample = totals[static_cast<size_t>(SpanName::kSample)];
  const auto& set_cpuset = totals[static_cast<size_t>(SpanName::kSetCpuset)];
  const double n = static_cast<double>(std::max<int64_t>(1, poll.count));
  report->Layer("core.poll_us", poll.total_ns * 1e-3 / n);
  report->Layer("perf.sample_us_per_round", sample.total_ns * 1e-3 / n);
  report->Layer("perf.sample_calls_per_round", sample.count / n);
  report->Layer("platform.set_cpuset_us_per_round",
                set_cpuset.total_ns * 1e-3 / n);
  report->Layer("platform.set_cpuset_calls_per_round", set_cpuset.count / n);
  report->Layer("platform.set_cpuset_fail_ratio",
                rig->timing->set_cpuset_calls() > 0
                    ? static_cast<double>(rig->timing->set_cpuset_failures()) /
                          static_cast<double>(rig->timing->set_cpuset_calls())
                    : 0.0);
  report->Layer("core.poll_self_us", poll.self_ns * 1e-3 / n);
  report->Layer("core.install_s", Median(install_s));
  report->Layer("numasim.topology_build_s", Median(topology_s));
  report->Layer("core.rss_kb_per_round",
                rounds > 0 ? static_cast<double>(rss_after - rss_before) / rounds
                           : 0.0);
  for (const auto& [name, value] : model) {
    if (name == "handoffs") report->Layer("core.handoffs", value);
    if (name == "preemptions") report->Layer("core.preemptions", value);
    if (name == "stale_rounds") report->Layer("core.stale_rounds", value);
    if (name == "quarantine_entries") {
      report->Layer("core.quarantine_entries", value);
    }
  }
  // The three self times partition the Poll spans exactly.
  report->attempted++;
  if (sample.total_ns + set_cpuset.total_ns + poll.self_ns != poll.total_ns ||
      spans.CountEscapingChildren() != 0) {
    report->Violation("perf + platform + core self time != Poll time");
  }
  WriteSpans(options, spans, report);
}

}  // namespace perfbench

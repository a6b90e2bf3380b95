#include "core/arbiter.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "simcore/check.h"

namespace elastic::core {

/// kSloAware band: boost the SLO tenant's entitlement when its recent tail
/// runs past 3/4 of the target (reacting at the target itself is reacting
/// one violated transaction too late), shed slack below half the target,
/// hold in between.
constexpr double kSloBoostRatio = 0.75;
constexpr double kSloShedRatio = 0.5;
/// Ratio a shedding tenant (below its cap) is lifted to: rejected work is
/// invisible to the admitted-only p99, so active shedding is read as a
/// just-past-target violation even when the measured tail looks healthy.
constexpr double kShedViolationRatio = 1.01;
/// Ratio a shedding tenant *at* its cap is clamped to: mid hold-band. More
/// cores are impossible, admission is the active lever, and the tenant must
/// not read as violating (no boost, no preemption on its behalf).
constexpr double kShedHoldRatio = (kSloBoostRatio + kSloShedRatio) / 2.0;
/// SLO-vs-SLO preemption margin: an SLO grower in actual violation
/// (ratio > 1) may take a core from another SLO tenant only when it is
/// suffering at least this factor more, proportionally (p99/target vs
/// p99/target). Equal suffering moves nothing — without the margin two
/// tenants would trade the same core back and forth every round.
constexpr double kSloTieBreakMargin = 1.25;

/// kContentionAware thresholds. At or above the high abort fraction a shrink
/// probe is allowed: the marginal core is presumed to be burning in conflict
/// churn. At or below the low one the mechanism's grow demand passes
/// through: conflicts are rare, parallelism still buys commits.
constexpr double kContentionHighAbort = 0.5;
constexpr double kContentionLowAbort = 0.2;
static_assert(0.0 <= kContentionLowAbort &&
                  kContentionLowAbort <= kContentionHighAbort &&
                  kContentionHighAbort <= 1.0,
              "contention abort thresholds out of order");
/// Relative goodput drop below which a controller move is judged harmless
/// (noise band of the accept/revert decision).
constexpr double kContentionGoodputTolerance = 0.05;

/// Install-failure backoff: the first retry waits this many rounds, each
/// further failure doubles the wait, capped at kInstallMaxBackoffRounds
/// (plus up to kInstallRetryBaseRounds of seeded jitter).
constexpr int64_t kInstallRetryBaseRounds = 1;
constexpr int64_t kInstallMaxBackoffRounds = 8;
static_assert(1 <= kInstallRetryBaseRounds &&
                  kInstallRetryBaseRounds <= kInstallMaxBackoffRounds,
              "install backoff bounds out of order");

const char* ArbitrationPolicyName(ArbitrationPolicy policy) {
  switch (policy) {
    case ArbitrationPolicy::kFairShare: return "fair_share";
    case ArbitrationPolicy::kPriorityWeighted: return "priority_weighted";
    case ArbitrationPolicy::kDemandProportional: return "demand_proportional";
    case ArbitrationPolicy::kSloAware: return "slo_aware";
    case ArbitrationPolicy::kContentionAware: return "contention_aware";
  }
  return "?";
}

bool ParseArbitrationPolicy(const std::string& name,
                            ArbitrationPolicy* policy) {
  // Every policy answers to its full name and to a short alias.
  static constexpr std::pair<const char*, ArbitrationPolicy> kAliases[] = {
      {"fair", ArbitrationPolicy::kFairShare},
      {"priority", ArbitrationPolicy::kPriorityWeighted},
      {"demand", ArbitrationPolicy::kDemandProportional},
      {"slo", ArbitrationPolicy::kSloAware},
      {"contention", ArbitrationPolicy::kContentionAware},
  };
  for (const auto& [alias, candidate] : kAliases) {
    if (name == alias || name == ArbitrationPolicyName(candidate)) {
      *policy = candidate;
      return true;
    }
  }
  return false;
}

ArbitrationPolicy ArbitrationPolicyFromName(const std::string& name) {
  ArbitrationPolicy policy = ArbitrationPolicy::kFairShare;
  const bool known = ParseArbitrationPolicy(name, &policy);
  ELASTIC_CHECK(known, "unknown arbitration policy name");
  return policy;
}

CoreArbiter::CoreArbiter(platform::Platform* platform,
                         const ArbiterConfig& config)
    : platform_(platform),
      config_(config),
      domain_(platform::CpuMask::AllOf(platform->topology())),
      jitter_rng_(config.fault_seed) {
  ELASTIC_CHECK(config_.monitor_period_ticks >= 1, "monitoring period >= 1");
  ELASTIC_CHECK(config_.stale_ttl_rounds >= 0, "stale TTL >= 0");
  ELASTIC_CHECK(config_.quarantine_after_failures >= 1 &&
                    config_.quarantine_probe_rounds >= 1,
                "quarantine thresholds >= 1");
  ELASTIC_CHECK(config_.contention_settle_rounds >= 0 &&
                    config_.contention_backoff_evals >= 0,
                "contention controller knobs must be non-negative");
}

void CoreArbiter::SetDomain(const platform::CpuMask& domain) {
  ELASTIC_CHECK(!installed_, "SetDomain after Install");
  ELASTIC_CHECK(!domain.Empty(), "empty arbitration domain");
  ELASTIC_CHECK(
      domain.IsSubsetOf(platform::CpuMask::AllOf(platform_->topology())),
      "arbitration domain outside the machine");
  domain_ = domain;
}

bool CoreArbiter::TryResizeDomain(const platform::CpuMask& new_domain) {
  if (new_domain.Empty() || !OwnedCores().IsSubsetOf(new_domain)) {
    return false;
  }
  domain_ = new_domain;
  return true;
}

int CoreArbiter::AddTenant(const ArbiterTenantConfig& config) {
  ELASTIC_CHECK(!installed_, "AddTenant after Install");
  ELASTIC_CHECK(config.weight > 0.0, "tenant weight must be positive");
  Tenant tenant;
  tenant.config = config;
  tenant.mechanism = std::make_unique<ElasticMechanism>(
      platform_, MakeMode(config.mode, &platform_->topology()),
      config.mechanism);
  // Placeholder mask; Install() narrows it to the tenant's initial cores.
  tenant.cpuset = platform_->CreateCpuset(
      config.name, platform::CpuMask::AllOf(platform_->topology()));
  tenants_.push_back(std::move(tenant));
  return num_tenants() - 1;
}

const std::string& CoreArbiter::tenant_name(int tenant) const {
  return tenants_[static_cast<size_t>(tenant)].config.name;
}

ElasticMechanism& CoreArbiter::mechanism(int tenant) {
  return *tenants_[static_cast<size_t>(tenant)].mechanism;
}

platform::CpusetId CoreArbiter::tenant_cpuset(int tenant) const {
  return tenants_[static_cast<size_t>(tenant)].cpuset;
}

const platform::CpuMask& CoreArbiter::tenant_mask(int tenant) const {
  return tenants_[static_cast<size_t>(tenant)].mask;
}

int CoreArbiter::nalloc(int tenant) const {
  return tenants_[static_cast<size_t>(tenant)].mask.Count();
}

platform::CpuMask CoreArbiter::OwnedCores() const {
  platform::CpuMask owned;
  for (const Tenant& tenant : tenants_) owned = owned.Union(tenant.mask);
  return owned;
}

platform::CpuMask CoreArbiter::FreePool() const {
  return domain_.Difference(OwnedCores());
}

numasim::CoreId CoreArbiter::PickCoreFor(const Tenant& tenant,
                                         const platform::CpuMask& pool) const {
  const numasim::Topology& topo = platform_->topology();
  // Reuse the NodePriorityQueue as the NUMA-aware handout order: a node's
  // score is dominated by how many cores the tenant already holds there
  // (cluster the cpuset), with free capacity as the tie breaker. Ties in
  // the queue itself break towards the lower node id, so handout is fully
  // deterministic.
  NodePriorityQueue queue(topo.num_nodes());
  const double weight = static_cast<double>(domain_.Count() + 1);
  for (numasim::NodeId node = 0; node < topo.num_nodes(); ++node) {
    int own = 0;
    int free = 0;
    for (numasim::CoreId core : topo.CoresOfNode(node)) {
      if (tenant.mask.Has(core)) own++;
      if (pool.Has(core)) free++;
    }
    double score = own * weight + free;
    if (config_.numa_affinity_weight > 0.0 &&
        node < static_cast<numasim::NodeId>(tenant.mem_fraction.size())) {
      // Island-affinity term: a node holding the tenant's whole resident
      // set scores like numa_affinity_weight already-owned cores, so fresh
      // grants land where the pages are instead of wherever the free pool
      // happens to start.
      score += config_.numa_affinity_weight * weight *
               tenant.mem_fraction[static_cast<size_t>(node)];
    }
    queue.SetScore(node, score);
  }
  for (numasim::NodeId node : queue.ByPriorityDescending()) {
    for (numasim::CoreId core : topo.CoresOfNode(node)) {
      if (pool.Has(core)) return core;
    }
  }
  return numasim::kInvalidCore;
}

void CoreArbiter::Install() {
  ELASTIC_CHECK(!installed_, "arbiter installed twice");
  ELASTIC_CHECK(!tenants_.empty(), "arbiter needs at least one tenant");
  int initial_total = 0;
  for (const Tenant& tenant : tenants_) {
    initial_total += tenant.config.mechanism.initial_cores;
    if (config_.policy == ArbitrationPolicy::kSloAware &&
        tenant.config.slo_p99_s >= 0.0) {
      ELASTIC_CHECK(
          (tenant.config.telemetry_caps & TelemetrySnapshot::kTail) != 0,
          "SLO tenant needs tail telemetry under slo_aware");
    }
    if (config_.policy == ArbitrationPolicy::kContentionAware) {
      ELASTIC_CHECK(
          ((tenant.config.telemetry_caps & TelemetrySnapshot::kAbort) != 0) ==
              ((tenant.config.telemetry_caps & TelemetrySnapshot::kGoodput) !=
               0),
          "contention_aware needs both contention signals or neither");
    }
  }
  ELASTIC_CHECK(initial_total <= domain_.Count(),
                "initial cores of all tenants exceed the domain");
  installed_ = true;
  signals_.resize(tenants_.size());

  // Hand out the initial disjoint masks; PickCoreFor naturally spreads
  // fresh tenants across sockets (a new tenant prefers the emptiest node).
  platform::CpuMask pool = domain_;
  for (Tenant& tenant : tenants_) {
    for (int i = 0; i < tenant.config.mechanism.initial_cores; ++i) {
      const numasim::CoreId core = PickCoreFor(tenant, pool);
      ELASTIC_CHECK(core != numasim::kInvalidCore, "initial handout failed");
      tenant.mask.Set(core);
      pool.Clear(core);
    }
    platform_->SetCpusetMask(tenant.cpuset, tenant.mask);
    tenant.mechanism->InstallManaged(tenant.mask);
  }

  if (config_.register_tick_hook) {
    platform_->AddTickHook([this](simcore::Tick now) {
      if (now % config_.monitor_period_ticks == 0 && now > 0) Poll(now);
    });
  }
}

void CoreArbiter::CollectTelemetry(simcore::Tick now) {
  // Static policies never pull telemetry — unless the island-affinity term
  // is armed, which needs the kMemory signal regardless of policy. The
  // snapshots then stay default-constructed (nothing valid) for good.
  if (config_.policy != ArbitrationPolicy::kSloAware &&
      config_.policy != ArbitrationPolicy::kContentionAware &&
      config_.numa_affinity_weight <= 0.0) {
    return;
  }
  for (size_t i = 0; i < tenants_.size(); ++i) {
    const Tenant& tenant = tenants_[i];
    TelemetrySnapshot& snap = signals_[i].telemetry;
    if (!tenant.active || !tenant.config.telemetry) {
      snap = TelemetrySnapshot();
      continue;
    }
    snap = tenant.config.telemetry(now);
    snap.valid_mask &= tenant.config.telemetry_caps;
    snap.Sanitize();
  }
}

void CoreArbiter::UpdateMemoryResidency() {
  if (config_.numa_affinity_weight <= 0.0) return;
  const int num_nodes = platform_->topology().num_nodes();
  for (size_t i = 0; i < tenants_.size(); ++i) {
    Tenant& tenant = tenants_[i];
    const TelemetrySnapshot& snap = signals_[i].telemetry;
    if (!tenant.active || !snap.has(TelemetrySnapshot::kMemory)) continue;
    // A residency vector that does not match the machine is garbage — keep
    // the last good reading rather than steering on it.
    if (static_cast<int>(snap.resident_pages_per_node.size()) != num_nodes) {
      continue;
    }
    int64_t total = 0;
    for (const int64_t pages : snap.resident_pages_per_node) total += pages;
    if (total <= 0) continue;  // nothing resident yet: no preference
    tenant.mem_fraction.assign(static_cast<size_t>(num_nodes), 0.0);
    for (int node = 0; node < num_nodes; ++node) {
      tenant.mem_fraction[static_cast<size_t>(node)] =
          static_cast<double>(
              snap.resident_pages_per_node[static_cast<size_t>(node)]) /
          static_cast<double>(total);
    }
  }
}

double CoreArbiter::MemAffinity(const Tenant& tenant,
                                numasim::CoreId core) const {
  if (config_.numa_affinity_weight <= 0.0 || tenant.mem_fraction.empty()) {
    return 0.0;
  }
  const numasim::NodeId node = platform_->topology().NodeOfCore(core);
  if (node < 0 ||
      node >= static_cast<numasim::NodeId>(tenant.mem_fraction.size())) {
    return 0.0;
  }
  return tenant.mem_fraction[static_cast<size_t>(node)];
}

double CoreArbiter::SloRatio(const Tenant& tenant,
                             const TelemetrySnapshot& snap, bool shedding,
                             int held) const {
  if (!snap.has(TelemetrySnapshot::kTail)) return -1.0;
  const double p99 = snap.p99_s;
  const double ratio =
      p99 < 0.0 ? -1.0 : p99 / std::max(tenant.config.slo_p99_s, 1e-12);
  // Shed feedback: rejected arrivals never reach the completed-latency
  // percentiles, so a tenant actively shedding is under more pressure
  // than its p99 admits — unless it already holds its cap, where extra
  // cores are unobtainable and reading the shedding as a violation would
  // only burn preemptions on demands that cannot be granted.
  if (!shedding) return ratio;
  return held >= Cap(tenant) ? kShedHoldRatio
                             : std::max(ratio, kShedViolationRatio);
}

void CoreArbiter::UpdateContentionController(
    Tenant& tenant, const ElasticMechanism::Decision& decision,
    const TelemetrySnapshot& snap, int held) {
  const int floor = Floor(tenant);
  const int cap = Cap(tenant);
  const auto clamp = [floor, cap](int cores) {
    return std::min(cap, std::max(floor, cores));
  };
  if (tenant.hc_target == 0) {
    // First round with probes attached: adopt the current holding as the
    // operating point so the controller starts from reality, not from 0.
    tenant.hc_target = clamp(held);
  }
  // No attempt in the window (or a probe dropout): hold.
  if (!snap.has(TelemetrySnapshot::kAbort) || snap.abort_fraction < 0.0) {
    return;
  }
  const double fraction = snap.abort_fraction;
  if (tenant.hc_settle > 0) {
    // The last move has not had a full probe window to show up in the
    // goodput signal yet; measuring now would attribute the old
    // allocation's goodput to the new one.
    tenant.hc_settle--;
    return;
  }
  if (!snap.has(TelemetrySnapshot::kGoodput)) return;  // dropout: hold
  const double goodput = snap.goodput;
  // Evaluate the previous move: if the allocation actually changed and
  // goodput dropped beyond tolerance, revert to the old operating point
  // and block that direction for a while — this is what makes the climber
  // settle at the goodput knee instead of oscillating across it.
  if (tenant.hc_last_goodput >= 0.0 && held != tenant.hc_last_cores) {
    const bool regressed =
        goodput < tenant.hc_last_goodput * (1.0 - kContentionGoodputTolerance);
    if (regressed) {
      if (held > tenant.hc_last_cores) {
        tenant.hc_grow_block = config_.contention_backoff_evals;
      } else {
        tenant.hc_shrink_block = config_.contention_backoff_evals;
      }
      tenant.hc_target = clamp(tenant.hc_last_cores);
      tenant.hc_last_goodput = goodput;
      tenant.hc_last_cores = held;
      tenant.hc_settle = config_.contention_settle_rounds;
      return;
    }
  }
  if (tenant.hc_grow_block > 0) tenant.hc_grow_block--;
  if (tenant.hc_shrink_block > 0) tenant.hc_shrink_block--;
  int target = held;
  if (fraction >= kContentionHighAbort && held > floor &&
      tenant.hc_shrink_block == 0) {
    // High abort fraction: most added work is burning in aborts, so probe
    // one core down — the freed core goes to a tenant that can use it.
    target = held - 1;
  } else if (fraction <= kContentionLowAbort && held < cap &&
             tenant.hc_grow_block == 0 && decision.desired > decision.current) {
    // Low contention and the mechanism wants more cores: let it grow.
    target = held + 1;
  }
  tenant.hc_target = clamp(target);
  tenant.hc_last_goodput = goodput;
  tenant.hc_last_cores = held;
  tenant.hc_settle = config_.contention_settle_rounds;
}

numasim::CoreId CoreArbiter::ReleaseOne(Tenant& tenant, ArbiterRound& round) {
  const numasim::CoreId core =
      tenant.mechanism->mode().NextToRelease(tenant.mask);
  ELASTIC_CHECK(core != numasim::kInvalidCore,
                "release from a tenant without a releasable core");
  tenant.mask.Clear(core);
  round.handoffs++;
  return core;
}

void CoreArbiter::Poll(simcore::Tick now) {
  ELASTIC_CHECK(installed_, "Poll before Install");
  ArbiterRound round;
  round.tick = now;
  round.tenants.resize(tenants_.size());

  CollectSignals(now);
  Entitle();
  Resolve(round);
  InstallRound(now, round);

  handoffs_ += round.handoffs;
  preemptions_ += round.preemptions;
  if (round.starved > 0) starved_rounds_++;
  if (config_.log_rounds) log_.push_back(std::move(round));
  round_counter_++;
}

void CoreArbiter::CollectSignals(simcore::Tick now) {
  for (size_t i = 0; i < tenants_.size(); ++i) {
    Tenant& tenant = tenants_[i];
    ElasticMechanism::Decision& d = signals_[i].decision;
    if (!tenant.active) {
      // Detached tenants are no longer polled; a hold-at-zero placeholder
      // keeps the per-index signals aligned.
      d = ElasticMechanism::Decision{};
      continue;
    }
    d = tenant.mechanism->Decide(now);
    if (!d.valid) {
      tenant.stale_rounds++;
      stats_.stale_rounds++;
      if (tenant.stale_rounds <= config_.stale_ttl_rounds) {
        stats_.held_rounds++;
      }
    } else {
      tenant.stale_rounds = 0;
    }
  }
  // All telemetry of the round is pulled here, once per tenant, through the
  // unified snapshot.
  CollectTelemetry(now);
  UpdateMemoryResidency();
}

void CoreArbiter::Entitle() {
  // The one split. A feedback policy's controlled tenants claim their own
  // core count; every other active tenant gets what the claims leave in
  // proportion to its weight.
  //   - kSloAware: an SLO tenant's claim tracks its tail-latency error. Past
  //     the boost threshold (ratio > 3/4 of target) it is owed headroom —
  //     one core early on, proportional to the error once in violation; a
  //     controller that waits for ratio > 1 reacts only after transactions
  //     have already blown the budget. Comfortably below target (ratio <
  //     1/2) it sheds one core of slack; in between, or without a signal,
  //     it holds. Best-effort tenants absorb the slack when the SLO tenants
  //     are happy and become the preemption victims when one is not.
  //   - kContentionAware: a probe tenant claims its controller's operating
  //     point — the goodput-maximizing core count, which under heavy
  //     conflict is far below what a utilization-driven demand signal would
  //     claim — so every core a collapsing tenant walks away from lands on
  //     a tenant that can convert it into goodput.
  //   - The remainder weights: 1 (fair_share and the feedback policies'
  //     uncontrolled tenants), the configured weight (priority_weighted),
  //     or demand in busy-core equivalents (demand_proportional; the
  //     epsilon keeps an all-idle machine at equal shares instead of 0/0).
  // Claims are computed against the holding after the tenant's own shrink
  // of this round (resolve applies it), the count the claim must explain.
  const bool slo_aware = config_.policy == ArbitrationPolicy::kSloAware;
  const bool contention_aware =
      config_.policy == ArbitrationPolicy::kContentionAware;
  double remaining = static_cast<double>(domain_.Count());
  double weight_sum = 0.0;
  for (size_t i = 0; i < tenants_.size(); ++i) {
    Tenant& tenant = tenants_[i];
    RoundSignals& s = signals_[i];
    const ElasticMechanism::Decision& d = s.decision;
    s.slo_ratio = -1.0;
    s.shedding = false;
    s.releases = false;
    s.share_weight = 0.0;
    s.entitlement = 0.0;
    if (!tenant.active) continue;
    const bool slo_tenant = slo_aware && tenant.config.slo_p99_s >= 0.0;
    // Under kSloAware an SLO tenant's floor is provisioned standby
    // capacity, not just a preemption bound: lulls in an open-loop arrival
    // stream must not strip the cores the next burst will need before the
    // tail signal can possibly react.
    const bool standby_floor =
        slo_tenant && tenant.mask.Count() <= Floor(tenant);
    s.releases = !Frozen(tenant) && d.desired < d.current && !standby_floor;
    const int held = tenant.mask.Count() - (s.releases ? 1 : 0);
    if (slo_tenant) {
      const TelemetrySnapshot& snap = s.telemetry;
      s.shedding = snap.has(TelemetrySnapshot::kShed) && snap.shed_rate > 0.0;
      s.slo_ratio = SloRatio(tenant, snap, s.shedding, held);
      const double h = held;
      s.entitlement = h;
      if (s.slo_ratio > kSloBoostRatio) {
        s.entitlement = std::min<double>(
            Cap(tenant),
            h + std::max(1.0, std::ceil((s.slo_ratio - 1.0) * h) + 1.0));
      } else if (s.slo_ratio >= 0.0 && s.slo_ratio < kSloShedRatio) {
        s.entitlement = std::max<double>(Floor(tenant), h - 1.0);
      }
    } else if (contention_aware && HasContentionCaps(tenant.config)) {
      UpdateContentionController(tenant, d, s.telemetry, held);
      s.entitlement = tenant.hc_target;
    } else if (config_.policy == ArbitrationPolicy::kPriorityWeighted) {
      s.share_weight = tenant.config.weight;
    } else if (config_.policy == ArbitrationPolicy::kDemandProportional) {
      s.share_weight = std::max(d.u, 0.0) / 100.0 * d.current + 1e-6;
    } else {
      s.share_weight = 1.0;
    }
    if (s.share_weight > 0.0) {
      weight_sum += s.share_weight;
    } else {
      remaining -= s.entitlement;
    }
  }
  const double split = std::max(0.0, remaining);
  for (RoundSignals& s : signals_) {
    if (s.share_weight > 0.0) {
      s.entitlement = split * s.share_weight / std::max(weight_sum, 1e-12);
    }
  }
}

void CoreArbiter::Resolve(ArbiterRound& round) {
  const int count = num_tenants();
  // Releases and grow requests, tenant by tenant (each touches only its own
  // mask). A tenant collapsing towards its floor frees capacity in the very
  // round another tenant may claim it.
  std::vector<int> growers;
  for (int i = 0; i < count; ++i) {
    Tenant& tenant = tenants_[static_cast<size_t>(i)];
    const RoundSignals& s = signals_[static_cast<size_t>(i)];
    if (!tenant.active || Frozen(tenant)) continue;
    if (s.releases) ReleaseOne(tenant, round);
    // Degraded-telemetry decay: a tenant blind past the TTL stops holding
    // its last allocation and releases one core per round towards its
    // entitlement (a stale signal earns no more than the tenant is
    // notionally owed), never below the initial_cores floor. Held rounds
    // within the TTL change nothing.
    if (tenant.stale_rounds > config_.stale_ttl_rounds &&
        tenant.mask.Count() >
            std::max(Floor(tenant),
                     static_cast<int>(std::ceil(s.entitlement)))) {
      ReleaseOne(tenant, round);
      stats_.decayed_cores++;
    }
    // Contention decay: a probe tenant above its controller's operating
    // point walks down one core per round. Utilization-driven self-shrinks
    // cannot do this — a thrashing tenant's cores look busy (they are,
    // burning aborts), so the mechanism reads high utilization and never
    // volunteers a shrink. (hc_target is only ever set under
    // kContentionAware.)
    if (tenant.hc_target > 0 && tenant.mask.Count() > tenant.hc_target) {
      ReleaseOne(tenant, round);
    }
    // A contention-probe tenant at (or above) its operating point does not
    // grow, whatever its utilization-driven demand says: the controller has
    // measured that more cores past this point cost goodput.
    if (tenant.hc_target > 0 && tenant.mask.Count() >= tenant.hc_target) {
      continue;
    }
    if (s.decision.desired > s.decision.current) growers.push_back(i);
  }

  // Grant grows from the pool, most-entitled-deficit first.
  platform::CpuMask pool = FreePool();
  // Island-affinity bonus on the grant ordering: the locality a tenant can
  // realize from the current pool (the largest resident-page share among
  // nodes with a free core). Identically 0.0 at affinity weight 0, so the
  // legacy deficit ordering is reproduced exactly.
  auto pool_affinity = [&](const Tenant& tenant) {
    if (config_.numa_affinity_weight <= 0.0 || tenant.mem_fraction.empty()) {
      return 0.0;
    }
    const numasim::Topology& topo = platform_->topology();
    double best = 0.0;
    for (numasim::NodeId node = 0; node < topo.num_nodes(); ++node) {
      if (node >= static_cast<numasim::NodeId>(tenant.mem_fraction.size())) {
        break;
      }
      for (numasim::CoreId core : topo.CoresOfNode(node)) {
        if (pool.Has(core)) {
          best = std::max(best,
                          tenant.mem_fraction[static_cast<size_t>(node)]);
          break;
        }
      }
    }
    return config_.numa_affinity_weight * best;
  };
  std::sort(growers.begin(), growers.end(), [&](int a, int b) {
    const double da = signals_[static_cast<size_t>(a)].entitlement -
                      tenants_[static_cast<size_t>(a)].mask.Count() +
                      pool_affinity(tenants_[static_cast<size_t>(a)]);
    const double db = signals_[static_cast<size_t>(b)].entitlement -
                      tenants_[static_cast<size_t>(b)].mask.Count() +
                      pool_affinity(tenants_[static_cast<size_t>(b)]);
    if (da != db) return da > db;
    const int na = tenants_[static_cast<size_t>(a)].mask.Count();
    const int nb = tenants_[static_cast<size_t>(b)].mask.Count();
    if (na != nb) return na < nb;
    return a < b;
  });

  std::vector<int> unmet;
  for (int grower : growers) {
    Tenant& tenant = tenants_[static_cast<size_t>(grower)];
    if (pool.Empty()) {
      unmet.push_back(grower);
      continue;
    }
    const numasim::CoreId core = PickCoreFor(tenant, pool);
    ELASTIC_CHECK(core != numasim::kInvalidCore, "grant from empty pool");
    tenant.mask.Set(core);
    pool.Clear(core);
    round.handoffs++;
  }

  // Unmet grows may preempt one core from the tenant furthest above its
  // entitlement — never from an overloaded tenant and never below the
  // victim's initial_cores floor.
  //
  // The grower-independent victim filters (active, not frozen, above the
  // floor) are applied once, not per unmet grower: `candidates` holds every
  // tenant passing them, in index order so that ties break towards the
  // lowest index, and stays exact as preemptions move cores below.
  auto preemptible = [&](int v) {
    const Tenant& tenant = tenants_[static_cast<size_t>(v)];
    return tenant.active && !Frozen(tenant) &&
           tenant.mask.Count() > Floor(tenant);
  };
  std::vector<int> candidates;
  if (!unmet.empty()) {
    for (int v = 0; v < count; ++v) {
      if (preemptible(v)) candidates.push_back(v);
    }
  }
  for (int grower : unmet) {
    const double grower_ratio = signals_[static_cast<size_t>(grower)].slo_ratio;
    // Under kSloAware an SLO tenant at or past the boost threshold may take
    // a core from a best-effort tenant even when that tenant is overloaded:
    // a scan-heavy best-effort workload is overloaded by construction (it
    // can absorb any number of cores), and honouring its overload would let
    // it starve the latency SLO indefinitely. The floor below stays
    // absolute. (SLO ratios are -1 under every other policy.)
    const bool slo_violating = grower_ratio > kSloBoostRatio;
    int victim = -1;
    double worst_excess = 0.0;
    for (const int v : candidates) {
      if (v == grower) continue;
      const Tenant& candidate = tenants_[static_cast<size_t>(v)];
      const bool victim_best_effort = candidate.config.slo_p99_s < 0.0;
      // The overload shield is only honoured while the victim's signal is
      // fresh: a stale tenant's "overload" is a replay of its last good
      // window, and holding cores on its strength would let a dead probe
      // pin capacity indefinitely.
      const bool shield =
          signals_[static_cast<size_t>(v)].decision.state ==
              PerfState::kOverload &&
          candidate.stale_rounds <= config_.stale_ttl_rounds;
      // A contention-collapsing tenant's "overload" is the thrash itself:
      // its cores are saturated burning aborted work, so the utilization
      // shield would protect exactly the cores the controller wants gone.
      const bool victim_collapsing =
          candidate.hc_target > 0 &&
          candidate.mask.Count() > candidate.hc_target;
      if (shield && !(slo_violating && victim_best_effort) &&
          !victim_collapsing) {
        continue;
      }
      double excess = candidate.mask.Count() -
                      signals_[static_cast<size_t>(v)].entitlement;
      // Cross-island migration penalty: preempting a core on a node that
      // holds none of the grower's pages must clear numa_affinity_weight
      // extra excess — moving onto a remote island trades arbitration
      // fairness for remote-DRAM latency, so it has to be clearly worth it.
      // NextToRelease is a pure query here; the actual release below asks
      // the same mode again.
      if (config_.numa_affinity_weight > 0.0 &&
          !tenants_[static_cast<size_t>(grower)].mem_fraction.empty()) {
        const numasim::CoreId released =
            candidate.mechanism->mode().NextToRelease(candidate.mask);
        if (released != numasim::kInvalidCore) {
          const double affinity =
              MemAffinity(tenants_[static_cast<size_t>(grower)], released);
          excess -= config_.numa_affinity_weight * (1.0 - affinity);
        }
      }
      if (excess <= 0.0) continue;
      if (victim < 0 || excess > worst_excess) {
        victim = v;
        worst_excess = excess;
      }
    }
    // SLO-vs-SLO tie-break: when the grower is an SLO tenant in actual
    // violation (ratio > 1, not merely boosted) and no ordinary victim
    // exists (two violating SLO tenants boost each other's entitlements
    // past their holdings, so neither ever shows "excess" — the
    // starvation deadlock), the tenant suffering proportionally more may
    // take one core from the one suffering less, margin
    // kSloTieBreakMargin, floors absolute. Shedding tenants are never
    // tie-break victims: active shedding proves unmet demand regardless
    // of what their (possibly clamped) ratio reads, and raiding a
    // shedding-at-cap tenant would ping-pong the same core every round as
    // the victim drops below its cap, reads as violating, and raids
    // right back. Preferring the *least* violating victim spreads the
    // pain instead of compounding the worst.
    if (victim < 0 && grower_ratio > 1.0) {
      double best_victim_ratio = 0.0;
      for (const int v : candidates) {
        if (v == grower) continue;
        const RoundSignals& candidate = signals_[static_cast<size_t>(v)];
        if (candidate.shedding) continue;
        // Best-effort tenants (ratio -1) were the ordinary victims above;
        // an SLO tenant without a signal holds untouched.
        const double victim_ratio = candidate.slo_ratio;
        if (victim_ratio < 0.0) continue;
        if (grower_ratio <= victim_ratio * kSloTieBreakMargin) continue;
        if (victim < 0 || victim_ratio < best_victim_ratio) {
          victim = v;
          best_victim_ratio = victim_ratio;
        }
      }
    }
    if (victim < 0) {
      round.starved++;
      continue;
    }
    const numasim::CoreId core =
        ReleaseOne(tenants_[static_cast<size_t>(victim)], round);
    tenants_[static_cast<size_t>(grower)].mask.Set(core);
    round.preemptions++;
    // A victim at its floor leaves the candidates; a grower now above its
    // floor joins them (and may be preempted by a later unmet grower).
    if (!preemptible(victim)) {
      candidates.erase(
          std::lower_bound(candidates.begin(), candidates.end(), victim));
    }
    if (preemptible(grower)) {
      const auto slot =
          std::lower_bound(candidates.begin(), candidates.end(), grower);
      if (slot == candidates.end() || *slot != grower) {
        candidates.insert(slot, grower);
      }
    }
  }
}

void CoreArbiter::InstallRound(simcore::Tick now, ArbiterRound& round) {
  // Install the rebalanced cpusets and commit the grants into the tenants'
  // nets so next round's t4..t7 guards see the real counts. A rejected
  // install freezes the tenant's mask behind backoff/quarantine
  // (TryInstall) while the remaining tenants keep arbitrating normally.
  for (size_t i = 0; i < tenants_.size(); ++i) {
    Tenant& tenant = tenants_[i];
    TenantRound& tr = round.tenants[i];
    if (!tenant.active) {
      tr.detached = true;
      continue;
    }
    const ElasticMechanism::Decision& d = signals_[i].decision;
    TryInstall(static_cast<int>(i), tenant, tr);
    tenant.mechanism->CommitGrant(tenant.mask, now, d);
    tr.state = d.state;
    tr.u = d.u;
    tr.demanded = d.desired;
    tr.granted = tenant.mask.Count();
    tr.stale = tenant.stale_rounds > 0;
  }
}

void CoreArbiter::TryInstall(int index, Tenant& tenant, TenantRound& tr) {
  if (tenant.quarantined) {
    stats_.quarantined_rounds++;
    tr.quarantined = true;
    if (round_counter_ < tenant.probe_round) return;
    // Periodic probe write: one attempt per quarantine_probe_rounds. On
    // success the cpuset rejoins normal arbitration next round.
    if (platform_->SetCpusetMask(tenant.cpuset, tenant.mask)) {
      tenant.quarantined = false;
      tenant.install_failures = 0;
      return;
    }
    stats_.failed_installs++;
    tr.install_failed = true;
    tenant.probe_round = round_counter_ + config_.quarantine_probe_rounds;
    return;
  }
  if (tenant.install_failures > 0 && round_counter_ < tenant.next_retry_round) {
    return;  // mid-backoff: the mask is frozen, nothing to write yet
  }
  if (platform_->SetCpusetMask(tenant.cpuset, tenant.mask)) {
    tenant.install_failures = 0;
    return;
  }
  stats_.failed_installs++;
  tr.install_failed = true;
  tenant.install_failures++;
  if (tenant.install_failures >= config_.quarantine_after_failures) {
    tenant.quarantined = true;
    stats_.quarantine_entries++;
    tenant.probe_round = round_counter_ + config_.quarantine_probe_rounds;
    platform_->trace()->Add(platform_->Now(), TraceKind("arbiter_quarantine"),
                            index, tenant.install_failures,
                            tenant.config.name);
    return;
  }
  // Exponential backoff with seeded jitter; capped so a flapping cgroup
  // never pushes the retry horizon past kInstallMaxBackoffRounds + jitter.
  int64_t backoff =
      kInstallRetryBaseRounds << std::min(tenant.install_failures - 1, 30);
  backoff = std::min(backoff, kInstallMaxBackoffRounds);
  backoff += static_cast<int64_t>(jitter_rng_.NextBounded(
      static_cast<uint64_t>(kInstallRetryBaseRounds) + 1));
  tenant.next_retry_round = round_counter_ + backoff;
}

std::string CoreArbiter::TraceKind(const char* kind) const {
  if (config_.instance_label.empty()) return kind;
  return config_.instance_label + ":" + kind;
}

void CoreArbiter::DetachTenant(int tenant) {
  Tenant& t = tenants_[static_cast<size_t>(tenant)];
  if (!t.active) return;
  t.active = false;
  stats_.detached_tenants++;
  platform_->trace()->Add(platform_->Now(), TraceKind("arbiter_detach"),
                          tenant, t.mask.Count(), t.config.name);
  // The cores return to the free pool immediately (FreePool unions only the
  // tenants' masks); the platform cpuset is left as-is — it confines nothing.
  t.mask = platform::CpuMask();
}

bool CoreArbiter::tenant_active(int tenant) const {
  return tenants_[static_cast<size_t>(tenant)].active;
}

bool CoreArbiter::tenant_quarantined(int tenant) const {
  return tenants_[static_cast<size_t>(tenant)].quarantined;
}

void CoreArbiter::InstallFallbackMasks() {
  const platform::CpuMask all =
      platform::CpuMask::AllOf(platform_->topology());
  for (Tenant& tenant : tenants_) {
    // Best-effort by design: a quarantined cpuset may still reject the
    // write, but widening to the whole machine can never make confinement
    // worse than whatever mask is already installed.
    platform_->SetCpusetMask(tenant.cpuset, all);
  }
}

double CoreArbiter::JainIndex(const std::vector<double>& values) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double v : values) {
    sum += v;
    sum_sq += v * v;
  }
  if (values.empty() || sum_sq <= 0.0) return 1.0;
  return sum * sum / (static_cast<double>(values.size()) * sum_sq);
}

double CoreArbiter::FairnessIndex() const {
  std::vector<double> counts;
  counts.reserve(tenants_.size());
  for (const Tenant& tenant : tenants_) {
    if (!tenant.active) continue;  // a detached tenant holds 0 by definition
    counts.push_back(static_cast<double>(tenant.mask.Count()));
  }
  return JainIndex(counts);
}

}  // namespace elastic::core

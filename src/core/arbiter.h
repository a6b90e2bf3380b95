#ifndef ELASTICORE_CORE_ARBITER_H_
#define ELASTICORE_CORE_ARBITER_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/allocation_mode.h"
#include "core/mechanism.h"
#include "core/node_priority_queue.h"
#include "core/telemetry.h"
#include "platform/platform.h"
#include "simcore/rng.h"

namespace elastic::core {

/// How the arbiter resolves competing grow demands (and picks preemption
/// victims) when tenants contend for the same sockets. Every policy defines
/// a per-tenant *entitlement* — the share of the machine the tenant is
/// notionally owed — and grants/reclaims cores towards those entitlements.
enum class ArbitrationPolicy {
  /// Equal entitlement: N / num_tenants cores each, regardless of weight or
  /// measured demand.
  kFairShare,
  /// Entitlement proportional to the tenant's configured weight:
  /// N * w_i / sum(w).
  kPriorityWeighted,
  /// Entitlement proportional to measured demand (busy-core equivalents,
  /// u_i * nalloc_i, from the last monitoring window). Assumes the tenants
  /// run the kCpuLoad transition strategy.
  kDemandProportional,
  /// Tail-latency feedback: tenants with an SLO (slo_p99_s >= 0 and tail
  /// telemetry) are entitled to headroom proportional to how far
  /// their recent p99 sits above the target, and shed one core of slack
  /// when comfortably below it; best-effort tenants split whatever remains.
  /// An SLO tenant past the boost threshold (recent p99 above 3/4 of its
  /// target) may preempt a best-effort tenant even if that tenant is
  /// overloaded (the one policy that relaxes never-preempt-overloaded —
  /// see docs/POLICIES.md). SLO-vs-SLO contention breaks ties by
  /// proportional violation magnitude: a tenant in actual violation
  /// (ratio > 1) may take one core from an SLO tenant suffering
  /// proportionally less, so two violating tenants no longer starve each
  /// other forever.
  kSloAware,
  /// Contention feedback: tenants whose telemetry reports the contention
  /// signal pair (windowed abort fraction + recent goodput, e.g. from
  /// TxnEngine::RecentAbortFraction / RecentCommitRate) are driven by a
  /// per-tenant hill-climbing controller that *shrinks* the entitlement
  /// when the abort fraction is high and the last added core bought no
  /// goodput, holds at the goodput-maximizing core count with hysteresis
  /// (settle rounds between moves, a direction that cost goodput is
  /// reverted and blocked for a while), and releases the freed cores to
  /// the other tenants — the one policy where taking cores away from a
  /// busy tenant is the optimizing move, not a penalty: under skewed
  /// contention the tenant's "load" is abort churn, and added parallelism
  /// widens the set of overlapping transactions instead of committing
  /// more of them. Tenants without probes are best-effort here and split
  /// whatever the controlled tenants leave.
  kContentionAware,
};

const char* ArbitrationPolicyName(ArbitrationPolicy policy);
/// Policy by full name or short alias ("fair", "priority", "demand", "slo",
/// "contention"); false, leaving `policy` untouched, for any other name.
bool ParseArbitrationPolicy(const std::string& name, ArbitrationPolicy* policy);
/// As ParseArbitrationPolicy, but an unknown name is a fatal error.
ArbitrationPolicy ArbitrationPolicyFromName(const std::string& name);

/// One tenant registered with the arbiter.
struct ArbiterTenantConfig {
  std::string name = "tenant";
  /// Per-tenant thresholds/strategy. monitor_period_ticks is ignored (the
  /// arbiter polls every tenant from one hook at its own period);
  /// initial_cores doubles as the preemption floor; max_cores caps growth.
  MechanismConfig mechanism;
  /// Allocation mode driving *which* core the tenant releases on a shrink
  /// ("sparse", "dense" or "adaptive", as in the single-tenant mechanism).
  std::string mode = "adaptive";
  /// Share under kPriorityWeighted (ignored by the other policies).
  double weight = 1.0;

  /// Target p99 latency in simulated seconds; < 0 marks a best-effort
  /// tenant (no SLO). Consumed by kSloAware only.
  double slo_p99_s = -1.0;

  /// Unified pull-based telemetry: evaluated at most once per round (only
  /// under kSloAware / kContentionAware), returning every feedback signal
  /// the tenant can report in one TelemetrySnapshot. How the fields steer
  /// arbitration:
  ///   - p99_s (kTail): required for SLO tenants under kSloAware; the
  ///     recent-p99 / target ratio drives entitlement boost/shed/hold.
  ///   - shed_rate (kShed): reshapes the kSloAware latency signal — below
  ///     max_cores active shedding counts as a violation even when the
  ///     admitted-only p99 looks fine (shed work is invisible to completed
  ///     -latency percentiles); at max_cores it switches the tenant to
  ///     *hold* (cores cannot help, admission is the active lever).
  ///   - abort_fraction + goodput (kAbort|kGoodput): the kContentionAware
  ///     hill climber's inputs; publish both or neither.
  TelemetrySource telemetry;
  /// Static capability mask (TelemetrySnapshot bits) declaring which fields
  /// `telemetry` can ever report. Install() validates policy requirements
  /// and classifies best-effort tenants from this mask without invoking the
  /// source; a round's valid_mask is intersected with it.
  uint32_t telemetry_caps = 0;
};

struct ArbiterConfig {
  ArbitrationPolicy policy = ArbitrationPolicy::kFairShare;
  /// Monitoring period of the single arbiter hook, in simulated ticks.
  int monitor_period_ticks = 20;
  /// Keep a per-round decision log.
  bool log_rounds = true;

  /// Namespace of this arbiter instance. Empty (the default, flat mode)
  /// keeps the historical trace event names ("arbiter_quarantine",
  /// "arbiter_detach"); a shard arbiter carries e.g. "shard3" and emits
  /// "shard3:arbiter_quarantine", so chaos/quarantine accounting stays
  /// attributable to the right shard under a hierarchy.
  std::string instance_label;
  /// Register the self-driving monitoring hook at Install(). A hierarchical
  /// coordinator (ShardedArbiter) sets false and calls Poll() itself.
  bool register_tick_hook = true;

  // -- Degraded-telemetry policy (counts are arbitration rounds). A tenant
  // whose window is implausible (probe dropout, garbage counters) holds its
  // allocation for stale_ttl_rounds; past the TTL it decays one core per
  // round towards its entitlement (never below the initial_cores floor).
  // Stale tenants never initiate preemption, and a victim's overload shield
  // is honoured only while its signal is fresher than the TTL. --
  int stale_ttl_rounds = 3;

  // -- Cpuset install failure handling. A failed SetCpusetMask freezes the
  // tenant's mask (the OS still runs the old one) and retries with
  // exponential backoff plus seeded jitter; after quarantine_after_failures
  // consecutive failures the cpuset is quarantined — the arbiter stops
  // touching it except for one probe write every quarantine_probe_rounds,
  // and keeps arbitrating the remaining tenants. --
  int quarantine_after_failures = 4;
  int quarantine_probe_rounds = 16;
  /// Seed of the backoff-jitter stream. Drawn only on failures, so a
  /// fault-free run never consumes it (determinism of the healthy path).
  uint64_t fault_seed = 0x5EEDULL;

  // -- kContentionAware hill-climbing controller (see docs/POLICIES.md; the
  // abort-fraction thresholds and the goodput noise band are constants in
  // arbiter.cc). The controller evaluates once every
  // contention_settle_rounds + 1 rounds, so every evaluation sees a probe
  // window measured mostly at the current allocation. --

  /// Rounds the controller holds after each target move before judging it
  /// (the hysteresis that keeps a noisy goodput reading from thrashing the
  /// allocation).
  int contention_settle_rounds = 2;
  /// Evaluations a direction stays blocked after a move in it was reverted
  /// for costing goodput.
  int contention_backoff_evals = 8;

  // -- Island-affinity term (NUMA memory as an arbitrated resource). --

  /// Strength of the memory-affinity steer, in units of "owned cores": in
  /// the handout score a node holding the tenant's whole resident set
  /// counts like this many already-owned cores, and a preemption must
  /// clear this much extra excess to take a core on a node holding none of
  /// the grower's pages (the cross-island migration penalty). Tenants feed
  /// the signal through kMemory telemetry (remote-access fraction +
  /// per-node residency). 0 — the default — disables the term entirely:
  /// no telemetry is pulled for it and every trace reproduces the
  /// affinity-oblivious arbiter byte-identically.
  double numa_affinity_weight = 0.0;
};

/// Control-plane health counters (all monotonic). stale/held/quarantined
/// counts are tenant-rounds: one tenant degraded for one round adds one.
struct ArbiterStats {
  /// Rounds a tenant's telemetry was implausible (dropout or garbage).
  int64_t stale_rounds = 0;
  /// Stale rounds absorbed by hold-last-allocation (within the TTL).
  int64_t held_rounds = 0;
  /// Cores released by decay-to-entitlement past the TTL.
  int64_t decayed_cores = 0;
  /// SetCpusetMask attempts the platform rejected.
  int64_t failed_installs = 0;
  /// Times a cpuset crossed the consecutive-failure threshold.
  int64_t quarantine_entries = 0;
  /// Rounds a tenant spent quarantined.
  int64_t quarantined_rounds = 0;
  /// Tenants detached (dead pid / explicit DetachTenant).
  int64_t detached_tenants = 0;
};

/// Per-tenant outcome of one arbitration round.
struct TenantRound {
  PerfState state = PerfState::kStable;
  double u = 0.0;
  /// Cores the tenant's net asked for (before arbitration).
  int demanded = 0;
  /// Cores the tenant actually holds after the round.
  int granted = 0;
  /// Degraded-state flags of the round (all false on the healthy path).
  bool stale = false;
  bool install_failed = false;
  bool quarantined = false;
  /// False once the tenant was detached (dead process).
  bool detached = false;
};

/// One arbitration round across all tenants.
struct ArbiterRound {
  simcore::Tick tick = 0;
  std::vector<TenantRound> tenants;
  /// Cores that changed owner (tenant <-> free pool or tenant -> tenant).
  int handoffs = 0;
  /// Handoffs taken from a tenant that had not offered the core.
  int preemptions = 0;
  /// Grow demands left unmet this round.
  int starved = 0;
};

/// Multi-tenant elastic core arbitration (the step beyond the paper): N
/// independent ElasticMechanism instances — one per tenant DBMS — run their
/// PrT nets against a shared machine, and the arbiter resolves conflicting
/// grow/shrink demands into disjoint per-tenant cpusets.
///
/// Each monitoring round runs four phases:
///   1. collect — every tenant's net classifies its own window (Decide) and
///      demands nalloc-1, nalloc or nalloc+1 cores; stale windows are
///      counted, and the feedback policies pull each tenant's telemetry;
///   2. entitle — one split: a feedback policy's controlled tenants claim
///      their own core count (kSloAware: the SLO tenants' boost/shed/hold
///      figure; kContentionAware: the hill climber's target), and every
///      other active tenant gets the remainder in proportion to its weight
///      (1, the configured weight, or measured demand);
///   3. resolve — shrinks and decays release cores into the free pool (the
///      releasing tenant's allocation mode picks which core); grows are
///      granted from the pool in order of entitlement deficit, NUMA-aware:
///      a NodePriorityQueue keyed by the tenant's per-node core counts
///      (ties towards free capacity) keeps each tenant's cpuset clustered
///      on as few sockets as possible; unmet grows may preempt one core
///      from the tenant furthest above its entitlement, provided that
///      tenant is not itself overloaded and stays at or above its
///      initial_cores floor;
///   4. install — the resulting masks are installed as platform cpusets
///      (simulated scheduler groups or real cgroups) and committed back
///      into each tenant's net.
///
/// Tenant masks are always pairwise disjoint and never empty.
class CoreArbiter {
 public:
  CoreArbiter(platform::Platform* platform, const ArbiterConfig& config);

  CoreArbiter(const CoreArbiter&) = delete;
  CoreArbiter& operator=(const CoreArbiter&) = delete;

  /// Registers a tenant (before Install) and creates its platform cpuset.
  /// Returns the tenant index. The cpuset starts as the whole machine and
  /// is narrowed to the tenant's initial mask at Install().
  int AddTenant(const ArbiterTenantConfig& config);

  /// Restricts arbitration to a subset of the machine — a shard's domain.
  /// Every grant, entitlement and the free pool are computed against it.
  /// Call before Install(); the default is the whole machine (flat mode).
  void SetDomain(const platform::CpuMask& domain);
  const platform::CpuMask& domain() const { return domain_; }

  /// Reshapes the domain after Install() (shard-budget rebalance). Fails —
  /// changing nothing — unless every core currently owned by a tenant stays
  /// inside the new domain: owned cores move only through arbitration.
  bool TryResizeDomain(const platform::CpuMask& new_domain);

  /// Assigns the initial disjoint masks (initial_cores each, spread across
  /// sockets) and registers the single monitoring hook. Call once, after
  /// every AddTenant and before running workloads.
  void Install();

  /// One arbitration round; runs automatically every monitor_period_ticks
  /// once installed. Public for unit tests.
  void Poll(simcore::Tick now);

  int num_tenants() const { return static_cast<int>(tenants_.size()); }
  const std::string& tenant_name(int tenant) const;
  ElasticMechanism& mechanism(int tenant);
  platform::CpusetId tenant_cpuset(int tenant) const;
  const platform::CpuMask& tenant_mask(int tenant) const;
  int nalloc(int tenant) const;

  /// Cores not owned by any tenant.
  platform::CpuMask FreePool() const;

  int64_t core_handoffs() const { return handoffs_; }
  int64_t preemptions() const { return preemptions_; }
  int64_t starved_rounds() const { return starved_rounds_; }

  /// Control-plane health counters (stale/held rounds, failed installs,
  /// quarantines, detaches).
  const ArbiterStats& stats() const { return stats_; }

  /// Removes a tenant from arbitration (its process died): the tenant's
  /// cores return to the free pool next round, its mechanism is no longer
  /// polled, and its platform cpuset is left as-is (it confines nothing).
  /// Idempotent.
  void DetachTenant(int tenant);

  /// Whether the tenant is still arbitrated (not detached).
  bool tenant_active(int tenant) const;

  /// Whether the tenant's cpuset is quarantined after repeated failed
  /// installs.
  bool tenant_quarantined(int tenant) const;

  /// Last-resort shutdown path: best-effort write of the full machine mask
  /// into every tenant cpuset (quarantine and backoff are ignored), so no
  /// workload stays confined to a sliver when the arbiter stops. Terminal —
  /// do not Poll afterwards.
  void InstallFallbackMasks();

  /// Jain's fairness index over the current per-tenant core counts
  /// normalised by entitlement-free equal shares: 1.0 = perfectly even.
  double FairnessIndex() const;
  /// Jain's index (sum x)^2 / (n * sum x^2) over arbitrary non-negative
  /// values (benches use it over per-tenant throughput too).
  static double JainIndex(const std::vector<double>& values);

  const ArbiterConfig& config() const { return config_; }
  const std::vector<ArbiterRound>& log() const { return log_; }

 private:
  struct Tenant {
    ArbiterTenantConfig config;
    std::unique_ptr<ElasticMechanism> mechanism;
    platform::CpusetId cpuset = platform::kNoCpuset;
    platform::CpuMask mask;

    /// False once detached (dead process); the tenant holds no cores.
    bool active = true;
    /// Consecutive rounds of implausible telemetry; 0 = fresh signal.
    int stale_rounds = 0;
    /// Consecutive failed SetCpusetMask attempts; > 0 freezes the mask.
    int install_failures = 0;
    /// First round index a backed-off retry may run.
    int64_t next_retry_round = 0;
    bool quarantined = false;
    /// Round index of the next quarantine probe write.
    int64_t probe_round = 0;

    // -- kContentionAware hill-climb controller state (see
    // UpdateContentionControllers). --

    /// Core count the controller wants the tenant at; 0 = uninitialised
    /// (seeded from the current holding on the first round with probes).
    int hc_target = 0;
    /// Goodput and holding at the last evaluation; the delta between
    /// readings is the measured marginal goodput of the last move.
    double hc_last_goodput = -1.0;
    int hc_last_cores = 0;
    /// Rounds left before the next evaluation (settle hysteresis).
    int hc_settle = 0;
    /// Evaluations left during which shrink / grow probes stay blocked
    /// (the direction was tried and cost goodput).
    int hc_shrink_block = 0;
    int hc_grow_block = 0;

    /// Share of the tenant's resident pages per NUMA node (sums to 1 when
    /// any page is resident), cached from the last kMemory snapshot. Empty
    /// until memory telemetry reports — the affinity term then adds
    /// nothing, like weight 0.
    std::vector<double> mem_fraction;
  };

  /// A frozen tenant's mask must not change: its cpuset is quarantined or
  /// mid-backoff, so the OS still runs the previous mask and any rebalance
  /// would silently diverge from reality.
  bool Frozen(const Tenant& tenant) const {
    return tenant.quarantined || tenant.install_failures > 0;
  }
  /// Cores no arbitration action may take the tenant below.
  static int Floor(const Tenant& tenant) {
    return std::max(1, tenant.config.mechanism.initial_cores);
  }
  /// Cores the tenant may hold at most (max_cores, else the whole domain).
  int Cap(const Tenant& tenant) const {
    return tenant.config.mechanism.max_cores > 0
               ? tenant.config.mechanism.max_cores
               : domain_.Count();
  }
  /// Whether the tenant declares the kContentionAware signal pair.
  static bool HasContentionCaps(const ArbiterTenantConfig& config) {
    return (config.telemetry_caps & TelemetrySnapshot::kAbort) != 0 &&
           (config.telemetry_caps & TelemetrySnapshot::kGoodput) != 0;
  }

  /// One tenant's signals for the round in flight, written by the collect
  /// and entitle phases and read by resolve and install.
  struct RoundSignals {
    ElasticMechanism::Decision decision;
    TelemetrySnapshot telemetry;
    /// kSloAware: recent-p99 / target ratio, reshaped by shedding (see the
    /// telemetry field comment on ArbiterTenantConfig); < 0 for best-effort
    /// tenants, SLO tenants without a signal, and under every other policy.
    double slo_ratio = -1.0;
    /// kSloAware: the SLO tenant is actively shedding admissions.
    bool shedding = false;
    /// The tenant's own net shrinks it by one core this round (not frozen,
    /// and no kSloAware standby floor holds the core).
    bool releases = false;
    /// Weight in the remainder split; 0 for tenants that claim their own
    /// figure (and for detached tenants).
    double share_weight = 0.0;
    /// Cores the tenant is notionally owed this round.
    double entitlement = 0.0;
  };

  // -- The four phases of Poll(). --
  void CollectSignals(simcore::Tick now);
  void Entitle();
  void Resolve(ArbiterRound& round);
  void InstallRound(simcore::Tick now, ArbiterRound& round);

  /// Evaluates every active tenant's TelemetrySource once for this round
  /// (only under the feedback policies — kSloAware / kContentionAware — or
  /// when the island-affinity term needs the kMemory signal; the static
  /// policies at affinity weight 0 never pull telemetry). Each snapshot's
  /// valid_mask is intersected with the tenant's declared caps and
  /// sanitised (NaN/inf readings drop their valid bit — the centralised
  /// plausibility check).
  void CollectTelemetry(simcore::Tick now);

  /// Caches each tenant's per-node resident-page share from this round's
  /// kMemory snapshots (Tenant::mem_fraction). No-op at affinity weight 0.
  void UpdateMemoryResidency();

  /// Affinity bonus of granting `core` to the tenant: the share of the
  /// tenant's resident pages homed on the core's node, in [0, 1]. 0 when
  /// the term is off or the tenant has no memory signal.
  double MemAffinity(const Tenant& tenant, numasim::CoreId core) const;

  /// kSloAware ratio of an SLO tenant holding `held` cores after its own
  /// shrink (see RoundSignals::slo_ratio).
  double SloRatio(const Tenant& tenant, const TelemetrySnapshot& snap,
                  bool shedding, int held) const;

  /// One round of a probe tenant's hill-climbing controller
  /// (kContentionAware only): updates Tenant::hc_* so the entitle phase can
  /// claim the target. See the policy comment on
  /// ArbitrationPolicy::kContentionAware for the climb/hold/revert rules.
  void UpdateContentionController(Tenant& tenant,
                                  const ElasticMechanism::Decision& decision,
                                  const TelemetrySnapshot& snap, int held);

  /// Releases the core the tenant's allocation mode picks into the free
  /// pool (one handoff) and returns it.
  numasim::CoreId ReleaseOne(Tenant& tenant, ArbiterRound& round);

  /// Install helper: one SetCpusetMask attempt with failure bookkeeping
  /// (backoff scheduling, quarantine entry/exit).
  void TryInstall(int index, Tenant& tenant, TenantRound& tr);

  /// Union of every tenant's mask.
  platform::CpuMask OwnedCores() const;

  /// Trace event kind namespaced by instance_label ("shard3:kind"); the
  /// bare kind in flat mode.
  std::string TraceKind(const char* kind) const;

  /// NUMA-aware pick of a free-pool core for a tenant: prefer the node where
  /// the tenant already holds the most cores, then the node with the most
  /// free cores, then the lowest node id; lowest core id within the node.
  numasim::CoreId PickCoreFor(const Tenant& tenant,
                              const platform::CpuMask& pool) const;

  platform::Platform* platform_;
  ArbiterConfig config_;
  /// Cores this arbiter may hand out (the whole machine in flat mode).
  platform::CpuMask domain_;
  std::vector<Tenant> tenants_;
  /// Per-round signals, indexed like tenants_ and reused across rounds.
  std::vector<RoundSignals> signals_;
  bool installed_ = false;

  int64_t handoffs_ = 0;
  int64_t preemptions_ = 0;
  int64_t starved_rounds_ = 0;
  std::vector<ArbiterRound> log_;
  ArbiterStats stats_;
  /// Completed Poll() rounds; the clock of backoff/quarantine scheduling.
  int64_t round_counter_ = 0;
  /// Backoff jitter; drawn only on install failures.
  simcore::Rng jitter_rng_;
};

}  // namespace elastic::core

#endif  // ELASTICORE_CORE_ARBITER_H_

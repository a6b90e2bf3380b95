#ifndef ELASTICORE_EXEC_OLTP_CONTENTION_EXPERIMENT_H_
#define ELASTICORE_EXEC_OLTP_CONTENTION_EXPERIMENT_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/arbiter.h"
#include "mem/policy.h"
#include "oltp/txn_engine.h"
#include "ossim/machine.h"
#include "platform/sim_platform.h"

namespace elastic::exec {

/// One point of the OLTP contention sweep: a fixed batch of record-level
/// transactions (YCSB or SmallBank) driven closed-loop through a TxnEngine
/// running one CC protocol on a machine of `cores` cores. Unlike the
/// open-loop HTAP client there is no arrival schedule or admission gate:
/// every transaction is submitted up front, the worker pool bounds the
/// concurrency, and aborted transactions are resubmitted after a
/// deterministic backoff until they commit — so the run measures the
/// engine's capacity (goodput) and its conflict behaviour, nothing else.
struct OltpContentionOptions {
  oltp::cc::ProtocolKind protocol = oltp::cc::ProtocolKind::kTwoPhaseLock;
  /// kYcsb or kSmallBank (the classic mix needs the HTAP scenario).
  oltp::cc::WorkloadKind workload = oltp::cc::WorkloadKind::kYcsb;
  oltp::cc::YcsbConfig ycsb;
  oltp::cc::SmallBankConfig smallbank;
  int64_t total_txns = 2000;
  /// Machine size. <= 4 cores: one node; above: nodes of 4 cores each
  /// (`cores` must then be a multiple of 4).
  int cores = 4;
  /// Worker pool (the concurrency bound); -1 = one worker per core.
  int pool_size = -1;
  int64_t cpu_cycles_per_page = 1'500'000;
  int64_t retry_backoff_ticks = 25;
  uint64_t seed = 42;
  /// Record commit footprints for offline serializability checking.
  bool record_history = false;
  uint64_t machine_seed = 42;
};

struct OltpContentionResult {
  int64_t commits = 0;
  int64_t aborts = 0;
  int64_t lock_conflicts = 0;
  int64_t validation_failures = 0;
  /// Post-abort resubmissions driven by the experiment's retry loop.
  int64_t retries = 0;
  simcore::Tick finish_tick = 0;
  double seconds = 0.0;
  /// Committed transactions per simulated second.
  double goodput_tps = 0.0;
  /// aborts / (aborts + commits) over the whole run.
  double abort_fraction = 0.0;
};

class OltpContentionExperiment {
 public:
  explicit OltpContentionExperiment(const OltpContentionOptions& options);

  OltpContentionExperiment(const OltpContentionExperiment&) = delete;
  OltpContentionExperiment& operator=(const OltpContentionExperiment&) =
      delete;

  /// Submits the batch, steps the machine until every transaction
  /// committed (CHECK-fails after max_ticks), and returns the run's
  /// aggregate counters.
  OltpContentionResult Run(int64_t max_ticks);

  ossim::Machine& machine() { return *machine_; }
  oltp::TxnEngine& engine() { return *engine_; }

 private:
  struct Retry {
    simcore::Tick due = 0;
    oltp::TxnRequest request;
    oltp::cc::CcTxn cc;
    int attempts = 1;
  };

  void Submit(const oltp::TxnRequest& request, oltp::cc::CcTxn cc,
              int attempts);
  void PumpRetries(simcore::Tick now);

  OltpContentionOptions options_;
  std::unique_ptr<ossim::Machine> machine_;
  std::unique_ptr<oltp::TxnEngine> engine_;
  std::deque<Retry> retry_queue_;
  int64_t committed_ = 0;
  int64_t retries_ = 0;
};

/// Deterministic JSON fragment for one sweep point (shared by the bench and
/// the byte-identical-output determinism test): a single flat object, keys
/// stable, no trailing newline.
std::string OltpContentionJsonFragment(const OltpContentionOptions& options,
                                       const OltpContentionResult& result);

/// One tenant of the arbiter-managed contention scenario: a record-level
/// YCSB stream driven closed-loop (a fixed set of logical clients, each
/// keeping one transaction in flight, retrying aborts after a deterministic
/// backoff) through its own TxnEngine confined to a CoreArbiter cpuset.
struct ContentionTenantSpec {
  std::string name = "tenant";
  core::MechanismConfig mechanism;
  std::string mode = "dense";
  double weight = 1.0;
  oltp::cc::ProtocolKind protocol = oltp::cc::ProtocolKind::kPartitionLock;
  oltp::cc::YcsbConfig ycsb;
  /// Logical clients (the tenant's closed-loop concurrency ceiling). Keep it
  /// above the tenant's core cap so the mechanism always sees demand.
  int clients = 24;
  /// Window of the contention probes (abort fraction + goodput) this tenant
  /// feeds the contention_aware policy.
  int64_t probe_window_ticks = 200;
  /// Placement of the tenant's engine-owned slabs (log + CC table). The
  /// default leaves the engine byte-identical to the pre-placement builds.
  mem::Policy mem_policy = mem::Policy::kLocalFirstTouch;
  numasim::NodeId mem_island = numasim::kInvalidNode;
  /// Feed the kMemory signal (remote-access fraction + per-node residency)
  /// so the arbiter's island-affinity term can see this tenant's pages.
  bool memory_telemetry = false;
};

struct ContentionArbiterOptions {
  /// Machine size; <= 4 cores one node, above: 4-core nodes.
  int cores = 16;
  /// Override the node shape: > 0 builds `cores / cores_per_node` nodes of
  /// this many cores each (the NUMA-island bench wants 2 sockets x 8 cores,
  /// not 4 x 4). 0 keeps the legacy shape above.
  int cores_per_node = 0;
  /// Policy, monitor period and the contention-controller knobs all live in
  /// the arbiter config.
  core::ArbiterConfig arbiter;
  int64_t cpu_cycles_per_page = 1'500'000;
  int64_t retry_backoff_ticks = 25;
  uint64_t seed = 42;
  uint64_t machine_seed = 42;
};

/// Per-tenant counters of a fixed-horizon run.
struct ContentionTenantStats {
  int64_t commits = 0;
  int64_t aborts = 0;
  /// Post-abort resubmissions driven by the experiment's retry pump.
  int64_t retries = 0;
  /// Whole-run abort fraction (aborts / attempts; 0 when idle).
  double abort_fraction = 0.0;
  /// Commits per simulated second of horizon.
  double goodput_tps = 0.0;
  /// Cores held when the horizon expired.
  int cores_end = 0;
};

/// N YCSB tenants sharing one machine under a CoreArbiter — the scenario
/// the contention_aware policy exists for: a high-skew tenant whose goodput
/// *falls* with added cores next to a low-skew tenant that scales, so the
/// policy comparison (fair_share / demand_proportional / contention_aware)
/// is a pure allocation story over identical workloads. Unlike
/// OltpContentionExperiment the run is a fixed horizon, not a fixed batch:
/// policies are compared by goodput over the same simulated wall-clock.
class ContentionArbiterExperiment {
 public:
  ContentionArbiterExperiment(const ContentionArbiterOptions& options,
                              const std::vector<ContentionTenantSpec>& specs);

  ContentionArbiterExperiment(const ContentionArbiterExperiment&) = delete;
  ContentionArbiterExperiment& operator=(const ContentionArbiterExperiment&) =
      delete;

  /// Installs the arbiter and primes every tenant's logical clients.
  void Start();
  /// Steps the machine for exactly `ticks` ticks.
  void Run(int64_t ticks);

  std::vector<ContentionTenantStats> Stats() const;
  /// Sum of the tenants' goodput (the bench's headline comparison metric).
  double AggregateGoodput() const;

  ossim::Machine& machine() { return *machine_; }
  core::CoreArbiter& arbiter() { return *arbiter_; }
  oltp::TxnEngine& engine(int tenant) {
    return *tenants_[static_cast<size_t>(tenant)].engine;
  }
  int num_tenants() const { return static_cast<int>(tenants_.size()); }

 private:
  struct Pending {
    simcore::Tick due = 0;
    oltp::TxnRequest request;
    oltp::cc::CcTxn cc;
    int attempts = 0;
  };
  struct TenantRt {
    ContentionTenantSpec spec;
    int arbiter_index = -1;
    std::unique_ptr<oltp::TxnEngine> engine;
    std::unique_ptr<oltp::cc::YcsbGenerator> generator;
    /// Fresh next-transactions (closed-loop respawns) and abort retries,
    /// both drained by the tick pump.
    std::deque<Pending> queue;
    int64_t next_txn_id = 0;
    int64_t retries = 0;
  };

  void SubmitOne(int tenant, Pending pending);
  void Pump(simcore::Tick now);
  /// A fresh transaction from the tenant's generator, due immediately.
  Pending NextTxn(TenantRt& rt) const;

  ContentionArbiterOptions options_;
  std::unique_ptr<ossim::Machine> machine_;
  std::unique_ptr<platform::SimPlatform> platform_;
  std::unique_ptr<core::CoreArbiter> arbiter_;
  std::vector<TenantRt> tenants_;
  bool started_ = false;
};

}  // namespace elastic::exec

#endif  // ELASTICORE_EXEC_OLTP_CONTENTION_EXPERIMENT_H_

#ifndef ELASTICORE_CORE_MECHANISM_H_
#define ELASTICORE_CORE_MECHANISM_H_

#include <memory>
#include <string>
#include <vector>

#include "core/allocation_mode.h"
#include "perf/sampler.h"
#include "petri/net.h"
#include "platform/platform.h"
#include "simcore/clock.h"

namespace elastic::core {

/// Database performance states of the abstract model (Section III).
enum class PerfState { kIdle, kStable, kOverload };

const char* PerfStateName(PerfState state);

/// Which resource drives the state transitions (Section V-B compares both).
enum class TransitionStrategy {
  /// Average CPU load of the allocated cores, thresholds in percent
  /// (thmin = 10, thmax = 70 in the paper).
  kCpuLoad,
  /// Ratio of HyperTransport to integrated-memory-controller traffic,
  /// thresholds as raw ratios (thmin = 0.1, thmax = 0.4 in the paper).
  kHtImcRatio,
};

struct MechanismConfig {
  double thmin = 10.0;
  double thmax = 70.0;
  TransitionStrategy strategy = TransitionStrategy::kCpuLoad;
  /// Monitoring period in simulated ticks. Under a CoreArbiter the arbiter's
  /// period wins: it polls every tenant mechanism from its own single hook.
  int monitor_period_ticks = 20;
  /// Cores handed to the OS before the first monitoring round. Also the
  /// floor a CoreArbiter preemption never shrinks a tenant below.
  int initial_cores = 1;
  /// Keep a transition log (Fig. 7) and emit trace events.
  bool log_transitions = true;

  // -- Fields added for the multi-tenant core arbiter. --

  /// Ceiling on the cores this mechanism asks for; -1 means every core of
  /// the machine (the single-tenant behaviour). A CoreArbiter can cap each
  /// tenant below the machine size, which becomes the Petri net's N in the
  /// t5/t6 guards.
  int max_cores = -1;
};

/// Returns the paper's default thresholds for a strategy (10/70 for CPU
/// load, 0.1/0.4 for HT/IMC).
MechanismConfig DefaultConfigFor(TransitionStrategy strategy);

/// One fired rule-condition-action round, e.g. "t1-Overload-t5".
struct StateTransitionEvent {
  simcore::Tick tick = 0;
  std::string label;
  PerfState state = PerfState::kStable;
  /// The measured resource value (CPU-load % or HT/IMC ratio).
  double u = 0.0;
  /// Cores allocated after the round.
  int nalloc = 0;
};

/// The elastic multi-core allocation mechanism — the paper's contribution.
///
/// A PrT net with places {Checks, Provision, Stable, Idle, Overload} and
/// transitions t0..t7 classifies every monitoring window into a performance
/// state and derives the allocation action:
///
///   t0 (u <= thmin)        Checks -> Idle;     t4 (n > 1)  release one core
///                                              t7 (n == 1) keep the floor
///   t1 (u >= thmax)        Checks -> Overload; t5 (n < N)  allocate one core
///                                              t6 (n == N) saturated
///   t2 (thmin < u < thmax) Checks -> Stable;   t3          monitoring only
///
/// The *location* of each allocation/release is delegated to the configured
/// AllocationMode (sparse / dense / adaptive priority). The resulting core
/// set is installed into the OS through the platform's cpuset seam — the
/// simulated scheduler mask in tests, a real cgroup cpuset under the Linux
/// backend, which is exactly how the paper's prototype drives cgroups.
class ElasticMechanism {
 public:
  ElasticMechanism(platform::Platform* platform,
                   std::unique_ptr<AllocationMode> mode,
                   const MechanismConfig& config);

  ElasticMechanism(const ElasticMechanism&) = delete;
  ElasticMechanism& operator=(const ElasticMechanism&) = delete;

  /// Applies the initial core allocation and registers the monitoring hook
  /// on the platform. Call once before running the workload.
  void Install();

  /// Managed install, used by the multi-tenant CoreArbiter: primes the
  /// mechanism with an externally chosen initial mask, registers no tick
  /// hook and never touches the platform cpusets — the arbiter owns both.
  void InstallManaged(const platform::CpuMask& initial);

  /// One rule-condition-action round: sample counters, update the net,
  /// fire transitions, apply the allocation decision. Runs automatically
  /// every monitor_period_ticks once installed; public for unit tests.
  void Poll(simcore::Tick now);

  /// Outcome of one classification round of the PrT net, before any core
  /// has actually moved. `desired` is what the net asked for; an arbiter
  /// may grant less (or take more on a preemption).
  struct Decision {
    PerfState state = PerfState::kStable;
    double u = 0.0;
    int current = 0;
    int desired = 0;
    /// The classification and action transitions the net fired (-1 on an
    /// invalid round). CommitGrant turns them into the logged label, e.g.
    /// "t1-Overload-t5", only when transitions are logged.
    petri::TransitionId classify = -1;
    petri::TransitionId action = -1;
    /// Whether the window behind this decision was plausible telemetry. An
    /// invalid round never fires the net: state/u repeat the last good
    /// measurement, desired == current (hold), and the arbiter's
    /// degraded-telemetry policy takes over (hold within the TTL, decay to
    /// entitlement beyond it — see ArbiterConfig).
    bool valid = true;
  };

  /// Fires one monitoring round of the net *without* touching the scheduler
  /// or the allocated mask. Callers that use Decide() must follow up with
  /// CommitGrant() each round so the Provision token tracks reality.
  Decision Decide(simcore::Tick now);

  /// Records the allocation actually granted after a Decide() round: sets
  /// the mask, rewrites the net's Provision token (the net may have asked
  /// for a different count than was granted) and appends to the transition
  /// log. Does not touch the platform cpusets.
  void CommitGrant(const platform::CpuMask& mask, simcore::Tick now,
                   const Decision& decision);

  /// Number of cores currently handed to the OS.
  int nalloc() const { return allocated_.Count(); }
  const platform::CpuMask& allocated_mask() const { return allocated_; }

  /// Resource value measured in the last round.
  double last_u() const { return last_u_; }
  PerfState last_state() const { return last_state_; }

  const std::vector<StateTransitionEvent>& log() const { return log_; }
  petri::Net& net() { return net_; }
  AllocationMode& mode() { return *mode_; }
  const MechanismConfig& config() const { return config_; }

 private:
  void BuildNet();
  double Measure(const perf::WindowStats& window) const;
  /// Rule-condition-action label of a decision, e.g. "t1-Overload-t5"; a
  /// round with implausible telemetry is labelled "stale-hold" instead.
  std::string Label(const Decision& decision) const;
  /// Sanity gate on one monitoring window: zero-width windows (a probe
  /// dropout) and out-of-range measurements (garbage counters, NaN) are
  /// rejected before they reach the net or the mode's observation state.
  bool TelemetryPlausible(const perf::WindowStats& window, double u) const;

  platform::Platform* platform_;
  std::unique_ptr<AllocationMode> mode_;
  MechanismConfig config_;
  std::unique_ptr<perf::UtilizationSampler> sampler_;
  petri::Net net_;

  petri::PlaceId p_checks_ = -1;
  petri::PlaceId p_provision_ = -1;
  petri::PlaceId p_stable_ = -1;
  petri::PlaceId p_idle_u_ = -1;
  petri::PlaceId p_idle_n_ = -1;
  petri::PlaceId p_over_u_ = -1;
  petri::PlaceId p_over_n_ = -1;
  petri::TransitionId t_[8] = {-1, -1, -1, -1, -1, -1, -1, -1};

  platform::CpuMask allocated_;
  double last_u_ = 0.0;
  PerfState last_state_ = PerfState::kStable;
  std::vector<StateTransitionEvent> log_;
  bool installed_ = false;
};

}  // namespace elastic::core

#endif  // ELASTICORE_CORE_MECHANISM_H_

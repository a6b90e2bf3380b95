#ifndef ELASTICORE_PLATFORM_SYNTHETIC_PLATFORM_H_
#define ELASTICORE_PLATFORM_SYNTHETIC_PLATFORM_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "numasim/topology.h"
#include "perf/counters.h"
#include "perf/sampler.h"
#include "platform/platform.h"
#include "simcore/clock.h"
#include "simcore/trace.h"

namespace elastic::platform {

/// Machine-free Platform backend for arbitration-scale studies: a
/// standalone Topology / Clock / CounterSet with no scheduler, cores or
/// workload behind them. Where SimPlatform pays O(cores) machine simulation
/// per tick, SyntheticPlatform ticks in O(busy cores) — which is what lets
/// the arbiter_scale bench drive 1000 tenants on a 1024-core topology and
/// measure *decision* cost, not simulation cost.
///
/// Utilization is injected, not computed: SetCoreBusyFraction(core, f)
/// makes each subsequent tick credit f * cycles_per_tick busy cycles to the
/// core, so a bench scripts per-tenant demand directly. Cpusets are plain
/// stored masks (writes never fail), matching the simulator's semantics.
class SyntheticPlatform : public Platform {
 public:
  explicit SyntheticPlatform(const numasim::MachineConfig& config);

  const numasim::Topology& topology() const override { return topology_; }
  simcore::Tick Now() const override { return clock_.now(); }
  int64_t cycles_per_tick() const override { return cycles_per_tick_; }
  CpusetId CreateCpuset(const std::string& name, const CpuMask& mask) override;
  bool SetCpusetMask(CpusetId cpuset, const CpuMask& mask) override;
  CpuMask cpuset_mask(CpusetId cpuset) const override;
  void SetAllowedMask(const CpuMask& mask) override { allowed_ = mask; }
  std::unique_ptr<perf::UtilizationSampler> CreateSampler() override;
  void AddTickHook(std::function<void(simcore::Tick)> hook) override;
  simcore::Trace* trace() override { return &trace_; }

  /// Scripted demand: every subsequent tick credits `fraction` (in [0, 1])
  /// of one tick's cycle budget to `core` as busy cycles.
  void SetCoreBusyFraction(int core, double fraction);

  /// Advances the clock tick by tick, crediting the scripted busy cycles
  /// and firing the registered tick hooks (the arbiter's monitoring loop).
  void AdvanceTicks(int64_t ticks);

  /// Counter copies taken by the samplers so far: one per tick at which
  /// any of them sampled, however many tenants there are.
  int64_t snapshot_copies() const { return snapshots_->copies(); }

 private:
  numasim::Topology topology_;
  simcore::Clock clock_;
  perf::CounterSet counters_;
  /// Shared by every sampler (see perf::SnapshotSource).
  std::shared_ptr<perf::SnapshotSource> snapshots_;
  simcore::Trace trace_;
  int64_t cycles_per_tick_;

  std::vector<double> busy_fraction_;
  /// Cores with a non-zero fraction, so a tick is O(busy), not O(cores).
  std::vector<int> busy_cores_;
  std::vector<CpuMask> cpusets_;
  CpuMask allowed_;
  std::vector<std::function<void(simcore::Tick)>> hooks_;
};

}  // namespace elastic::platform

#endif  // ELASTICORE_PLATFORM_SYNTHETIC_PLATFORM_H_

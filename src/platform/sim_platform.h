#ifndef ELASTICORE_PLATFORM_SIM_PLATFORM_H_
#define ELASTICORE_PLATFORM_SIM_PLATFORM_H_

#include <functional>
#include <memory>
#include <string>

#include "ossim/machine.h"
#include "platform/platform.h"

namespace elastic::platform {

/// Platform backend over the simulated machine: cpusets are scheduler
/// cpuset groups, utilization comes from the simulated CounterSet, time is
/// the virtual clock. Pure forwarding — an arbiter driven through a
/// SimPlatform behaves byte-for-byte like one driven against the machine
/// directly, which is what keeps the figure benches' outputs stable across
/// the layering refactor. All its samplers share one snapshot source, so a
/// monitoring round copies the machine's counters once, not once per
/// tenant.
///
/// Non-owning: the machine must outlive the SimPlatform.
class SimPlatform : public Platform {
 public:
  explicit SimPlatform(ossim::Machine* machine)
      : machine_(machine),
        snapshots_(std::make_shared<perf::SnapshotSource>(
            &machine->counters(), &machine->clock())) {}

  const numasim::Topology& topology() const override {
    return machine_->topology();
  }
  simcore::Tick Now() const override { return machine_->clock().now(); }
  int64_t cycles_per_tick() const override {
    return machine_->scheduler().cycles_per_tick();
  }
  CpusetId CreateCpuset(const std::string& name, const CpuMask& mask) override {
    (void)name;
    return machine_->scheduler().CreateCpuset(mask);
  }
  bool SetCpusetMask(CpusetId cpuset, const CpuMask& mask) override {
    machine_->scheduler().SetCpusetMask(cpuset, mask);
    return true;
  }
  CpuMask cpuset_mask(CpusetId cpuset) const override {
    return machine_->scheduler().cpuset_mask(cpuset);
  }
  void SetAllowedMask(const CpuMask& mask) override {
    machine_->scheduler().SetAllowedMask(mask);
  }
  std::unique_ptr<perf::UtilizationSampler> CreateSampler() override {
    return std::make_unique<perf::Sampler>(snapshots_, &machine_->counters(),
                                           simcore::Clock::kSecondsPerTick);
  }
  void AddTickHook(std::function<void(simcore::Tick)> hook) override {
    machine_->AddTickHook(std::move(hook));
  }
  simcore::Trace* trace() override { return &machine_->trace(); }

  ossim::Machine* machine() { return machine_; }

  /// Machine counter copies taken by the samplers so far (one per tick at
  /// which any of them sampled).
  int64_t snapshot_copies() const { return snapshots_->copies(); }

 private:
  ossim::Machine* machine_;
  std::shared_ptr<perf::SnapshotSource> snapshots_;
};

}  // namespace elastic::platform

#endif  // ELASTICORE_PLATFORM_SIM_PLATFORM_H_

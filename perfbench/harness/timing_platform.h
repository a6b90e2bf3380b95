#ifndef PERFBENCH_HARNESS_TIMING_PLATFORM_H_
#define PERFBENCH_HARNESS_TIMING_PLATFORM_H_

// Platform decorator of the traced arbiter_1k run: a pure passthrough that
// records a span around every SetCpusetMask and around every Sample() of the
// samplers it hands out, as children of the Poll span the driving loop has
// open. It sits outside the fault injector, so injected failures are timed
// (and counted) like real ones.

#include <memory>
#include <string>
#include <utility>

#include "harness/spans.h"
#include "platform/platform.h"

namespace perfbench {

class TimingPlatform : public elastic::platform::Platform {
 public:
  TimingPlatform(elastic::platform::Platform* inner, SpanRecorder* spans)
      : inner_(inner), spans_(spans) {}

  /// The span new child spans hang under; -1 records nothing (set-up calls
  /// outside a Poll are not part of any round).
  void set_parent(int span) { parent_ = span; }

  int64_t set_cpuset_calls() const { return set_cpuset_calls_; }
  int64_t set_cpuset_failures() const { return set_cpuset_failures_; }

  const elastic::numasim::Topology& topology() const override {
    return inner_->topology();
  }
  elastic::simcore::Tick Now() const override { return inner_->Now(); }
  int64_t cycles_per_tick() const override { return inner_->cycles_per_tick(); }
  elastic::platform::CpusetId CreateCpuset(
      const std::string& name,
      const elastic::platform::CpuMask& mask) override {
    return inner_->CreateCpuset(name, mask);
  }
  bool SetCpusetMask(elastic::platform::CpusetId cpuset,
                     const elastic::platform::CpuMask& mask) override {
    if (parent_ < 0) return inner_->SetCpusetMask(cpuset, mask);
    const int64_t start = NowNs();
    const bool ok = inner_->SetCpusetMask(cpuset, mask);
    spans_->Add(SpanName::kSetCpuset, parent_, start, NowNs());
    set_cpuset_calls_++;
    if (!ok) set_cpuset_failures_++;
    return ok;
  }
  elastic::platform::CpuMask cpuset_mask(
      elastic::platform::CpusetId cpuset) const override {
    return inner_->cpuset_mask(cpuset);
  }
  void SetAllowedMask(const elastic::platform::CpuMask& mask) override {
    inner_->SetAllowedMask(mask);
  }
  std::unique_ptr<elastic::perf::UtilizationSampler> CreateSampler() override {
    return std::make_unique<TimingSampler>(inner_->CreateSampler(), this);
  }
  void AddTickHook(std::function<void(elastic::simcore::Tick)> hook) override {
    inner_->AddTickHook(std::move(hook));
  }
  elastic::simcore::Trace* trace() override { return inner_->trace(); }

 private:
  class TimingSampler : public elastic::perf::UtilizationSampler {
   public:
    TimingSampler(std::unique_ptr<elastic::perf::UtilizationSampler> inner,
                  TimingPlatform* owner)
        : inner_(std::move(inner)), owner_(owner) {}

    elastic::perf::WindowStats Sample() override {
      if (owner_->parent_ < 0) return inner_->Sample();
      const int64_t start = NowNs();
      elastic::perf::WindowStats stats = inner_->Sample();
      owner_->spans_->Add(SpanName::kSample, owner_->parent_, start, NowNs());
      return stats;
    }
    void Reset() override { inner_->Reset(); }

   private:
    std::unique_ptr<elastic::perf::UtilizationSampler> inner_;
    TimingPlatform* owner_;
  };

  elastic::platform::Platform* inner_;
  SpanRecorder* spans_;
  int parent_ = -1;
  int64_t set_cpuset_calls_ = 0;
  int64_t set_cpuset_failures_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TIMING_PLATFORM_H_

#include "platform/fault_injection_platform.h"

#include <algorithm>
#include <utility>

#include "simcore/check.h"

namespace elastic::platform {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCpusetWriteFail: return "cpuset_write_fail";
    case FaultKind::kSampleDropout: return "sample_dropout";
    case FaultKind::kSampleGarbage: return "sample_garbage";
    case FaultKind::kClockStall: return "clock_stall";
    case FaultKind::kTickDelay: return "tick_delay";
  }
  return "?";
}

/// Windowed sampler decorator: dropouts return a zero-width window without
/// touching the inner sampler (its baseline then spans the gap, so the next
/// good sample covers the whole blind period — exactly what a hung probe
/// does to a delta-based reader); garbage samples the inner source and then
/// scrambles the busy counters to values no real window could produce. The
/// scrambled values live in a private copy: the inner window's snapshots
/// are shared with every other sampler of the platform.
class FaultInjectionPlatform::FaultySampler : public perf::UtilizationSampler {
 public:
  FaultySampler(FaultInjectionPlatform* owner, int index,
                std::unique_ptr<perf::UtilizationSampler> inner)
      : owner_(owner), index_(index), inner_(std::move(inner)) {}

  perf::WindowStats Sample() override {
    const simcore::Tick now = owner_->Now();
    if (owner_->Fire(FaultKind::kSampleDropout, index_, now)) {
      owner_->Log(FaultKind::kSampleDropout, index_, now, "empty window");
      // ticks == 0: a window that never happened, with zero per-node values
      // and no per-core ones.
      return perf::WindowStats(nullptr, owner_->DropoutSnapshot());
    }
    perf::WindowStats stats = inner_->Sample();
    if (owner_->Fire(FaultKind::kSampleGarbage, index_, now)) {
      owner_->Log(FaultKind::kSampleGarbage, index_, now, "scrambled counters");
      // Far beyond any real per-window budget: ~2^40 busy cycles per core
      // reads as >> 100% load and a wildly implausible HT/IMC ratio.
      constexpr int64_t kAbsurd = int64_t{1} << 40;
      perf::CounterSnapshot scrambled = stats.Deltas();
      for (int64_t& busy : scrambled.core_busy_cycles) busy = kAbsurd;
      stats.ht_bytes = kAbsurd;
      for (int64_t& bytes : scrambled.imc_bytes) bytes = 1;
      stats.SetDeltas(std::move(scrambled));
    }
    return stats;
  }

  void Reset() override { inner_->Reset(); }

 private:
  FaultInjectionPlatform* owner_;
  int index_;
  std::unique_ptr<perf::UtilizationSampler> inner_;
};

FaultInjectionPlatform::FaultInjectionPlatform(Platform* inner,
                                               const FaultSchedule& schedule)
    : inner_(inner), schedule_(schedule), rng_(schedule.seed) {
  for (const FaultRule& rule : schedule_.rules) {
    ELASTIC_CHECK(rule.until >= rule.from, "fault window ends before it starts");
  }
}

simcore::Tick FaultInjectionPlatform::MappedNow(simcore::Tick now) const {
  for (const FaultRule& rule : schedule_.rules) {
    if (rule.kind != FaultKind::kClockStall) continue;
    if (now >= rule.from && now < rule.until) return rule.from;
  }
  return now;
}

simcore::Tick FaultInjectionPlatform::Now() const {
  return MappedNow(std::max(inner_->Now(), last_hook_tick_));
}

bool FaultInjectionPlatform::Fire(FaultKind kind, int target,
                                  simcore::Tick now) {
  for (const FaultRule& rule : schedule_.rules) {
    if (rule.kind != kind) continue;
    if (rule.target >= 0 && rule.target != target) continue;
    if (now < rule.from || now >= rule.until) continue;
    if (rule.probability >= 1.0) return true;
    if (rng_.NextBernoulli(rule.probability)) return true;
  }
  return false;
}

void FaultInjectionPlatform::Log(FaultKind kind, int target, simcore::Tick now,
                                 const std::string& detail) {
  injected_[static_cast<int>(kind)]++;
  if (injection_log_.size() >= kMaxLog) {
    injection_log_.erase(injection_log_.begin(),
                         injection_log_.begin() +
                             static_cast<long>(kMaxLog / 2));
  }
  injection_log_.push_back("tick " + std::to_string(now) + ": " +
                           FaultKindName(kind) + " target=" +
                           std::to_string(target) + " " + detail);
}

int64_t FaultInjectionPlatform::injected(FaultKind kind) const {
  return injected_[static_cast<int>(kind)];
}

bool FaultInjectionPlatform::SetCpusetMask(CpusetId cpuset,
                                           const CpuMask& mask) {
  const simcore::Tick now = Now();
  if (Fire(FaultKind::kCpusetWriteFail, cpuset, now)) {
    // The write never reaches the backend: the cpuset keeps its previous
    // mask, exactly like a kernel-rejected cgroup write.
    Log(FaultKind::kCpusetWriteFail, cpuset, now,
        "dropped write " + mask.ToCpuList());
    return false;
  }
  return inner_->SetCpusetMask(cpuset, mask);
}

perf::SnapshotPtr FaultInjectionPlatform::DropoutSnapshot() {
  if (dropout_snapshot_ == nullptr) {
    dropout_snapshot_ = std::make_shared<const perf::CounterSnapshot>(
        inner_->topology().num_nodes(), 0);
  }
  return dropout_snapshot_;
}

std::unique_ptr<perf::UtilizationSampler>
FaultInjectionPlatform::CreateSampler() {
  const int index = samplers_created_++;
  return std::make_unique<FaultySampler>(this, index, inner_->CreateSampler());
}

void FaultInjectionPlatform::DeliverTick(HookState* state,
                                         simcore::Tick inner_now) {
  last_hook_tick_ = std::max(last_hook_tick_, inner_now);
  const simcore::Tick mapped = MappedNow(inner_now);
  if (Fire(FaultKind::kTickDelay, state->index, inner_now)) {
    Log(FaultKind::kTickDelay, state->index, inner_now, "suppressed hook");
    state->pending = true;
    state->pending_tick = mapped;
    return;
  }
  if (state->pending) {
    // Late timer: the newest suppressed tick fires first, then the current
    // one — a delayed monitoring round runs, it is not silently skipped.
    state->pending = false;
    state->hook(state->pending_tick);
  }
  state->hook(mapped);
}

void FaultInjectionPlatform::AddTickHook(
    std::function<void(simcore::Tick)> hook) {
  hook_states_.push_back(HookState{});
  HookState* state = &hook_states_.back();
  state->hook = std::move(hook);
  state->index = static_cast<int>(hook_states_.size()) - 1;
  inner_->AddTickHook(
      [this, state](simcore::Tick now) { DeliverTick(state, now); });
}

}  // namespace elastic::platform

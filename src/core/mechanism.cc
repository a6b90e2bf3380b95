#include "core/mechanism.h"

#include <cmath>
#include <utility>

#include "simcore/check.h"

namespace elastic::core {

namespace {
/// Plausibility ceilings for one window's measurement. CPU load is a
/// percentage of the allocated cores' cycle budget — jiffy accounting can
/// overshoot 100 slightly, a wrapped counter overshoots by orders of
/// magnitude. The HT/IMC ratio sits near 1 even on NUMA-hostile runs.
constexpr double kMaxPlausibleCpuLoad = 200.0;
constexpr double kMaxPlausibleHtImcRatio = 1e3;
}  // namespace

const char* PerfStateName(PerfState state) {
  switch (state) {
    case PerfState::kIdle: return "Idle";
    case PerfState::kStable: return "Stable";
    case PerfState::kOverload: return "Overload";
  }
  return "?";
}

MechanismConfig DefaultConfigFor(TransitionStrategy strategy) {
  MechanismConfig config;
  config.strategy = strategy;
  if (strategy == TransitionStrategy::kHtImcRatio) {
    config.thmin = 0.1;
    config.thmax = 0.4;
  }
  return config;
}

ElasticMechanism::ElasticMechanism(platform::Platform* platform,
                                   std::unique_ptr<AllocationMode> mode,
                                   const MechanismConfig& config)
    : platform_(platform),
      mode_(std::move(mode)),
      config_(config),
      sampler_(platform->CreateSampler()) {
  ELASTIC_CHECK(config_.thmin < config_.thmax, "thmin must be below thmax");
  ELASTIC_CHECK(config_.monitor_period_ticks >= 1, "monitoring period >= 1");
  ELASTIC_CHECK(config_.initial_cores >= 1, "must start with at least one core");
  ELASTIC_CHECK(config_.initial_cores <= platform->topology().total_cores(),
                "initial cores exceed machine");
  const int total = platform->topology().total_cores();
  if (config_.max_cores <= 0 || config_.max_cores > total) {
    config_.max_cores = total;
  }
  ELASTIC_CHECK(config_.initial_cores <= config_.max_cores,
                "initial cores exceed max_cores");
  BuildNet();
}

void ElasticMechanism::BuildNet() {
  const double thmin = config_.thmin;
  const double thmax = config_.thmax;
  // N in the t5/t6 guards: the whole machine for a standalone mechanism, or
  // the tenant's cap under a CoreArbiter.
  const double ntotal = static_cast<double>(config_.max_cores);

  p_checks_ = net_.AddPlace("Checks");
  p_provision_ = net_.AddPlace("Provision");
  p_stable_ = net_.AddPlace("Stable");
  p_idle_u_ = net_.AddPlace("Idle.u");
  p_idle_n_ = net_.AddPlace("Idle.n");
  p_over_u_ = net_.AddPlace("Overload.u");
  p_over_n_ = net_.AddPlace("Overload.n");

  // -- Classification transitions (fire first, in t0, t1, t2 order). --
  // t0: u <= thmin, move (u, n) into the Idle sub-net.
  t_[0] = net_.AddTransition(
      "t0", [thmin](const petri::Binding& b) { return b.Get("u") <= thmin; });
  net_.AddInputArc(p_checks_, t_[0], "u");
  net_.AddInputArc(p_provision_, t_[0], "n");
  net_.AddOutputArc(t_[0], p_idle_u_, [](const petri::Binding& b) { return b.Get("u"); });
  net_.AddOutputArc(t_[0], p_idle_n_, [](const petri::Binding& b) { return b.Get("n"); });

  // t1: u >= thmax, move (u, n) into the Overload sub-net.
  t_[1] = net_.AddTransition(
      "t1", [thmax](const petri::Binding& b) { return b.Get("u") >= thmax; });
  net_.AddInputArc(p_checks_, t_[1], "u");
  net_.AddInputArc(p_provision_, t_[1], "n");
  net_.AddOutputArc(t_[1], p_over_u_, [](const petri::Binding& b) { return b.Get("u"); });
  net_.AddOutputArc(t_[1], p_over_n_, [](const petri::Binding& b) { return b.Get("n"); });

  // t2: thmin < u < thmax, the database is Stable.
  t_[2] = net_.AddTransition("t2", [thmin, thmax](const petri::Binding& b) {
    return b.Get("u") > thmin && b.Get("u") < thmax;
  });
  net_.AddInputArc(p_checks_, t_[2], "u");
  net_.AddOutputArc(t_[2], p_stable_, [](const petri::Binding& b) { return b.Get("u"); });

  // -- Action transitions (fire second). --
  // t3: Stable -> Checks, monitoring only.
  t_[3] = net_.AddTransition("t3");
  net_.AddInputArc(p_stable_, t_[3], "u");
  net_.AddOutputArc(t_[3], p_checks_, [](const petri::Binding& b) { return b.Get("u"); });

  // t4: Idle with n > 1 -> release one core.
  t_[4] = net_.AddTransition(
      "t4", [](const petri::Binding& b) { return b.Get("n") > 1.0; });
  net_.AddInputArc(p_idle_u_, t_[4], "u");
  net_.AddInputArc(p_idle_n_, t_[4], "n");
  net_.AddOutputArc(t_[4], p_provision_,
                    [](const petri::Binding& b) { return b.Get("n") - 1.0; });
  net_.AddOutputArc(t_[4], p_checks_, [](const petri::Binding& b) { return b.Get("u"); });

  // t5: Overload with n < ntotal -> allocate one core.
  t_[5] = net_.AddTransition(
      "t5", [ntotal](const petri::Binding& b) { return b.Get("n") < ntotal; });
  net_.AddInputArc(p_over_u_, t_[5], "u");
  net_.AddInputArc(p_over_n_, t_[5], "n");
  net_.AddOutputArc(t_[5], p_provision_,
                    [](const petri::Binding& b) { return b.Get("n") + 1.0; });
  net_.AddOutputArc(t_[5], p_checks_, [](const petri::Binding& b) { return b.Get("u"); });

  // t6: Overload but every core is already allocated.
  t_[6] = net_.AddTransition(
      "t6", [ntotal](const petri::Binding& b) { return b.Get("n") >= ntotal; });
  net_.AddInputArc(p_over_u_, t_[6], "u");
  net_.AddInputArc(p_over_n_, t_[6], "n");
  net_.AddOutputArc(t_[6], p_provision_,
                    [](const petri::Binding& b) { return b.Get("n"); });
  net_.AddOutputArc(t_[6], p_checks_, [](const petri::Binding& b) { return b.Get("u"); });

  // t7: Idle but already at the one-core floor.
  t_[7] = net_.AddTransition(
      "t7", [](const petri::Binding& b) { return b.Get("n") <= 1.0; });
  net_.AddInputArc(p_idle_u_, t_[7], "u");
  net_.AddInputArc(p_idle_n_, t_[7], "n");
  net_.AddOutputArc(t_[7], p_provision_,
                    [](const petri::Binding& b) { return b.Get("n"); });
  net_.AddOutputArc(t_[7], p_checks_, [](const petri::Binding& b) { return b.Get("u"); });
}

void ElasticMechanism::Install() {
  ELASTIC_CHECK(!installed_, "mechanism installed twice");
  installed_ = true;

  // Build the initial mask by asking the mode for the first allocations.
  platform::CpuMask mask;
  for (int i = 0; i < config_.initial_cores; ++i) {
    const numasim::CoreId core = mode_->NextToAllocate(mask);
    ELASTIC_CHECK(core != numasim::kInvalidCore, "mode failed initial allocation");
    mask.Set(core);
  }
  allocated_ = mask;
  platform_->SetAllowedMask(allocated_);
  net_.SetSingleToken(p_provision_, static_cast<double>(allocated_.Count()));
  sampler_->Reset();

  platform_->AddTickHook([this](simcore::Tick now) {
    if (now % config_.monitor_period_ticks == 0 && now > 0) Poll(now);
  });
}

void ElasticMechanism::InstallManaged(const platform::CpuMask& initial) {
  ELASTIC_CHECK(!installed_, "mechanism installed twice");
  ELASTIC_CHECK(!initial.Empty(), "managed install needs at least one core");
  ELASTIC_CHECK(initial.Count() <= config_.max_cores,
                "initial mask exceeds max_cores");
  installed_ = true;
  allocated_ = initial;
  net_.SetSingleToken(p_provision_, static_cast<double>(initial.Count()));
  sampler_->Reset();
}

double ElasticMechanism::Measure(const perf::WindowStats& window) const {
  switch (config_.strategy) {
    case TransitionStrategy::kCpuLoad:
      return window.CpuLoadPercent(allocated_, platform_->cycles_per_tick());
    case TransitionStrategy::kHtImcRatio:
      return window.HtImcRatio();
  }
  return 0.0;
}

bool ElasticMechanism::TelemetryPlausible(const perf::WindowStats& window,
                                          double u) const {
  if (window.ticks <= 0) return false;
  if (!std::isfinite(u) || u < 0.0) return false;
  const double bound = config_.strategy == TransitionStrategy::kCpuLoad
                           ? kMaxPlausibleCpuLoad
                           : kMaxPlausibleHtImcRatio;
  return u <= bound;
}

ElasticMechanism::Decision ElasticMechanism::Decide(simcore::Tick now) {
  (void)now;
  ELASTIC_CHECK(installed_, "Decide before Install/InstallManaged");
  const perf::WindowStats window = sampler_->Sample();
  const double u = Measure(window);
  if (!TelemetryPlausible(window, u)) {
    // Degraded round: never fire the net, never update the mode's
    // observation state or last_u_ on a signal that cannot be trusted.
    // The decision holds the current allocation; staleness policy beyond
    // one round (TTL, decay) is the arbiter's job.
    Decision decision;
    decision.state = last_state_;
    decision.u = last_u_;
    decision.current = allocated_.Count();
    decision.desired = decision.current;
    decision.valid = false;
    return decision;
  }
  last_u_ = u;
  mode_->Observe(window);

  // Refresh the Checks place with the current measurement; Provision keeps
  // its token across rounds.
  net_.SetSingleToken(p_checks_, u);

  const std::optional<petri::TransitionId> classify = net_.StepOnce();
  ELASTIC_CHECK(classify.has_value(), "classification transition must fire");
  const std::optional<petri::TransitionId> action = net_.StepOnce();
  ELASTIC_CHECK(action.has_value(), "action transition must fire");

  PerfState state = PerfState::kStable;
  if (*classify == t_[0]) state = PerfState::kIdle;
  else if (*classify == t_[1]) state = PerfState::kOverload;
  last_state_ = state;

  // New provision count decided by the net.
  ELASTIC_CHECK(!net_.Marking(p_provision_).empty(), "Provision lost its token");
  Decision decision;
  decision.state = state;
  decision.u = u;
  decision.current = allocated_.Count();
  decision.desired = static_cast<int>(net_.Marking(p_provision_).front());
  decision.classify = *classify;
  decision.action = *action;

  // The measurement token returned to Checks is stale; drop it. The next
  // round installs a fresh measurement.
  net_.ClearPlace(p_checks_);
  return decision;
}

std::string ElasticMechanism::Label(const Decision& decision) const {
  if (!decision.valid) return "stale-hold";
  return net_.TransitionName(decision.classify) + "-" +
         PerfStateName(decision.state) + "-" +
         net_.TransitionName(decision.action);
}

void ElasticMechanism::CommitGrant(const platform::CpuMask& mask,
                                   simcore::Tick now,
                                   const Decision& decision) {
  ELASTIC_CHECK(!mask.Empty(), "grant must keep at least one core");
  ELASTIC_CHECK(mask.Count() <= config_.max_cores, "grant exceeds max_cores");
  allocated_ = mask;
  net_.SetSingleToken(p_provision_, static_cast<double>(mask.Count()));

  if (config_.log_transitions) {
    StateTransitionEvent event;
    event.tick = now;
    event.label = Label(decision);
    event.state = decision.state;
    event.u = decision.u;
    event.nalloc = allocated_.Count();
    log_.push_back(event);
    platform_->trace()->Add(now, "transition", allocated_.Count(),
                          static_cast<int64_t>(decision.u * 100.0),
                          log_.back().label);
  }
}

void ElasticMechanism::Poll(simcore::Tick now) {
  const Decision decision = Decide(now);
  platform::CpuMask mask = allocated_;
  if (decision.desired > decision.current) {
    const numasim::CoreId core = mode_->NextToAllocate(mask);
    ELASTIC_CHECK(core != numasim::kInvalidCore,
                  "net allocated beyond available cores");
    mask.Set(core);
  } else if (decision.desired < decision.current) {
    const numasim::CoreId core = mode_->NextToRelease(mask);
    ELASTIC_CHECK(core != numasim::kInvalidCore, "net released the last core");
    mask.Clear(core);
  }
  platform_->SetAllowedMask(mask);
  CommitGrant(mask, now, decision);
}

}  // namespace elastic::core

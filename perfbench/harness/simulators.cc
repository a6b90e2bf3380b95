// The two simulated workloads, htap_colocation and numa_ycsb. Both repeat a
// fixed simulated span from a fresh experiment until the phase's time budget
// is spent; the benchmark calls Machine::Step itself, so every step is timed
// and, in the traced phase, split at the benchmark's own tick hook (registered
// after Start(), so it fires after every other hook) into the hook span and
// the scheduler span.

#include <algorithm>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "db/queries.h"
#include "exec/htap_experiment.h"
#include "exec/oltp_contention_experiment.h"
#include "harness/workloads.h"
#include "mem/policy.h"
#include "ossim/machine.h"
#include "tpch/dbgen.h"

namespace perfbench {
namespace {

using Model = std::vector<std::pair<std::string, double>>;

/// Steps a machine, timing each step into a Phase. With a SpanRecorder it
/// registers the benchmark's tick hook and records step/hook/scheduler spans.
class StepDriver {
 public:
  StepDriver(elastic::ossim::Machine* machine, int monitor_period,
             SpanRecorder* spans, Phase* phase)
      : machine_(machine),
        monitor_period_(monitor_period),
        spans_(spans),
        phase_(phase) {
    if (spans_ != nullptr) {
      machine_->AddTickHook(
          [this](elastic::simcore::Tick) { hook_ns_ = NowNs(); });
    }
  }

  void Step() {
    const elastic::simcore::Tick now = machine_->clock().now();
    const int64_t cpu0 = ThreadCpuNs();
    const int64_t t0 = NowNs();
    machine_->Step();
    const int64_t t1 = NowNs();
    const int64_t cpu1 = ThreadCpuNs();
    elapsed_ns_ += t1 - t0;
    phase_->step_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    phase_->step_cpu_us.push_back(static_cast<double>(cpu1 - cpu0) * 1e-3);
    phase_->sim_s += elastic::simcore::Clock::ToSeconds(1);
    if (spans_ == nullptr) return;
    const int step = spans_->Add(SpanName::kStep, -1, t0, t1);
    spans_->Add(SpanName::kHooks, step, t0, hook_ns_);
    spans_->Add(SpanName::kScheduler, step, hook_ns_, t1);
    const bool monitoring = now > 0 && now % monitor_period_ == 0;
    (monitoring ? monitor_hook_ : other_hook_).Add(hook_ns_ - t0);
  }

  int64_t elapsed_ns() const { return elapsed_ns_; }

  struct Mean {
    int64_t n = 0;
    int64_t total_ns = 0;
    void Add(int64_t ns) {
      n++;
      total_ns += ns;
    }
    double us() const { return n > 0 ? total_ns * 1e-3 / n : 0.0; }
  };
  const Mean& monitor_hook() const { return monitor_hook_; }
  const Mean& other_hook() const { return other_hook_; }

 private:
  elastic::ossim::Machine* machine_;
  int monitor_period_;
  SpanRecorder* spans_;
  Phase* phase_;
  int64_t hook_ns_ = 0;
  int64_t elapsed_ns_ = 0;
  Mean monitor_hook_;
  Mean other_hook_;
};

/// Machine counters every simulated workload reports; exact counts that must
/// not move when only speed changes.
void AddMachineCounters(const elastic::ossim::Machine& machine, Model* model) {
  const elastic::perf::CounterSet& c = machine.counters();
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t imc = 0;
  for (int n = 0; n < c.num_nodes(); ++n) {
    hits += c.l3_hits[static_cast<size_t>(n)];
    misses += c.l3_misses[static_cast<size_t>(n)];
    imc += c.imc_bytes[static_cast<size_t>(n)];
  }
  model->emplace_back("l3_hit_ratio",
                      hits + misses > 0
                          ? static_cast<double>(hits) /
                                static_cast<double>(hits + misses)
                          : 0.0);
  model->emplace_back("ht_bytes", static_cast<double>(c.ht_bytes_total));
  model->emplace_back("imc_bytes", static_cast<double>(imc));
  model->emplace_back("thread_migrations",
                      static_cast<double>(c.thread_migrations));
  model->emplace_back("stolen_tasks", static_cast<double>(c.stolen_tasks));
}

void AddArbiterCounters(const elastic::core::CoreArbiter& arbiter,
                        Model* model) {
  model->emplace_back("handoffs", static_cast<double>(arbiter.core_handoffs()));
  model->emplace_back("preemptions",
                      static_cast<double>(arbiter.preemptions()));
  model->emplace_back("stale_rounds",
                      static_cast<double>(arbiter.stats().stale_rounds));
  model->emplace_back("quarantine_entries",
                      static_cast<double>(arbiter.stats().quarantine_entries));
}

double Lookup(const Model& model, const std::string& name) {
  for (const auto& [key, value] : model) {
    if (key == name) return value;
  }
  return 0.0;
}

/// Layer numbers shared by the simulated workloads: the split of a step and
/// the machine and arbiter counters of the (identical) repetitions.
void AddSimulatorLayers(const SpanRecorder& spans, const StepDriver::Mean& mon,
                        const StepDriver::Mean& other, const Model& model,
                        Report* report) {
  const auto totals = spans.ComputeTotals();
  const auto& step = totals[static_cast<size_t>(SpanName::kStep)];
  const auto& hooks = totals[static_cast<size_t>(SpanName::kHooks)];
  const auto& sched = totals[static_cast<size_t>(SpanName::kScheduler)];
  const double n = static_cast<double>(std::max<int64_t>(1, step.count));
  report->Layer("machine.step_us", step.total_ns * 1e-3 / n);
  report->Layer("exec.hook_us", hooks.total_ns * 1e-3 / n);
  report->Layer("ossim.tick_us", sched.total_ns * 1e-3 / n);
  report->Layer("core.round_hook_us", mon.us() - other.us());
  for (const char* name : {"l3_hit_ratio", "ht_bytes", "imc_bytes"}) {
    report->Layer(std::string("numasim.") + name, Lookup(model, name));
  }
  for (const char* name : {"thread_migrations", "stolen_tasks"}) {
    report->Layer(std::string("ossim.") + name, Lookup(model, name));
  }
  for (const char* name :
       {"handoffs", "preemptions", "stale_rounds", "quarantine_entries"}) {
    report->Layer(std::string("core.") + name, Lookup(model, name));
  }
  // The hook and scheduler spans partition each Step span exactly.
  report->attempted++;
  if (hooks.total_ns + sched.total_ns != step.total_ns ||
      spans.CountEscapingChildren() != 0) {
    report->Violation("hook + scheduler spans != Step time");
  }
}

/// Runs repetitions until the phase has spent `budget_s` in Step (at least
/// one). Each repetition's modelled outcome must equal the phase's first,
/// and the first must equal `reference` when one is given.
template <typename RunRep>
Model RunPhase(double budget_s, SpanRecorder* spans, Phase* phase,
               const Model* reference, const char* label, const RunRep& run_rep,
               Report* report) {
  const int64_t budget_ns = static_cast<int64_t>(budget_s * 1e9);
  int64_t spent_ns = 0;
  Model first;
  while (phase->reps == 0 ||
         (spent_ns < budget_ns && (spans == nullptr || !spans->full()))) {
    int64_t rep_ns = 0;
    const Model model = run_rep(spans, phase, &rep_ns);
    spent_ns += rep_ns;
    phase->reps++;
    if (report->peak_rss_kb == 0) report->peak_rss_kb = PeakRssKb();
    if (phase->reps == 1) {
      first = model;
      if (reference != nullptr) report->CheckSameModel(*reference, model, label);
    } else {
      report->CheckSameModel(first, model, label);
    }
  }
  return first;
}

/// The phases shared by the simulated workloads. `set_up()` does one complete
/// set-up and returns a started experiment (timed, see TimedSetUps);
/// `make()` returns a fresh started experiment from the inputs the
/// set-ups left (untimed); `run_rep(experiment, driver)` runs one repetition.
/// Returns the untraced modelled outcome; with options.trace, also runs the
/// traced phase into `spans` and adds the step-split layers.
template <typename Experiment, typename SetUp, typename Make, typename RunRep>
Model RunSimulated(const RunOptions& options, int monitor_period,
                   const SetUp& set_up, const Make& make, const RunRep& run_rep,
                   SpanRecorder* spans, Report* report) {
  std::unique_ptr<Experiment> ready = TimedSetUps(set_up, &report->setup_s);

  StepDriver::Mean monitor_hook;
  StepDriver::Mean other_hook;
  const auto rep = [&](SpanRecorder* recorder, Phase* phase, int64_t* ns) {
    std::unique_ptr<Experiment> experiment =
        ready != nullptr ? std::move(ready) : make();
    StepDriver driver(&experiment->machine(), monitor_period, recorder, phase);
    Model model = run_rep(experiment.get(), &driver);
    *ns = driver.elapsed_ns();
    monitor_hook.n += driver.monitor_hook().n;
    monitor_hook.total_ns += driver.monitor_hook().total_ns;
    other_hook.n += driver.other_hook().n;
    other_hook.total_ns += driver.other_hook().total_ns;
    return model;
  };
  const Model first =
      RunPhase(options.trace ? options.seconds / 2 : options.seconds, nullptr,
               &report->untraced, nullptr, "untraced repetition", rep, report);
  if (!options.trace) {
    TimedSetUps(set_up, &report->setup_s);
    return first;
  }
  RunPhase(options.seconds / 2, spans, &report->traced, &first,
           "traced vs untraced run", rep, report);
  AddSimulatorLayers(*spans, monitor_hook, other_hook, first, report);
  return first;
}

// ---------------------------------------------------------------------------
// htap_colocation

constexpr double kHtapScaleFactor = 0.15;
constexpr double kSloP99Seconds = 0.060;
constexpr int kHtapMonitorPeriod = 10;
constexpr int kOlapClients = 24;
constexpr int kQueriesPerClient = 18;
constexpr int64_t kOltpTxns = 3000;
constexpr int64_t kHtapMaxTicks = 5'000'000;
constexpr int64_t kRampTicks = 600;

struct HtapInputs {
  std::unique_ptr<elastic::db::Database> db;
  std::vector<elastic::db::PlanTrace> traces;  // Q1, Q6, Q14
  double dbgen_s = 0.0;
  double plan_trace_s = 0.0;
};

std::unique_ptr<HtapInputs> GenerateHtapInputs(uint64_t seed) {
  auto inputs = std::make_unique<HtapInputs>();
  const int64_t t0 = NowNs();
  elastic::tpch::DbgenOptions options;
  options.scale_factor = kHtapScaleFactor;
  options.seed = seed;
  inputs->db = std::make_unique<elastic::db::Database>(
      elastic::tpch::Generate(options));
  const int64_t t1 = NowNs();
  for (const int q : {1, 6, 14}) {
    inputs->traces.push_back(elastic::db::RunTpchQuery(*inputs->db, q).trace);
  }
  const int64_t t2 = NowNs();
  inputs->dbgen_s = static_cast<double>(t1 - t0) * 1e-9;
  inputs->plan_trace_s = static_cast<double>(t2 - t1) * 1e-9;
  return inputs;
}

/// htap_slo's slo_aware_adaptive configuration.
std::unique_ptr<elastic::exec::HtapExperiment> MakeHtapExperiment(
    const HtapInputs& inputs, uint64_t seed) {
  elastic::exec::HtapOptions options;
  options.seed = seed;
  options.placement = elastic::exec::BasePlacement::kTableAffine;
  options.monitor_period_ticks = kHtapMonitorPeriod;
  options.policy = elastic::core::ArbitrationPolicy::kSloAware;

  elastic::exec::HtapOltpTenant oltp;
  oltp.name = "oltp";
  oltp.mechanism.initial_cores = 4;
  oltp.mechanism.max_cores = 8;
  oltp.slo_p99_s = kSloP99Seconds;
  oltp.probe_window_ticks = 400;
  oltp.engine.num_partitions = 64;
  oltp.engine.pool_size = 8;
  oltp.engine.cpu_cycles_per_page = 1'500'000;
  oltp.engine.neworder_stock_rows = 8192;
  oltp.workload.total_txns = kOltpTxns;
  oltp.workload.arrival_interval_ticks = 3;
  oltp.workload.new_order_fraction = 0.5;
  oltp.workload.burst_period_ticks = 2500;
  oltp.workload.burst_length_ticks = 800;
  oltp.workload.burst_interval_ticks = 1;
  oltp.admission.policy = elastic::oltp::AdmissionPolicyFromName("adaptive");
  oltp.admission.max_in_flight = 32;
  oltp.admission.initial_window = 24;

  elastic::exec::HtapOlapTenant olap;
  olap.name = "olap";
  olap.mechanism.initial_cores = 4;
  olap.workload.mode = elastic::exec::WorkloadMode::kRandomMix;
  for (const elastic::db::PlanTrace& trace : inputs.traces) {
    olap.workload.traces.push_back(&trace);
  }
  olap.workload.queries_per_client = kQueriesPerClient;
  olap.workload.ramp_ticks = kRampTicks;
  olap.num_clients = kOlapClients;

  auto experiment = std::make_unique<elastic::exec::HtapExperiment>(
      inputs.db.get(), options, oltp, olap);
  experiment->Start();
  return experiment;
}

/// Steps until both tenants finish, doing RunUntilDone's finish-tick
/// bookkeeping from public accessors; checks and returns the outcome.
Model RunHtapRep(elastic::exec::HtapExperiment* experiment,
                 StepDriver* driver, Report* report) {
  elastic::oltp::OltpClient& client = experiment->oltp_client();
  elastic::exec::ClientDriver& olap = experiment->olap_driver();
  elastic::ossim::Machine& machine = experiment->machine();
  elastic::simcore::Tick oltp_finished = -1;
  elastic::simcore::Tick olap_finished = -1;
  for (int64_t ticks = 0; ticks <= kHtapMaxTicks; ++ticks) {
    const bool oltp_done = client.AllDone();
    const bool olap_done = olap.AllDone();
    if (oltp_done && oltp_finished < 0) oltp_finished = machine.clock().now();
    if (olap_done && olap_finished < 0) olap_finished = machine.clock().now();
    if (oltp_done && olap_done) break;
    driver->Step();
  }

  report->attempted += kOltpTxns + kOlapClients * kQueriesPerClient;
  if (oltp_finished < 0 || olap_finished < 0) {
    report->Violation("HTAP tenants did not finish within the tick limit");
    return {};
  }
  const int64_t lost = kOltpTxns - (client.completed() + client.failed());
  if (lost != 0) {
    report->Violation("OLTP completed + failed != total_txns", std::abs(lost));
  }
  const int64_t olap_missing =
      int64_t{kOlapClients} * kQueriesPerClient - olap.completed();
  if (olap_missing != 0) {
    report->Violation("OLAP completed != clients x queries",
                      std::abs(olap_missing));
  }

  const elastic::oltp::LatencyRecorder& latencies = client.latencies();
  const double oltp_s = elastic::simcore::Clock::ToSeconds(oltp_finished);
  const double olap_s = elastic::simcore::Clock::ToSeconds(olap_finished);
  Model model = {
      {"oltp_p99_ms", latencies.PercentileSeconds(0.99) * 1e3},
      {"oltp_goodput_tps",
       static_cast<double>(latencies.CountWithinSeconds(kSloP99Seconds)) /
           oltp_s},
      {"olap_qps", static_cast<double>(olap.completed()) / olap_s},
      {"failed_ratio",
       static_cast<double>(client.failed()) / static_cast<double>(kOltpTxns)},
      {"oltp_completed", static_cast<double>(client.completed())},
      {"oltp_failed", static_cast<double>(client.failed())},
      {"latch_waits",
       static_cast<double>(experiment->oltp_engine().latch_waits())},
      {"shed_events", static_cast<double>(client.shed_events())},
      {"retries", static_cast<double>(client.retries())},
      {"ticks", static_cast<double>(machine.clock().now())},
  };
  AddMachineCounters(machine, &model);
  AddArbiterCounters(*experiment->arbiter(), &model);
  return model;
}

// ---------------------------------------------------------------------------
// numa_ycsb

constexpr int kNumaCores = 16;
constexpr int kNumaCoresPerNode = 8;
constexpr int kNumaMonitorPeriod = 100;
constexpr int kNumaRepRounds = 10;
constexpr int64_t kRecordsPerTenant = 262144;
constexpr int kClientsPerTenant = 256;

/// numa_islands' island_bound cell with numa_affinity_weight 4.
std::unique_ptr<elastic::exec::ContentionArbiterExperiment> MakeNumaExperiment(
    uint64_t seed) {
  elastic::exec::ContentionArbiterOptions options;
  options.cores = kNumaCores;
  options.cores_per_node = kNumaCoresPerNode;
  options.arbiter.policy = elastic::core::ArbitrationPolicy::kFairShare;
  options.arbiter.monitor_period_ticks = kNumaMonitorPeriod;
  options.arbiter.numa_affinity_weight = 4.0;
  options.cpu_cycles_per_page = 10'000;
  options.retry_backoff_ticks = 5;
  options.seed = seed;
  options.machine_seed = seed;

  elastic::exec::ContentionTenantSpec alpha;
  alpha.name = "alpha";
  alpha.protocol = elastic::oltp::cc::ProtocolKind::kTwoPhaseLock;
  alpha.ycsb.num_records = kRecordsPerTenant;
  alpha.ycsb.ops_per_txn = 8;
  alpha.ycsb.read_fraction = 0.5;
  alpha.ycsb.theta = 0.0;
  alpha.mechanism.initial_cores = 2;
  alpha.mechanism.max_cores = kNumaCoresPerNode;
  alpha.clients = kClientsPerTenant;
  alpha.probe_window_ticks = 2 * kNumaMonitorPeriod;
  alpha.mem_policy = elastic::mem::Policy::kIslandBound;
  alpha.mem_island = 1;
  alpha.memory_telemetry = true;
  elastic::exec::ContentionTenantSpec beta = alpha;
  beta.name = "beta";
  beta.mem_island = 0;

  auto experiment = std::make_unique<elastic::exec::ContentionArbiterExperiment>(
      options, std::vector<elastic::exec::ContentionTenantSpec>{alpha, beta});
  experiment->Start();
  // Build each tenant's record table now (the engine otherwise does it on
  // its first transaction), so that set-up holds the table construction.
  for (int t = 0; t < experiment->num_tenants(); ++t) {
    experiment->engine(t).cc_table();
  }
  return experiment;
}

const char* const kNumaTenants[] = {"alpha", "beta"};

Model RunNumaRep(elastic::exec::ContentionArbiterExperiment* experiment,
                 StepDriver* driver, Report* report) {
  for (int64_t t = 0; t < int64_t{kNumaRepRounds} * kNumaMonitorPeriod; ++t) {
    driver->Step();
  }
  const std::vector<elastic::exec::ContentionTenantStats> stats =
      experiment->Stats();
  Model model;
  int64_t commits = 0;
  int64_t aborts = 0;
  double remote = 0.0;
  for (int t = 0; t < experiment->num_tenants(); ++t) {
    const elastic::exec::ContentionTenantStats& s =
        stats[static_cast<size_t>(t)];
    elastic::oltp::TxnEngine& engine = experiment->engine(t);
    const std::string name = kNumaTenants[t];
    // Closed loop: each of a tenant's clients holds exactly one transaction,
    // in flight or waiting to (re)start. Every abort is retried, so aborts
    // not yet retried are at most one per client; anything else was lost.
    const int64_t waiting_retries = s.aborts - s.retries;
    const int64_t lost =
        std::max<int64_t>(0, -waiting_retries) +
        std::max<int64_t>(0, waiting_retries - kClientsPerTenant) +
        std::max<int64_t>(0, engine.active_txns() - kClientsPerTenant);
    report->attempted += s.commits + s.aborts;
    if (lost > 0) {
      report->Violation(name + ": transactions lost (aborts " +
                            std::to_string(s.aborts) + ", retries " +
                            std::to_string(s.retries) + ", in flight " +
                            std::to_string(engine.active_txns()) + ")",
                        lost);
    }
    report->attempted++;
    if (s.commits <= 0) report->Violation(name + ": no commits");
    commits += s.commits;
    aborts += s.aborts;
    remote += engine.RemotePageFraction();
    model.emplace_back("commits." + name, static_cast<double>(s.commits));
    model.emplace_back("aborts." + name, static_cast<double>(s.aborts));
    model.emplace_back("lock_conflicts." + name,
                       static_cast<double>(engine.cc_lock_conflicts()));
    model.emplace_back("cores_end." + name, static_cast<double>(s.cores_end));
    model.emplace_back("remote_fraction." + name, engine.RemotePageFraction());
    const std::vector<int64_t> pages = engine.ResidentPagesPerNode();
    for (size_t n = 0; n < pages.size(); ++n) {
      model.emplace_back("resident_pages." + name + ".node" + std::to_string(n),
                         static_cast<double>(pages[n]));
    }
  }
  const double attempts = static_cast<double>(commits + aborts);
  model.emplace_back("goodput_tps", experiment->AggregateGoodput());
  model.emplace_back("abort_ratio",
                     attempts > 0 ? static_cast<double>(aborts) / attempts : 0);
  model.emplace_back("remote_fraction", remote / experiment->num_tenants());
  model.emplace_back("commits", static_cast<double>(commits));
  model.emplace_back("lock_conflicts",
                     Lookup(model, "lock_conflicts.alpha") +
                         Lookup(model, "lock_conflicts.beta"));
  model.emplace_back("commit_ratio",
                     attempts > 0 ? static_cast<double>(commits) / attempts : 0);
  AddMachineCounters(experiment->machine(), &model);
  AddArbiterCounters(experiment->arbiter(), &model);
  return model;
}

/// Keeps only the end-to-end modelled outcomes in the report.
Model Headline(const Model& model, std::initializer_list<const char*> names) {
  Model headline;
  for (const char* name : names) headline.emplace_back(name, Lookup(model, name));
  return headline;
}

}  // namespace

void RunHtapColocation(const RunOptions& options, Report* report) {
  std::unique_ptr<HtapInputs> inputs;
  std::vector<double> dbgen_s;
  std::vector<double> plan_s;
  const auto set_up = [&] {
    inputs.reset();
    inputs = GenerateHtapInputs(options.seed);
    dbgen_s.push_back(inputs->dbgen_s);
    plan_s.push_back(inputs->plan_trace_s);
    return MakeHtapExperiment(*inputs, options.seed);
  };
  const auto make = [&] { return MakeHtapExperiment(*inputs, options.seed); };
  const auto run_rep = [&](elastic::exec::HtapExperiment* experiment,
                           StepDriver* driver) {
    return RunHtapRep(experiment, driver, report);
  };
  SpanRecorder spans(options.trace ? kSpanCapacity : 0);
  const Model model = RunSimulated<elastic::exec::HtapExperiment>(
      options, kHtapMonitorPeriod, set_up, make, run_rep, &spans, report);
  report->modelled = Headline(model, {"oltp_p99_ms", "oltp_goodput_tps",
                                      "olap_qps", "failed_ratio"});
  if (!options.trace) return;
  report->Layer("tpch.dbgen_s", Median(dbgen_s));
  report->Layer("db.plan_trace_s", Median(plan_s));
  for (const char* name : {"latch_waits", "shed_events", "retries"}) {
    report->Layer(std::string("oltp.") + name, Lookup(model, name));
  }
  WriteSpans(options, spans, report);
}

void RunNumaYcsb(const RunOptions& options, Report* report) {
  const auto make = [&] { return MakeNumaExperiment(options.seed); };
  const auto run_rep = [&](elastic::exec::ContentionArbiterExperiment* e,
                           StepDriver* driver) {
    return RunNumaRep(e, driver, report);
  };
  SpanRecorder spans(options.trace ? kSpanCapacity : 0);
  const Model model = RunSimulated<elastic::exec::ContentionArbiterExperiment>(
      options, kNumaMonitorPeriod, make, make, run_rep, &spans, report);
  report->modelled =
      Headline(model, {"goodput_tps", "abort_ratio", "remote_fraction"});
  if (!options.trace) return;
  report->Layer("oltp.cc_commits", Lookup(model, "commits"));
  report->Layer("oltp.cc_lock_conflicts", Lookup(model, "lock_conflicts"));
  report->Layer("oltp.commit_ratio", Lookup(model, "commit_ratio"));
  for (const char* tenant : kNumaTenants) {
    report->Layer(std::string("mem.remote_fraction.") + tenant,
                  Lookup(model, std::string("remote_fraction.") + tenant));
    for (int node = 0; node < kNumaCores / kNumaCoresPerNode; ++node) {
      const std::string suffix =
          std::string(tenant) + ".node" + std::to_string(node);
      report->Layer("mem.resident_pages." + suffix,
                    Lookup(model, "resident_pages." + suffix));
    }
  }
  WriteSpans(options, spans, report);
}

}  // namespace perfbench

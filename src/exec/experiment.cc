#include "exec/experiment.h"

#include "core/allocation_mode.h"
#include "exec/tenant_builder.h"
#include "simcore/check.h"

namespace elastic::exec {

Experiment::Experiment(const db::Database* database,
                       const ExperimentOptions& options)
    : options_(options) {
  ossim::MachineOptions machine_options;
  machine_options.config = options.machine_config;
  machine_options.scheduler = options.scheduler;
  machine_options.seed = options.seed;
  machine_ = std::make_unique<ossim::Machine>(machine_options);
  platform_ = std::make_unique<platform::SimPlatform>(machine_.get());

  catalog_ = std::make_unique<BaseCatalog>(&machine_->page_table(), *database,
                                           options.placement,
                                           options.machine_config.page_bytes);

  EngineOptions engine_options;
  engine_options.model = options.engine_model;
  engine_options.pool_size = options.pool_size;
  engine_options.task_graph = options.task_graph;
  engine_ = std::make_unique<DbmsEngine>(machine_.get(), catalog_.get(),
                                         engine_options);

  if (options.policy != "os") {
    core::MechanismConfig config = core::DefaultConfigFor(options.strategy);
    config.monitor_period_ticks = options.monitor_period_ticks;
    config.initial_cores = options.initial_cores;
    if (options.thmin_override >= 0.0) config.thmin = options.thmin_override;
    if (options.thmax_override >= 0.0) config.thmax = options.thmax_override;
    mechanism_ = std::make_unique<core::ElasticMechanism>(
        platform_.get(),
        core::MakeMode(options.policy, &machine_->topology()), config);
    mechanism_->Install();
  }
}

ClientDriver& Experiment::RunWorkload(const ClientWorkload& workload,
                                      int num_clients, int64_t max_ticks) {
  driver_ = std::make_unique<ClientDriver>(machine_.get(), engine_.get(),
                                           workload, num_clients,
                                           options_.seed ^ 0x9E37);
  driver_->Start();
  int64_t ticks = 0;
  while (!driver_->AllDone() && ticks < max_ticks) {
    machine_->Step();
    ticks++;
  }
  ELASTIC_CHECK(driver_->AllDone(), "workload did not finish within max_ticks");
  return *driver_;
}

int64_t Experiment::RunUntilQuiet(int64_t max_ticks) {
  int64_t ticks = 0;
  while (engine_->active_queries() > 0 && ticks < max_ticks) {
    machine_->Step();
    ticks++;
  }
  return ticks;
}

MultiTenantExperiment::MultiTenantExperiment(const db::Database* database,
                                             const MultiTenantOptions& options)
    : options_(options) {
  ossim::MachineOptions machine_options;
  machine_options.config = options.machine_config;
  machine_options.scheduler = options.scheduler;
  machine_options.seed = options.seed;
  machine_ = std::make_unique<ossim::Machine>(machine_options);
  platform_ = std::make_unique<platform::SimPlatform>(machine_.get());

  catalog_ = std::make_unique<BaseCatalog>(&machine_->page_table(), *database,
                                           options.placement,
                                           options.machine_config.page_bytes);

  platform::Platform* arbiter_platform = platform_.get();
  if (options.fault_schedule != nullptr) {
    fault_platform_ = std::make_unique<platform::FaultInjectionPlatform>(
        platform_.get(), *options.fault_schedule);
    arbiter_platform = fault_platform_.get();
  }

  core::ArbiterConfig arbiter_config;
  arbiter_config.policy = options.policy;
  arbiter_config.monitor_period_ticks = options.monitor_period_ticks;
  arbiter_config.log_rounds = options.log_rounds;
  arbiter_ =
      std::make_unique<core::CoreArbiter>(arbiter_platform, arbiter_config);
}

int MultiTenantExperiment::AddTenant(const TenantSpec& spec) {
  ELASTIC_CHECK(!started_, "AddTenant after Start");
  Tenant tenant;
  tenant.spec = spec;

  tenant.arbiter_index = arbiter_->AddTenant(TenantBuilder(spec.name)
                                                 .mechanism(spec.mechanism)
                                                 .mode(spec.mode)
                                                 .weight(spec.weight)
                                                 .Build());
  tenant.engine = std::make_unique<DbmsEngine>(
      machine_.get(), catalog_.get(),
      TenantBuilder::BoundEngineOptions(
          spec.engine_model, spec.pool_size, spec.task_graph,
          arbiter_->tenant_cpuset(tenant.arbiter_index)));

  tenants_.push_back(std::move(tenant));
  return num_tenants() - 1;
}

void MultiTenantExperiment::Start() {
  ELASTIC_CHECK(!started_, "multi-tenant experiment started twice");
  ELASTIC_CHECK(!tenants_.empty(), "no tenants registered");
  started_ = true;
  arbiter_->Install();
  // Per-tenant driver seeds are decorrelated so tenants do not submit in
  // lockstep even with identical workloads.
  int index = 0;
  for (Tenant& tenant : tenants_) {
    tenant.driver = std::make_unique<ClientDriver>(
        machine_.get(), tenant.engine.get(), tenant.spec.workload,
        tenant.spec.num_clients,
        options_.seed ^ (0x9E37 + 0x85EB * static_cast<uint64_t>(index)));
    tenant.driver->Start();
    index++;
  }
}

int64_t MultiTenantExperiment::RunUntilDone(int64_t max_ticks) {
  ELASTIC_CHECK(started_, "RunUntilDone before Start");
  int64_t ticks = 0;
  auto all_done = [this]() {
    for (const Tenant& tenant : tenants_) {
      if (!tenant.driver->AllDone()) return false;
    }
    return true;
  };
  while (!all_done() && ticks < max_ticks) {
    machine_->Step();
    ticks++;
  }
  ELASTIC_CHECK(all_done(), "tenant workloads did not finish within max_ticks");
  return ticks;
}

}  // namespace elastic::exec

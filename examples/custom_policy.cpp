// Extensibility demo: the paper stresses that the abstract model "can be
// easily adapted to allocate either multi-cores or remote memory in any OS
// and DBMS of the user choice". This example shows both extension points:
//
//   1. a custom AllocationMode ("least-misses": allocate on the node whose
//      L3 currently misses the least, i.e. has the most headroom), and
//   2. a custom PrT strategy configuration (tighter stability band).
//
//   $ ./examples/custom_policy

#include <cstdio>

#include "core/allocation_mode.h"
#include "core/mechanism.h"
#include "db/queries.h"
#include "exec/base_catalog.h"
#include "exec/client_driver.h"
#include "exec/dbms_engine.h"
#include "ossim/machine.h"
#include "platform/sim_platform.h"
#include "tpch/dbgen.h"

namespace {

using namespace elastic;

/// Allocates on the node with the fewest recent L3 misses (most cache
/// headroom); releases from the node with the most misses.
class LeastMissesMode : public core::AllocationMode {
 public:
  explicit LeastMissesMode(const numasim::Topology* topology)
      : topology_(topology), misses_(topology->num_nodes(), 0) {}

  const std::string& name() const override { return name_; }

  void Observe(const perf::WindowStats& window) override {
    for (size_t n = 0; n < misses_.size(); ++n) {
      misses_[n] = window.l3_misses(static_cast<int>(n));
    }
  }

  numasim::CoreId NextToAllocate(const platform::CpuMask& current) override {
    numasim::CoreId best = numasim::kInvalidCore;
    int64_t best_misses = 0;
    for (int node = 0; node < topology_->num_nodes(); ++node) {
      for (numasim::CoreId core : topology_->CoresOfNode(node)) {
        if (current.Has(core)) continue;
        if (best == numasim::kInvalidCore || misses_[node] < best_misses) {
          best = core;
          best_misses = misses_[node];
        }
        break;  // one candidate per node is enough
      }
    }
    return best;
  }

  numasim::CoreId NextToRelease(const platform::CpuMask& current) override {
    if (current.Count() <= 1) return numasim::kInvalidCore;
    numasim::CoreId victim = numasim::kInvalidCore;
    int64_t victim_misses = -1;
    for (int node = 0; node < topology_->num_nodes(); ++node) {
      for (auto it = topology_->CoresOfNode(node).rbegin();
           it != topology_->CoresOfNode(node).rend(); ++it) {
        if (!current.Has(*it)) continue;
        if (misses_[node] > victim_misses) {
          victim = *it;
          victim_misses = misses_[node];
        }
        break;
      }
    }
    return victim;
  }

 private:
  std::string name_ = "least-misses";
  const numasim::Topology* topology_;
  std::vector<int64_t> misses_;
};

}  // namespace

int main() {
  tpch::DbgenOptions dbgen;
  dbgen.scale_factor = 0.02;
  const db::Database database = tpch::Generate(dbgen);
  const db::QueryOutput q6 = db::RunTpchQuery(database, 6);

  ossim::MachineOptions machine_options;
  ossim::Machine machine(machine_options);
  exec::BaseCatalog catalog(&machine.page_table(), database,
                            exec::BasePlacement::kChunkedRoundRobin, 4096);
  exec::DbmsEngine engine(&machine, &catalog, exec::EngineOptions{});

  // Custom strategy: a narrower stability band than the paper's 10/70.
  core::MechanismConfig config;
  config.thmin = 20.0;
  config.thmax = 60.0;
  config.monitor_period_ticks = 5;
  platform::SimPlatform platform(&machine);
  core::ElasticMechanism mechanism(
      &platform, std::make_unique<LeastMissesMode>(&machine.topology()), config);
  mechanism.Install();

  exec::ClientWorkload workload;
  workload.traces = {&q6.trace};
  workload.queries_per_client = 3;
  exec::ClientDriver driver(&machine, &engine, workload, 24, 7);
  driver.Start();
  int64_t guard = 0;
  while (!driver.AllDone() && guard++ < 1'000'000) machine.Step();

  std::printf("custom mode '%s' with band [%.0f, %.0f]\n",
              mechanism.mode().name().c_str(), config.thmin, config.thmax);
  std::printf("completed %lld queries at %.1f q/s; final cores %d (%s)\n",
              static_cast<long long>(driver.completed()),
              driver.ThroughputQps(), mechanism.nalloc(),
              mechanism.allocated_mask().ToString().c_str());
  std::printf("mechanism rounds: %zu; example transitions:\n",
              mechanism.log().size());
  int shown = 0;
  for (const auto& event : mechanism.log()) {
    std::printf("  tick %5lld %-16s u=%5.1f cores=%d\n",
                static_cast<long long>(event.tick), event.label.c_str(),
                event.u, event.nalloc);
    if (++shown == 8) break;
  }
  return 0;
}

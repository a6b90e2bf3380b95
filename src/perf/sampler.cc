#include "perf/sampler.h"

#include <utility>

#include "simcore/check.h"

namespace elastic::perf {

CounterSnapshot::CounterSnapshot(int num_nodes, int num_cores)
    : l3_hits(static_cast<size_t>(num_nodes), 0),
      l3_misses(static_cast<size_t>(num_nodes), 0),
      imc_bytes(static_cast<size_t>(num_nodes), 0),
      node_access_pages(static_cast<size_t>(num_nodes), 0),
      core_busy_cycles(static_cast<size_t>(num_cores), 0) {}

WindowStats::WindowStats(SnapshotPtr baseline, SnapshotPtr current)
    : baseline_(std::move(baseline)), current_(std::move(current)) {
  ELASTIC_CHECK(current_ != nullptr, "window without an end snapshot");
  ELASTIC_CHECK(baseline_ == nullptr ||
                    (baseline_->l3_hits.size() == current_->l3_hits.size() &&
                     baseline_->core_busy_cycles.size() ==
                         current_->core_busy_cycles.size()),
                "counter vector size changed");
}

int WindowStats::Size(Field field) const {
  if (current_ == nullptr) return 0;
  return static_cast<int>(((*current_).*field).size());
}

int64_t WindowStats::Sum(Field field) const {
  int64_t sum = 0;
  for (int i = 0; i < Size(field); ++i) sum += Delta(field, i);
  return sum;
}

int WindowStats::num_cores() const {
  return Size(&CounterSnapshot::core_busy_cycles);
}

std::vector<int64_t> WindowStats::NodeAccessPages() const {
  std::vector<int64_t> pages(
      static_cast<size_t>(Size(&CounterSnapshot::node_access_pages)));
  for (size_t i = 0; i < pages.size(); ++i) {
    pages[i] = node_access_pages(static_cast<int>(i));
  }
  return pages;
}

CounterSnapshot WindowStats::Deltas() const {
  CounterSnapshot deltas;
  for (Field field :
       {&CounterSnapshot::l3_hits, &CounterSnapshot::l3_misses,
        &CounterSnapshot::imc_bytes, &CounterSnapshot::node_access_pages,
        &CounterSnapshot::core_busy_cycles}) {
    std::vector<int64_t>& out = deltas.*field;
    out.resize(static_cast<size_t>(Size(field)));
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] = Delta(field, static_cast<int>(i));
    }
  }
  return deltas;
}

void WindowStats::SetDeltas(CounterSnapshot deltas) {
  baseline_ = nullptr;
  current_ = std::make_shared<const CounterSnapshot>(std::move(deltas));
}

double WindowStats::CpuLoadPercent(const platform::CpuMask& mask,
                                   int64_t cycles_per_tick) const {
  if (ticks <= 0 || mask.Empty() || current_ == nullptr) return 0.0;
  int64_t busy = 0;
  mask.ForEach([&](int core) { busy += core_busy_cycles(core); });
  const double capacity =
      static_cast<double>(ticks) * static_cast<double>(cycles_per_tick) *
      static_cast<double>(mask.Count());
  if (capacity <= 0.0) return 0.0;
  return 100.0 * static_cast<double>(busy) / capacity;
}

double WindowStats::HtImcRatio() const {
  const int64_t imc = TotalImcBytes();
  if (imc == 0) return 0.0;
  return static_cast<double>(ht_bytes) / static_cast<double>(imc);
}

double WindowStats::HtBytesPerSecond() const {
  if (seconds <= 0.0) return 0.0;
  return static_cast<double>(ht_bytes) / seconds;
}

double WindowStats::ImcBytesPerSecond(int node) const {
  if (seconds <= 0.0) return 0.0;
  return static_cast<double>(imc_bytes(node)) / seconds;
}

int64_t WindowStats::TotalL3Misses() const {
  return Sum(&CounterSnapshot::l3_misses);
}

int64_t WindowStats::TotalImcBytes() const {
  return Sum(&CounterSnapshot::imc_bytes);
}

SnapshotSource::SnapshotSource(std::function<simcore::Tick()> now,
                               std::function<CounterSnapshot()> capture)
    : now_(std::move(now)), capture_(std::move(capture)) {}

SnapshotSource::SnapshotSource(const CounterSet* counters,
                               const simcore::Clock* clock)
    : SnapshotSource([clock] { return clock->now(); },
                     [counters] {
                       CounterSnapshot snapshot;
                       snapshot.l3_hits = counters->l3_hits;
                       snapshot.l3_misses = counters->l3_misses;
                       snapshot.imc_bytes = counters->imc_bytes;
                       snapshot.node_access_pages = counters->node_access_pages;
                       snapshot.core_busy_cycles = counters->core_busy_cycles;
                       return snapshot;
                     }) {}

SnapshotPtr SnapshotSource::Take() {
  const simcore::Tick now = now_();
  if (latest_ != nullptr && latest_->tick == now) return latest_;
  CounterSnapshot snapshot = capture_();
  snapshot.tick = now;
  latest_ = std::make_shared<const CounterSnapshot>(std::move(snapshot));
  copies_++;
  return latest_;
}

Sampler::Sampler(const CounterSet* counters, const simcore::Clock* clock)
    : Sampler(std::make_shared<SnapshotSource>(counters, clock), counters,
              simcore::Clock::kSecondsPerTick) {}

Sampler::Sampler(std::shared_ptr<SnapshotSource> source,
                 const CounterSet* scalars, double seconds_per_tick)
    : source_(std::move(source)),
      scalars_(scalars),
      seconds_per_tick_(seconds_per_tick) {
  Reset();
}

Sampler::Scalars Sampler::ReadScalars() const {
  Scalars now;
  if (scalars_ == nullptr) return now;
  now.ht_bytes = scalars_->ht_bytes_total;
  now.minor_faults = scalars_->minor_faults;
  now.stolen_tasks = scalars_->stolen_tasks;
  now.thread_migrations = scalars_->thread_migrations;
  now.tasks_spawned = scalars_->tasks_spawned;
  return now;
}

WindowStats Sampler::Sample() {
  SnapshotPtr current = source_->Take();
  const Scalars now = ReadScalars();
  WindowStats stats(baseline_, current);
  stats.ticks = current->tick - baseline_->tick;
  stats.seconds = static_cast<double>(stats.ticks) * seconds_per_tick_;
  stats.ht_bytes = now.ht_bytes - baseline_scalars_.ht_bytes;
  stats.minor_faults = now.minor_faults - baseline_scalars_.minor_faults;
  stats.stolen_tasks = now.stolen_tasks - baseline_scalars_.stolen_tasks;
  stats.thread_migrations =
      now.thread_migrations - baseline_scalars_.thread_migrations;
  stats.tasks_spawned = now.tasks_spawned - baseline_scalars_.tasks_spawned;
  baseline_ = std::move(current);
  baseline_scalars_ = now;
  return stats;
}

void Sampler::Reset() {
  baseline_ = source_->Take();
  baseline_scalars_ = ReadScalars();
}

}  // namespace elastic::perf

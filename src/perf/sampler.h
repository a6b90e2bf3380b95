#ifndef ELASTICORE_PERF_SAMPLER_H_
#define ELASTICORE_PERF_SAMPLER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "perf/counters.h"
#include "platform/cpu_mask.h"
#include "simcore/clock.h"

namespace elastic::perf {

/// Copy of a machine's per-node and per-core counter vectors at one tick.
/// Immutable once published: every sampler that reads the machine at that
/// tick shares the same copy through a SnapshotPtr.
struct CounterSnapshot {
  CounterSnapshot() = default;
  /// All-zero snapshot of the given shape.
  CounterSnapshot(int num_nodes, int num_cores);

  simcore::Tick tick = 0;
  std::vector<int64_t> l3_hits;
  std::vector<int64_t> l3_misses;
  std::vector<int64_t> imc_bytes;
  std::vector<int64_t> node_access_pages;
  std::vector<int64_t> core_busy_cycles;
};
using SnapshotPtr = std::shared_ptr<const CounterSnapshot>;

/// Counter deltas over one monitoring window.
///
/// This is what the paper's mechanism reads from mpstat / likwid on every
/// monitoring round: windowed CPU load, L3 misses, HT and IMC traffic.
/// The per-node and per-core values are a view over two shared snapshots
/// (the window's baseline and its end), computed on demand: CpuLoadPercent
/// reduces over the mask's cores only, node values cost O(nodes). The
/// scalar counters are plain fields.
struct WindowStats {
  WindowStats() = default;
  /// Window from `baseline` to `current`; a null baseline reads as zero.
  WindowStats(SnapshotPtr baseline, SnapshotPtr current);

  simcore::Tick ticks = 0;
  double seconds = 0.0;

  int64_t ht_bytes = 0;
  int64_t minor_faults = 0;
  int64_t stolen_tasks = 0;
  int64_t thread_migrations = 0;
  int64_t tasks_spawned = 0;

  /// Number of per-core values (0 for an empty window).
  int num_cores() const;

  int64_t l3_hits(int node) const { return Delta(&CounterSnapshot::l3_hits, node); }
  int64_t l3_misses(int node) const {
    return Delta(&CounterSnapshot::l3_misses, node);
  }
  int64_t imc_bytes(int node) const {
    return Delta(&CounterSnapshot::imc_bytes, node);
  }
  int64_t node_access_pages(int node) const {
    return Delta(&CounterSnapshot::node_access_pages, node);
  }
  int64_t core_busy_cycles(int core) const {
    return Delta(&CounterSnapshot::core_busy_cycles, core);
  }

  /// Per-node page accesses of the window, materialized (O(nodes)).
  std::vector<int64_t> NodeAccessPages() const;

  /// Every per-node and per-core delta, materialized (O(nodes + cores)).
  CounterSnapshot Deltas() const;

  /// Replaces the per-node and per-core values with `deltas`, owned by this
  /// window alone; ticks and the scalar fields are kept. The shared
  /// snapshots the window viewed are left untouched.
  void SetDeltas(CounterSnapshot deltas);

  /// Average CPU load (0..100) over the cores of `mask` during the window.
  /// `cycles_per_tick` is the per-core cycle budget of one tick.
  double CpuLoadPercent(const platform::CpuMask& mask, int64_t cycles_per_tick) const;

  /// Ratio of interconnect traffic to memory-controller traffic; the
  /// NUMA-friendliness metric of Section V-B (smaller is better).
  double HtImcRatio() const;

  /// Interconnect bandwidth in bytes per second of simulated time.
  double HtBytesPerSecond() const;

  /// Memory throughput of one node in bytes per second.
  double ImcBytesPerSecond(int node) const;

  int64_t TotalL3Misses() const;
  int64_t TotalImcBytes() const;

 private:
  using Field = std::vector<int64_t> CounterSnapshot::*;

  int64_t Delta(Field field, int index) const {
    const int64_t now = ((*current_).*field)[static_cast<size_t>(index)];
    if (baseline_ == nullptr) return now;
    return now - ((*baseline_).*field)[static_cast<size_t>(index)];
  }
  /// Length of one per-node / per-core vector (0 for an empty window).
  int Size(Field field) const;
  int64_t Sum(Field field) const;

  SnapshotPtr baseline_;
  SnapshotPtr current_;
};

/// Machine-wide snapshots shared by every sampler of one platform: the
/// first Take() at a tick copies the counter vectors once, every later
/// Take() at that tick returns the same immutable copy. In steady rounds at
/// most two copies are alive (the previous round's, still some samplers'
/// baseline, and the current one).
///
/// Keying by tick is exact only because a backend writes its per-node and
/// per-core vectors while a tick executes and never between two reads at
/// one tick (see the invariant on CounterSet). Scalar counters carry no
/// such guarantee, so they are not part of a snapshot.
class SnapshotSource {
 public:
  /// `now` keys the snapshots; `capture` copies the counters (called at
  /// most once per tick).
  SnapshotSource(std::function<simcore::Tick()> now,
                 std::function<CounterSnapshot()> capture);
  /// Over a CounterSet, keyed by its clock.
  SnapshotSource(const CounterSet* counters, const simcore::Clock* clock);

  /// The snapshot of the current tick, copied on first use.
  SnapshotPtr Take();

  /// Number of copies taken so far.
  int64_t copies() const { return copies_; }

 private:
  std::function<simcore::Tick()> now_;
  std::function<CounterSnapshot()> capture_;
  SnapshotPtr latest_;
  int64_t copies_ = 0;
};

/// Windowed utilization source, the measurement half of the platform seam:
/// the elastic mechanism calls Sample() once per monitoring round and never
/// cares whether the deltas came from simulated counters or /proc.
class UtilizationSampler {
 public:
  virtual ~UtilizationSampler() = default;

  /// Returns the deltas accumulated since the previous Sample() (or since
  /// construction) and re-baselines.
  virtual WindowStats Sample() = 0;

  /// Re-baselines without producing stats.
  virtual void Reset() = 0;
};

/// Windows over a SnapshotSource (the simulator- and /proc-backed
/// UtilizationSampler). Its baseline is a reference to a shared snapshot
/// plus its own copy of the scalar counters, so a sampler costs O(1) memory
/// and a Sample() costs O(1) beyond the source's once-per-tick copy.
class Sampler : public UtilizationSampler {
 public:
  /// Over a private source of `counters`, keyed by `clock`.
  Sampler(const CounterSet* counters, const simcore::Clock* clock);
  /// Over a shared source. `scalars` supplies the scalar counters, read
  /// live at every Sample() (null: they stay zero); a tick lasts
  /// `seconds_per_tick`.
  Sampler(std::shared_ptr<SnapshotSource> source, const CounterSet* scalars,
          double seconds_per_tick);

  WindowStats Sample() override;
  void Reset() override;

 private:
  struct Scalars {
    int64_t ht_bytes = 0;
    int64_t minor_faults = 0;
    int64_t stolen_tasks = 0;
    int64_t thread_migrations = 0;
    int64_t tasks_spawned = 0;
  };
  Scalars ReadScalars() const;

  std::shared_ptr<SnapshotSource> source_;
  const CounterSet* scalars_;
  double seconds_per_tick_;
  SnapshotPtr baseline_;
  Scalars baseline_scalars_;
};

}  // namespace elastic::perf

#endif  // ELASTICORE_PERF_SAMPLER_H_

#ifndef ELASTICORE_PERF_COUNTERS_H_
#define ELASTICORE_PERF_COUNTERS_H_

#include <array>
#include <cstdint>
#include <vector>

namespace elastic::perf {

/// Attribution stream for per-query accounting. Streams 0..21 are reserved
/// for TPC-H query classes Q1..Q22 by the execution layer; kNoStream means
/// unattributed (administrative) work.
inline constexpr int kMaxStreams = 32;
inline constexpr int kNoStream = kMaxStreams - 1;

/// Hardware and OS counter registry for the simulated machine.
///
/// This is the simulator's equivalent of the monitoring facilities the paper
/// builds on (mpstat for CPU load, likwid for the L3CACHE / HT / MEM groups,
/// /proc for minor faults). Subsystems update it directly; the elastic
/// mechanism and the figure harnesses read windowed deltas through
/// perf::Sampler.
///
/// Write-before-advance invariant: the per-node, per-link and per-core
/// vectors are written only while a tick executes, and never between two
/// reads at one clock value. Machine::Step runs its hooks (the readers) at
/// tick t, then Scheduler::Tick writes (through MemorySystem::Access), then
/// the clock advances; SyntheticPlatform::AdvanceTicks advances, writes,
/// then runs its hooks. This is what lets every sampler of a platform share
/// one perf::SnapshotSource copy per tick: code that writes these vectors
/// must keep the invariant (tests that poke counters advance the clock
/// before the next read). The scalar counters carry
/// no such guarantee — hooks bump tasks_spawned (AssignJob) and
/// thread_migrations (SetCpusetMask) at any point of a tick — so samplers
/// read them live.
struct CounterSet {
  CounterSet(int num_nodes, int num_links, int num_cores)
      : l3_hits(num_nodes, 0),
        l3_misses(num_nodes, 0),
        imc_bytes(num_nodes, 0),
        local_bytes(num_nodes, 0),
        remote_in_bytes(num_nodes, 0),
        node_access_pages(num_nodes, 0),
        ht_link_bytes(num_links, 0),
        core_busy_cycles(num_cores, 0) {
    stream_ht_bytes.fill(0);
    stream_imc_bytes.fill(0);
    stream_busy_cycles.fill(0);
  }

  // ---- Memory system (likwid L3CACHE / MEM / HT groups) ----
  /// L3 page hits/misses per socket.
  std::vector<int64_t> l3_hits;
  std::vector<int64_t> l3_misses;
  /// Bytes served by the integrated memory controller at each home node
  /// (local + remote requests). This is the "memory throughput" of Fig. 14b.
  std::vector<int64_t> imc_bytes;
  /// Subset of imc_bytes requested by cores of the same node.
  std::vector<int64_t> local_bytes;
  /// Bytes fetched into a node from remote DRAM (requester side).
  std::vector<int64_t> remote_in_bytes;
  /// Page accesses that landed on each home node (working-set statistic fed
  /// to the adaptive priority queue).
  std::vector<int64_t> node_access_pages;
  /// Bytes crossing each directed HT link.
  std::vector<int64_t> ht_link_bytes;
  int64_t ht_bytes_total = 0;
  int64_t l3_invalidations = 0;

  // ---- OS (/proc, schedstat) ----
  int64_t minor_faults = 0;
  int64_t first_touch_faults = 0;
  int64_t thread_migrations = 0;
  int64_t stolen_tasks = 0;
  int64_t tasks_spawned = 0;
  int64_t load_balance_rounds = 0;

  // ---- CPU (mpstat) ----
  /// Cycles each core spent executing thread work.
  std::vector<int64_t> core_busy_cycles;

  // ---- Per-stream attribution (per-query-class accounting) ----
  std::array<int64_t, kMaxStreams> stream_ht_bytes;
  std::array<int64_t, kMaxStreams> stream_imc_bytes;
  std::array<int64_t, kMaxStreams> stream_busy_cycles;

  int num_nodes() const { return static_cast<int>(l3_hits.size()); }
  int num_cores() const { return static_cast<int>(core_busy_cycles.size()); }

  int64_t total_l3_misses() const {
    int64_t sum = 0;
    for (int64_t v : l3_misses) sum += v;
    return sum;
  }
  int64_t total_l3_hits() const {
    int64_t sum = 0;
    for (int64_t v : l3_hits) sum += v;
    return sum;
  }
  int64_t total_imc_bytes() const {
    int64_t sum = 0;
    for (int64_t v : imc_bytes) sum += v;
    return sum;
  }
  int64_t total_busy_cycles() const {
    int64_t sum = 0;
    for (int64_t v : core_busy_cycles) sum += v;
    return sum;
  }
};

}  // namespace elastic::perf

#endif  // ELASTICORE_PERF_COUNTERS_H_

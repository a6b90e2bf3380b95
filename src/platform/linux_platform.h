#ifndef ELASTICORE_PLATFORM_LINUX_PLATFORM_H_
#define ELASTICORE_PLATFORM_LINUX_PLATFORM_H_

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "platform/platform.h"

namespace elastic::platform {

struct LinuxPlatformOptions {
  /// cgroup-v2 hierarchy mount point.
  std::string cgroup_root = "/sys/fs/cgroup";
  /// Sub-directory under the root holding every elasticore cpuset group.
  std::string parent = "elasticore";
  /// Log intended filesystem writes into op_log() instead of performing
  /// them. Reads are replaced by deterministic zero samples, so dry runs
  /// are reproducible and need no privileges (the CI smoke mode).
  bool dry_run = false;
  /// Topology override; both > 0 skips sysfs discovery. Dry runs should
  /// always set these so the write sequence is machine-independent.
  int num_nodes = 0;
  int cores_per_node = 0;
  /// Wall-clock length of one platform tick. On real hardware the paper's
  /// monitoring quantum is about a second, not the simulator's 1 ms; the
  /// elasticored loop sets this to its polling period.
  double seconds_per_tick = 1.0;
  /// Filesystem roots, overridable so tests never touch the real machine.
  std::string proc_root = "/proc";
  std::string sysfs_node_root = "/sys/devices/system/node";
};

/// Platform backend over a real Linux machine: cpusets are cgroup-v2
/// directories whose `cpuset.cpus` files the arbiter rewrites, utilization
/// is windowed per-cpu busy time from /proc/stat (read once per tick for
/// all tenants), and time is the monotonic clock quantised to
/// seconds_per_tick. Attach a DBMS to a tenant cpuset
/// with AttachPid() and the same CoreArbiter that drives the simulator
/// elastically resizes the real process's core set — the deployment story
/// of the paper's prototype (tools/elasticored is the driving loop).
///
/// Every intended mkdir/write is appended to op_log() (and, outside
/// dry-run, performed); the log is both the dry-run test surface and a
/// production audit trail.
class LinuxPlatform : public Platform {
 public:
  explicit LinuxPlatform(const LinuxPlatformOptions& options);

  LinuxPlatform(const LinuxPlatform&) = delete;
  LinuxPlatform& operator=(const LinuxPlatform&) = delete;

  // -- Platform interface --
  const numasim::Topology& topology() const override { return *topology_; }
  simcore::Tick Now() const override;
  int64_t cycles_per_tick() const override;
  CpusetId CreateCpuset(const std::string& name, const CpuMask& mask) override;
  bool SetCpusetMask(CpusetId cpuset, const CpuMask& mask) override;
  CpuMask cpuset_mask(CpusetId cpuset) const override;
  void SetAllowedMask(const CpuMask& mask) override;
  std::unique_ptr<perf::UtilizationSampler> CreateSampler() override;
  void AddTickHook(std::function<void(simcore::Tick)> hook) override;
  simcore::Trace* trace() override { return &trace_; }

  // -- OS-facing surface beyond the arbiter's needs --

  /// Moves a process into a tenant cpuset (writes cgroup.procs). Returns
  /// false when the write failed (and logs the failure).
  bool AttachPid(CpusetId cpuset, long pid);

  /// Fires every registered tick hook once; the external driving loop
  /// (elasticored) is the clock on real hardware.
  void FireTickHooks(simcore::Tick now);

  /// Intended (dry-run) or performed (live) filesystem operations, in
  /// order: "mkdir <dir>" and "write <file> = <value>" lines. A failed live
  /// operation additionally appends "fail <op>: <strerror> (errno <n>)" and
  /// emits a "platform_error" trace event, so the audit trail carries the
  /// failure detail an operator needs. Bounded: a long-running daemon keeps
  /// only the most recent kMaxOpLog entries.
  const std::vector<std::string>& op_log() const { return op_log_; }

  /// Audit-trail bound (see op_log()).
  static constexpr size_t kMaxOpLog = 4096;

  /// cgroup directory of a cpuset.
  const std::string& cpuset_path(CpusetId cpuset) const;

  const LinuxPlatformOptions& options() const { return options_; }

  /// /proc/stat reads taken by the samplers so far: one per tick at which
  /// any of them sampled, however many tenants there are (0 in dry runs).
  int64_t snapshot_copies() const;

 private:
  struct Cpuset {
    std::string path;
    CpuMask mask;
    /// Whether `mask` was successfully written to cpuset.cpus. A failed
    /// live write leaves this false so the next SetCpusetMask retries
    /// instead of being suppressed as redundant.
    bool synced = false;
  };

  /// First-use setup: create the parent group and enable the cpuset
  /// controller on the root and parent subtree_control.
  void EnsureParent();
  /// Appends to op_log_, dropping the oldest half at the bound.
  void RecordOp(std::string op);
  /// Appends a "fail <what>: ..." audit line and a platform_error trace
  /// event for a live operation that returned `err` (an errno value).
  void RecordFailure(const std::string& what, int err);
  void OpMkdir(const std::string& dir);
  /// Records and (outside dry-run) performs the write; returns whether the
  /// value is now known to be on disk (dry runs count as success).
  bool OpWrite(const std::string& file, const std::string& value);
  /// Directory name for a tenant cpuset: sanitised, uniquified.
  std::string CpusetDirName(const std::string& name) const;

  LinuxPlatformOptions options_;
  std::unique_ptr<numasim::Topology> topology_;
  std::vector<Cpuset> cpusets_;
  std::vector<std::function<void(simcore::Tick)>> hooks_;
  simcore::Trace trace_;
  std::vector<std::string> op_log_;
  bool parent_ready_ = false;
  /// Cpuset backing SetAllowedMask (created on first use).
  CpusetId allowed_cpuset_ = kNoCpuset;
  /// Shared /proc/stat snapshots (created with the first live sampler).
  std::shared_ptr<perf::SnapshotSource> proc_stat_;
  int64_t clk_tck_ = 100;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace elastic::platform

#endif  // ELASTICORE_PLATFORM_LINUX_PLATFORM_H_

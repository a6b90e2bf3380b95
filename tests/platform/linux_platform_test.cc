// LinuxPlatform dry-run tests: no privileges, no filesystem writes — the
// backend records the exact cgroup-v2 operation sequence it would perform,
// and the tests pin that sequence down. This is what CI runs; a live
// deployment performs the same ops for real (docs/DEPLOY.md).

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/arbiter.h"
#include "platform/linux_platform.h"

namespace elastic::platform {
namespace {

LinuxPlatformOptions DryRunOptions(int nodes = 2, int cores_per_node = 4) {
  LinuxPlatformOptions options;
  options.dry_run = true;
  options.num_nodes = nodes;
  options.cores_per_node = cores_per_node;
  return options;
}

TEST(CpuListTest, FormatsContiguousAndScatteredMasks) {
  EXPECT_EQ(CpuMask::None().ToCpuList(), "");
  EXPECT_EQ(CpuMask::Of({3}).ToCpuList(), "3");
  EXPECT_EQ(CpuMask::FirstN(4).ToCpuList(), "0-3");
  EXPECT_EQ(CpuMask::Of({0, 1, 4, 6, 7, 8}).ToCpuList(), "0-1,4,6-8");
}

TEST(CpuListTest, ParseRoundTrips) {
  for (const std::string& list : {"0-3", "5", "0-1,4,6-8", "0,2,4,63"}) {
    EXPECT_EQ(CpuMask::FromCpuList(list).ToCpuList(), list);
  }
  EXPECT_EQ(CpuMask::FromCpuList(""), CpuMask::None());
}

TEST(CpuListTest, TryFromCpuListRejectsMalformedInput) {
  // The fallible parser turns corrupt sysfs/cgroupfs content into nullopt
  // instead of aborting the daemon.
  for (const std::string& bad :
       {"x", "0-", "-3", "3-1", "0;2", "1024", "0-1024", "1,,2", "0-1-2"}) {
    EXPECT_FALSE(CpuMask::TryFromCpuList(bad).has_value()) << bad;
  }
  ASSERT_TRUE(CpuMask::TryFromCpuList("0-1,63").has_value());
  EXPECT_EQ(*CpuMask::TryFromCpuList("0-1,63"), CpuMask::Of({0, 1, 63}));
  // Cores past the historical 64-core bound parse since the mask widened.
  ASSERT_TRUE(CpuMask::TryFromCpuList("64,100-102,1023").has_value());
  EXPECT_EQ(*CpuMask::TryFromCpuList("64,100-102,1023"),
            CpuMask::Of({64, 100, 101, 102, 1023}));
}

TEST(LinuxPlatformTest, TopologyOverrideSkipsDiscovery) {
  LinuxPlatform platform(DryRunOptions(4, 2));
  EXPECT_EQ(platform.topology().num_nodes(), 4);
  EXPECT_EQ(platform.topology().total_cores(), 8);
}

TEST(LinuxPlatformTest, CreateCpusetEmitsParentSetupThenGroupWrites) {
  LinuxPlatform platform(DryRunOptions());
  const CpusetId cpuset = platform.CreateCpuset("oltp", CpuMask::FirstN(2));
  const std::vector<std::string> expected = {
      "mkdir /sys/fs/cgroup/elasticore",
      "write /sys/fs/cgroup/cgroup.subtree_control = +cpuset",
      "write /sys/fs/cgroup/elasticore/cgroup.subtree_control = +cpuset",
      "mkdir /sys/fs/cgroup/elasticore/oltp",
      "write /sys/fs/cgroup/elasticore/oltp/cpuset.cpus = 0-1",
  };
  EXPECT_EQ(platform.op_log(), expected);
  EXPECT_EQ(platform.cpuset_mask(cpuset), CpuMask::FirstN(2));
  EXPECT_EQ(platform.cpuset_path(cpuset), "/sys/fs/cgroup/elasticore/oltp");
}

TEST(LinuxPlatformTest, SetCpusetMaskWritesOnlyOnChange) {
  LinuxPlatform platform(DryRunOptions());
  const CpusetId cpuset = platform.CreateCpuset("t", CpuMask::FirstN(4));
  const size_t baseline = platform.op_log().size();

  platform.SetCpusetMask(cpuset, CpuMask::FirstN(4));  // unchanged: no write
  EXPECT_EQ(platform.op_log().size(), baseline);

  platform.SetCpusetMask(cpuset, CpuMask::Of({0, 1, 4}));
  ASSERT_EQ(platform.op_log().size(), baseline + 1);
  EXPECT_EQ(platform.op_log().back(),
            "write /sys/fs/cgroup/elasticore/t/cpuset.cpus = 0-1,4");
}

TEST(LinuxPlatformTest, SanitisesAndUniquifiesCgroupNames) {
  LinuxPlatform platform(DryRunOptions());
  const CpusetId first = platform.CreateCpuset("my tenant/1", CpuMask::FirstN(1));
  const CpusetId second = platform.CreateCpuset("my tenant/1", CpuMask::FirstN(1));
  EXPECT_EQ(platform.cpuset_path(first), "/sys/fs/cgroup/elasticore/my_tenant_1");
  EXPECT_EQ(platform.cpuset_path(second),
            "/sys/fs/cgroup/elasticore/my_tenant_1-1");
}

TEST(LinuxPlatformTest, UniquificationNeverReusesASuffixedName) {
  // Regression: the suffix probe must re-check the suffixed candidate
  // against every existing group, or "a-1"/"a"/"a" collapses the third
  // tenant into the first one's cgroup.
  LinuxPlatform platform(DryRunOptions());
  platform.CreateCpuset("a-1", CpuMask::FirstN(1));
  platform.CreateCpuset("a", CpuMask::FirstN(1));
  const CpusetId third = platform.CreateCpuset("a", CpuMask::FirstN(1));
  EXPECT_EQ(platform.cpuset_path(third), "/sys/fs/cgroup/elasticore/a-2");
}

TEST(LinuxPlatformTest, FailedLiveWriteIsRetriedNotSuppressed) {
  // Live mode against a nonexistent root: every write fails. The
  // redundant-write suppression must not treat the intended (but unwritten)
  // mask as installed, or a transient cgroup write failure would never be
  // retried and the real cpuset would diverge from the arbiter's belief
  // forever.
  LinuxPlatformOptions options = DryRunOptions();
  options.dry_run = false;
  options.cgroup_root = "/nonexistent-elasticore-test";
  LinuxPlatform platform(options);
  const CpusetId cpuset = platform.CreateCpuset("t", CpuMask::FirstN(4));
  const size_t baseline = platform.op_log().size();

  // Each failed write leaves two audit lines: the attempt and a "fail"
  // record carrying strerror + errno (here ENOENT — the root is missing).
  EXPECT_FALSE(platform.SetCpusetMask(cpuset, CpuMask::FirstN(2)));
  ASSERT_EQ(platform.op_log().size(), baseline + 2);
  EXPECT_EQ(platform.op_log()[baseline],
            "write /nonexistent-elasticore-test/elasticore/t/cpuset.cpus = 0-1");
  EXPECT_EQ(platform.op_log()[baseline + 1],
            "fail write /nonexistent-elasticore-test/elasticore/t/cpuset.cpus: " +
                std::string(std::strerror(ENOENT)) + " (errno " +
                std::to_string(ENOENT) + ")");
  // The failure also lands in the trace sink for offline diagnosis.
  ASSERT_FALSE(platform.trace()->events().empty());
  EXPECT_EQ(platform.trace()->events().back().kind, "platform_error");
  EXPECT_EQ(platform.trace()->events().back().b, ENOENT);
  // Same mask again: the previous write failed, so it is attempted again.
  EXPECT_FALSE(platform.SetCpusetMask(cpuset, CpuMask::FirstN(2)));
  EXPECT_EQ(platform.op_log().size(), baseline + 4);
}

TEST(LinuxPlatformTest, AttachPidLogsCgroupProcsWrite) {
  LinuxPlatform platform(DryRunOptions());
  const CpusetId cpuset = platform.CreateCpuset("db", CpuMask::FirstN(2));
  EXPECT_TRUE(platform.AttachPid(cpuset, 4242));
  EXPECT_EQ(platform.op_log().back(),
            "write /sys/fs/cgroup/elasticore/db/cgroup.procs = 4242");
}

TEST(LinuxPlatformTest, FireTickHooksDrivesRegisteredHooks) {
  // The external driving loop (elasticored) is the clock on real hardware:
  // hooks registered at Install() fire only when it says so.
  LinuxPlatform platform(DryRunOptions());
  std::vector<simcore::Tick> fired;
  platform.AddTickHook([&](simcore::Tick now) { fired.push_back(now); });
  platform.AddTickHook([&](simcore::Tick now) { fired.push_back(now * 10); });
  platform.FireTickHooks(5);
  EXPECT_EQ(fired, (std::vector<simcore::Tick>{5, 50}));
}

TEST(LinuxPlatformTest, DryRunSamplerIsDeterministicallyIdle) {
  LinuxPlatform platform(DryRunOptions());
  auto sampler = platform.CreateSampler();
  const perf::WindowStats stats = sampler->Sample();
  EXPECT_EQ(stats.num_cores(), 8);
  for (int core = 0; core < stats.num_cores(); ++core) {
    EXPECT_EQ(stats.core_busy_cycles(core), 0);
  }
  EXPECT_DOUBLE_EQ(stats.CpuLoadPercent(CpuMask::FirstN(8),
                                        platform.cycles_per_tick()),
                   0.0);
}

/// A /proc/stat with two CPUs whose busy jiffies (user + system) are
/// `busy0` and `busy1`.
void WriteProcStat(const std::string& root, int busy0, int busy1) {
  std::ofstream out(root + "/stat", std::ios::trunc);
  out << "cpu  " << busy0 + busy1 << " 0 0 2000 0 0 0 0\n"
      << "cpu0 " << busy0 << " 0 0 1000 0 0 0 0\n"
      << "cpu1 " << busy1 << " 0 0 1000 0 0 0 0\n"
      << "intr 0\n";
}

TEST(LinuxPlatformTest, SamplersShareOneProcStatReadPerTick) {
  // N tenants' samplers cost one /proc/stat parse per monitoring tick, not
  // one per tenant: they share the read of the tick.
  const std::string root = ::testing::TempDir() + "/elasticore_proc_stat_" +
                           std::to_string(::getpid());
  ::mkdir(root.c_str(), 0755);
  WriteProcStat(root, 100, 200);
  LinuxPlatformOptions options;
  options.cgroup_root = "/nonexistent-elasticore-test";
  options.num_nodes = 1;
  options.cores_per_node = 2;
  options.seconds_per_tick = 0.02;
  options.proc_root = root;
  LinuxPlatform platform(options);

  // Creates the samplers within one tick and samples them all within the
  // next; retries when a tick boundary falls in between.
  std::vector<std::unique_ptr<perf::UtilizationSampler>> samplers;
  std::vector<perf::WindowStats> windows;
  int64_t creation_reads = 0;
  int64_t sampling_reads = 0;
  bool one_tick_each = false;
  for (int attempt = 0; attempt < 20 && !one_tick_each; ++attempt) {
    // Start on a fresh tick, one no sampler has read yet.
    const simcore::Tick start = platform.Now();
    while (platform.Now() == start) ::usleep(500);
    WriteProcStat(root, 100, 200);
    const simcore::Tick created = platform.Now();
    const int64_t before_creation = platform.snapshot_copies();
    samplers.clear();
    for (int i = 0; i < 4; ++i) samplers.push_back(platform.CreateSampler());
    creation_reads = platform.snapshot_copies() - before_creation;
    const bool created_in_one_tick = platform.Now() == created;
    while (platform.Now() == created) ::usleep(500);
    WriteProcStat(root, 150, 260);
    const simcore::Tick sampled = platform.Now();
    const int64_t before_sampling = platform.snapshot_copies();
    windows.clear();
    for (const auto& sampler : samplers) windows.push_back(sampler->Sample());
    sampling_reads = platform.snapshot_copies() - before_sampling;
    one_tick_each = created_in_one_tick && sampled == created + 1 &&
                    platform.Now() == sampled;
  }
  ASSERT_TRUE(one_tick_each);
  EXPECT_EQ(creation_reads, 1);
  EXPECT_EQ(sampling_reads, 1);
  for (const perf::WindowStats& window : windows) {
    EXPECT_EQ(window.ticks, 1);
    EXPECT_EQ(window.core_busy_cycles(0), 50);
    EXPECT_EQ(window.core_busy_cycles(1), 60);
  }
  std::remove((root + "/stat").c_str());
  ::rmdir(root.c_str());
}

// The acceptance scenario: a whole arbiter driven through the Linux
// backend in dry-run emits exactly the cgroup write sequence a live
// deployment would perform — parent setup, one group per tenant with the
// placeholder mask, the narrowed initial masks, then one write per
// shrinking tenant on the first (all-idle) monitoring round.
TEST(LinuxPlatformTest, ArbiterDryRunEmitsExactWriteSequence) {
  LinuxPlatform platform(DryRunOptions());
  core::ArbiterConfig config;
  config.policy = core::ArbitrationPolicy::kFairShare;
  config.monitor_period_ticks = 1;
  core::CoreArbiter arbiter(&platform, config);

  core::ArbiterTenantConfig oltp;
  oltp.name = "oltp";
  oltp.mode = "dense";
  oltp.mechanism.initial_cores = 2;
  core::ArbiterTenantConfig olap;
  olap.name = "olap";
  olap.mode = "dense";
  olap.mechanism.initial_cores = 4;
  arbiter.AddTenant(oltp);
  arbiter.AddTenant(olap);
  arbiter.Install();
  platform.AttachPid(arbiter.tenant_cpuset(0), 100);
  platform.AttachPid(arbiter.tenant_cpuset(1), 200);

  // Dry-run sampling reads zero utilization, so both tenants classify Idle
  // and release one core each (dense mode: highest core of the last node).
  arbiter.Poll(1);

  const std::vector<std::string> expected = {
      "mkdir /sys/fs/cgroup/elasticore",
      "write /sys/fs/cgroup/cgroup.subtree_control = +cpuset",
      "write /sys/fs/cgroup/elasticore/cgroup.subtree_control = +cpuset",
      "mkdir /sys/fs/cgroup/elasticore/oltp",
      "write /sys/fs/cgroup/elasticore/oltp/cpuset.cpus = 0-7",
      "mkdir /sys/fs/cgroup/elasticore/olap",
      "write /sys/fs/cgroup/elasticore/olap/cpuset.cpus = 0-7",
      // Install(): oltp clusters on node 0, olap takes node 1.
      "write /sys/fs/cgroup/elasticore/oltp/cpuset.cpus = 0-1",
      "write /sys/fs/cgroup/elasticore/olap/cpuset.cpus = 4-7",
      "write /sys/fs/cgroup/elasticore/oltp/cgroup.procs = 100",
      "write /sys/fs/cgroup/elasticore/olap/cgroup.procs = 200",
      // First idle round: each tenant shrinks by one core.
      "write /sys/fs/cgroup/elasticore/oltp/cpuset.cpus = 0",
      "write /sys/fs/cgroup/elasticore/olap/cpuset.cpus = 4-6",
  };
  EXPECT_EQ(platform.op_log(), expected);
}

}  // namespace
}  // namespace elastic::platform

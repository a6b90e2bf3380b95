// elasticored — attach the elastic core arbiter to real processes.
//
// The daemon half of the platform abstraction: builds a LinuxPlatform
// (cgroup-v2 cpusets + /proc/stat utilization), registers one arbiter
// tenant per --tenant flag, moves the named PIDs into the tenant cgroups,
// and then runs the monitoring loop the simulator's tick hook runs
// virtually — one CoreArbiter::Poll per period. The arbiter code is the
// exact object the benches and tests exercise; only the Platform backend
// differs.
//
//   # two MonetDB instances sharing a box, demand-proportional arbitration
//   sudo ./build/elasticored --policy demand_proportional --period-ms 1000 \
//       --tenant name=tpch,pid=4242,initial=2,max=12 \
//       --tenant name=etl,pid=4343,initial=1,weight=0.5
//
//   # CI smoke: no privileges, no writes, deterministic topology
//   ./build/elasticored --dry-run --nodes 2 --cores-per-node 4 --rounds 3 \
//       --tenant name=a,initial=2 --tenant name=b,initial=1 --print-ops
//
// See docs/DEPLOY.md for cgroup-v2 prerequisites.

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/arbiter.h"
#include "exec/tenant_builder.h"
#include "platform/fault_injection_platform.h"
#include "platform/linux_platform.h"

namespace {

using namespace elastic;

// -- Last-resort signal paths. The fallback targets are precomputed before
// handlers are installed, so the SIGABRT path is async-signal-safe: open,
// write, close, re-raise.

volatile sig_atomic_t g_shutdown = 0;

constexpr int kMaxFallbackTargets = 64;
char g_fallback_paths[kMaxFallbackTargets][256];
int g_fallback_count = 0;
char g_fallback_list[64];

void OnShutdownSignal(int) { g_shutdown = 1; }

void OnAbort(int) {
  // The arbiter is dead mid-round; widen every tenant cpuset to the whole
  // machine so no workload stays confined to a partial mask.
  const size_t len = strlen(g_fallback_list);
  for (int i = 0; i < g_fallback_count; ++i) {
    const int fd = open(g_fallback_paths[i], O_WRONLY | O_TRUNC);
    if (fd >= 0) {
      const ssize_t ignored = write(fd, g_fallback_list, len);
      (void)ignored;
      close(fd);
    }
  }
  signal(SIGABRT, SIG_DFL);
  raise(SIGABRT);
}

struct TenantFlag {
  std::string name = "tenant";
  long pid = -1;
  int initial = 1;
  int max = -1;
  double weight = 1.0;
  std::string mode = "dense";
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: elasticored [options] --tenant name=<n>[,pid=<p>][,initial=<c>]"
      "[,max=<c>][,weight=<w>][,mode=dense|sparse|adaptive] ...\n"
      "  --policy <p>         fair_share | priority_weighted | "
      "demand_proportional (default demand_proportional)\n"
      "  --period-ms <n>      monitoring period (default 1000)\n"
      "  --rounds <n>         arbitration rounds to run; 0 = forever "
      "(default 0)\n"
      "  --cgroup-root <dir>  cgroup-v2 mount (default /sys/fs/cgroup)\n"
      "  --nodes <n>, --cores-per-node <n>\n"
      "                       topology override (default: sysfs discovery)\n"
      "  --dry-run            log intended cgroup writes, perform none\n"
      "  --print-ops          dump the cgroup op log on exit\n"
      "  --inject kind=<k>[,target=<n>][,from=<t>][,until=<t>][,prob=<p>]\n"
      "                       inject a scheduled fault (repeatable); kinds:\n"
      "                       cpuset_write | sample_drop | sample_garbage |\n"
      "                       clock_stall | tick_delay\n"
      "  --inject-seed <n>    seed of the injection schedule (default 1)\n");
}

bool ParseInject(const std::string& spec, platform::FaultRule* out) {
  bool have_kind = false;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string field = spec.substr(pos, comma - pos);
    const size_t eq = field.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "kind") {
      have_kind = true;
      if (value == "cpuset_write") out->kind = platform::FaultKind::kCpusetWriteFail;
      else if (value == "sample_drop") out->kind = platform::FaultKind::kSampleDropout;
      else if (value == "sample_garbage") out->kind = platform::FaultKind::kSampleGarbage;
      else if (value == "clock_stall") out->kind = platform::FaultKind::kClockStall;
      else if (value == "tick_delay") out->kind = platform::FaultKind::kTickDelay;
      else return false;
    } else if (key == "target") out->target = std::atoi(value.c_str());
    else if (key == "from") out->from = std::atoll(value.c_str());
    else if (key == "until") out->until = std::atoll(value.c_str());
    else if (key == "prob") out->probability = std::atof(value.c_str());
    else return false;
    pos = comma + 1;
  }
  return have_kind && out->until >= out->from;
}

bool ParseTenant(const std::string& spec, TenantFlag* out) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string field = spec.substr(pos, comma - pos);
    const size_t eq = field.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "name") out->name = value;
    else if (key == "pid") out->pid = std::atol(value.c_str());
    else if (key == "initial") out->initial = std::atoi(value.c_str());
    else if (key == "max") out->max = std::atoi(value.c_str());
    else if (key == "weight") out->weight = std::atof(value.c_str());
    else if (key == "mode") out->mode = value;
    else return false;
    pos = comma + 1;
  }
  // Everything the arbiter would otherwise reject with an abort: max <= 0
  // means uncapped, and the mode must be one core::MakeMode knows.
  const bool known_mode = out->mode == "dense" || out->mode == "sparse" ||
                          out->mode == "adaptive";
  return out->initial >= 1 && out->weight > 0.0 && known_mode &&
         (out->max <= 0 || out->max >= out->initial);
}

}  // namespace

int main(int argc, char** argv) {
  platform::LinuxPlatformOptions platform_options;
  std::string policy = "demand_proportional";
  long period_ms = 1000;
  long rounds = 0;
  bool print_ops = false;
  std::vector<TenantFlag> tenants;
  platform::FaultSchedule schedule;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--policy") policy = next();
    else if (arg == "--period-ms") period_ms = std::atol(next());
    else if (arg == "--rounds") rounds = std::atol(next());
    else if (arg == "--cgroup-root") platform_options.cgroup_root = next();
    else if (arg == "--nodes") platform_options.num_nodes = std::atoi(next());
    else if (arg == "--cores-per-node") {
      platform_options.cores_per_node = std::atoi(next());
    } else if (arg == "--dry-run") platform_options.dry_run = true;
    else if (arg == "--print-ops") print_ops = true;
    else if (arg == "--tenant") {
      TenantFlag tenant;
      if (!ParseTenant(next(), &tenant)) {
        std::fprintf(stderr, "elasticored: bad --tenant spec\n");
        return 2;
      }
      tenants.push_back(tenant);
    } else if (arg == "--inject") {
      platform::FaultRule rule;
      if (!ParseInject(next(), &rule)) {
        std::fprintf(stderr, "elasticored: bad --inject spec\n");
        return 2;
      }
      schedule.rules.push_back(rule);
    } else if (arg == "--inject-seed") {
      schedule.seed = static_cast<uint64_t>(std::atoll(next()));
    } else {
      Usage();
      return arg == "--help" ? 0 : 2;
    }
  }
  if (tenants.empty()) {
    Usage();
    return 2;
  }
  core::ArbiterConfig arbiter_config;
  if (!core::ParseArbitrationPolicy(policy, &arbiter_config.policy)) {
    std::fprintf(stderr, "elasticored: bad --policy %s\n", policy.c_str());
    return 2;
  }
  if (period_ms < 1) period_ms = 1;
  // A dry run has no pacing sleep; "forever" would busy-loop. Default to a
  // short audit run instead.
  if (platform_options.dry_run && rounds == 0) rounds = 3;
  // One platform tick = one monitoring period, so /proc/stat windows and
  // the load thresholds line up with the paper's per-period accounting.
  platform_options.seconds_per_tick = static_cast<double>(period_ms) / 1000.0;

  platform::LinuxPlatform platform(platform_options);
  const numasim::Topology& topo = platform.topology();
  std::printf("elasticored: %d node(s) x %d core(s)%s%s\n", topo.num_nodes(),
              topo.config().cores_per_node,
              platform_options.dry_run ? " [dry run]" : "",
              schedule.rules.empty() ? "" : " [fault injection]");
  int initial_total = 0;
  for (const TenantFlag& tenant : tenants) initial_total += tenant.initial;
  if (initial_total > topo.total_cores()) {
    std::fprintf(stderr,
                 "elasticored: bad --tenant set: %d initial cores on a "
                 "%d-core machine\n",
                 initial_total, topo.total_cores());
    return 2;
  }

  // With --inject the arbiter (and its samplers) see the machine through
  // the fault decorator; AttachPid and the op log stay on the raw backend.
  std::unique_ptr<platform::FaultInjectionPlatform> faulty;
  platform::Platform* arbiter_platform = &platform;
  if (!schedule.rules.empty()) {
    faulty = std::make_unique<platform::FaultInjectionPlatform>(&platform,
                                                                schedule);
    arbiter_platform = faulty.get();
  }

  arbiter_config.monitor_period_ticks = 1;
  // The daemon reads neither the round log nor the nets' transition logs;
  // keeping them would grow memory with every round of a long-lived run.
  arbiter_config.log_rounds = false;
  core::CoreArbiter arbiter(arbiter_platform, arbiter_config);
  for (const TenantFlag& tenant : tenants) {
    core::MechanismConfig mechanism;
    mechanism.initial_cores = tenant.initial;
    mechanism.max_cores = tenant.max;
    mechanism.log_transitions = false;
    arbiter.AddTenant(exec::TenantBuilder(tenant.name)
                          .mechanism(mechanism)
                          .mode(tenant.mode)
                          .weight(tenant.weight)
                          .Build());
  }
  arbiter.Install();
  for (size_t i = 0; i < tenants.size(); ++i) {
    if (tenants[i].pid > 0) {
      platform.AttachPid(arbiter.tenant_cpuset(static_cast<int>(i)),
                         tenants[i].pid);
    }
  }

  if (!platform_options.dry_run) {
    // Precompute the SIGABRT fallback targets (async-signal-safe data only),
    // then install the handlers: SIGINT/SIGTERM drain into a graceful
    // fallback install; SIGABRT (an ELASTIC_CHECK firing) widens the cpusets
    // right in the handler before dying.
    const std::string all_list =
        platform::CpuMask::AllOf(topo).ToCpuList();
    std::snprintf(g_fallback_list, sizeof(g_fallback_list), "%s",
                  all_list.c_str());
    for (int t = 0; t < arbiter.num_tenants() && t < kMaxFallbackTargets;
         ++t) {
      const std::string path =
          platform.cpuset_path(arbiter.tenant_cpuset(t)) + "/cpuset.cpus";
      std::snprintf(g_fallback_paths[g_fallback_count],
                    sizeof(g_fallback_paths[0]), "%s", path.c_str());
      g_fallback_count++;
    }
    signal(SIGINT, OnShutdownSignal);
    signal(SIGTERM, OnShutdownSignal);
    signal(SIGABRT, OnAbort);
  }

  for (long round = 1; rounds == 0 || round <= rounds; ++round) {
    if (g_shutdown) break;
    if (!platform_options.dry_run) {
      std::this_thread::sleep_for(std::chrono::milliseconds(period_ms));
    }
    // Dry runs poll at synthetic ticks so a smoke run finishes instantly;
    // live runs use the platform clock (one tick per period). Firing the
    // platform's tick hooks runs the monitoring hook the arbiter
    // registered at Install() — the same path the simulator's tick loop
    // drives.
    const simcore::Tick now =
        platform_options.dry_run ? round : std::max<simcore::Tick>(
                                               platform.Now(), round);
    if (!platform_options.dry_run) {
      // Tenant liveness: a dead pid is detached before the round so its
      // cores return to the pool instead of idling behind a ghost cgroup.
      for (size_t t = 0; t < tenants.size(); ++t) {
        const int index = static_cast<int>(t);
        if (tenants[t].pid <= 0 || !arbiter.tenant_active(index)) continue;
        if (kill(static_cast<pid_t>(tenants[t].pid), 0) != 0 &&
            errno == ESRCH) {
          std::printf("elasticored: tenant %s (pid %ld) is gone, detaching\n",
                      tenants[t].name.c_str(), tenants[t].pid);
          arbiter.DetachTenant(index);
        }
      }
    }
    platform.FireTickHooks(now);
    std::printf("round %ld:", round);
    for (int t = 0; t < arbiter.num_tenants(); ++t) {
      const core::ElasticMechanism& mechanism = arbiter.mechanism(t);
      std::printf(" %s=%s(u=%.0f,%s)", arbiter.tenant_name(t).c_str(),
                  arbiter.tenant_mask(t).ToCpuList().c_str(),
                  mechanism.last_u(),
                  core::PerfStateName(mechanism.last_state()));
    }
    std::printf("\n");
    std::fflush(stdout);
  }

  if (g_shutdown && !platform_options.dry_run) {
    std::printf("elasticored: shutdown signal, installing fallback masks\n");
    arbiter.InstallFallbackMasks();
  }

  if (print_ops) {
    for (const std::string& op : platform.op_log()) {
      std::printf("op: %s\n", op.c_str());
    }
    if (faulty != nullptr) {
      for (const std::string& line : faulty->injection_log()) {
        std::printf("inject: %s\n", line.c_str());
      }
    }
  }
  std::printf("elasticored: %lld handoffs, %lld preemptions\n",
              static_cast<long long>(arbiter.core_handoffs()),
              static_cast<long long>(arbiter.preemptions()));
  const core::ArbiterStats& stats = arbiter.stats();
  std::printf(
      "health: stale=%lld held=%lld decayed=%lld failed_installs=%lld "
      "quarantines=%lld quarantined_rounds=%lld detached=%lld\n",
      static_cast<long long>(stats.stale_rounds),
      static_cast<long long>(stats.held_rounds),
      static_cast<long long>(stats.decayed_cores),
      static_cast<long long>(stats.failed_installs),
      static_cast<long long>(stats.quarantine_entries),
      static_cast<long long>(stats.quarantined_rounds),
      static_cast<long long>(stats.detached_tenants));
  return 0;
}

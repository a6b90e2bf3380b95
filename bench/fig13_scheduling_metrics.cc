// Figure 13: performance metrics while processing an increasing number of
// concurrent clients running the thetasubselect operator:
// (a) throughput, (b) CPU load, (c) tasks, (d) stolen tasks.

#include "bench/bench_common.h"

namespace elastic::bench {
namespace {

struct Point {
  double throughput = 0.0;
  double cpu_load = 0.0;
  double tasks_k = 0.0;
  double stolen_h = 0.0;
};

void Main() {
  const std::vector<int> kUsers = {1, 4, 16, 64, 256};
  const int kTotal = 256;
  const db::PlanTrace theta = ThetaTrace(0.45);  // paper: ~45% selectivity

  std::map<std::string, std::vector<Point>> series;
  for (const std::string& policy : Policies()) {
    for (int users : kUsers) {
      exec::ExperimentOptions options = PolicyOptions(policy);
      const RunResult run =
          RunFixedWorkload(options, theta, users, std::max(1, kTotal / users),
                           kBenchThinkTicks, kBenchRampTicks);
      Point point;
      point.throughput = run.throughput_qps;
      point.cpu_load = run.window.CpuLoadPercent(
          platform::CpuMask::FirstN(16), static_cast<int64_t>(2.8e6));
      point.tasks_k = static_cast<double>(run.window.tasks_spawned) / 1e3;
      point.stolen_h = static_cast<double>(run.window.stolen_tasks) / 1e2;
      series[policy].push_back(point);
    }
  }

  const std::vector<std::pair<std::string, std::function<double(const Point&)>>>
      panels = {
          {"Fig 13(a) throughput (queries/s)",
           [](const Point& p) { return p.throughput; }},
          {"Fig 13(b) machine CPU load (%)",
           [](const Point& p) { return p.cpu_load; }},
          {"Fig 13(c) tasks (10^3)", [](const Point& p) { return p.tasks_k; }},
          {"Fig 13(d) stolen tasks (10^2)",
           [](const Point& p) { return p.stolen_h; }}};
  for (const auto& [title, extract] : panels) {
    metrics::Table table({"users", "OS/MonetDB", "Dense", "Sparse", "Adaptive"});
    for (size_t u = 0; u < kUsers.size(); ++u) {
      table.AddRow({metrics::Table::Int(kUsers[u]),
                    metrics::Table::Num(extract(series["os"][u]), 2),
                    metrics::Table::Num(extract(series["dense"][u]), 2),
                    metrics::Table::Num(extract(series["sparse"][u]), 2),
                    metrics::Table::Num(extract(series["adaptive"][u]), 2)});
    }
    table.Print(title);
  }
  std::printf(
      "\nExpected shape (paper): adaptive reaches the best throughput at high "
      "concurrency (~25%% over the OS\nscheduler); CPU load and task counts "
      "stay similar across modes; the OS steals the most tasks.\n");
}

}  // namespace
}  // namespace elastic::bench

int main() {
  elastic::bench::Main();
  return 0;
}

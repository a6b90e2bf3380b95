#ifndef PERFBENCH_HARNESS_REPORT_H_
#define PERFBENCH_HARNESS_REPORT_H_

// What one harness run hands back to perfbench/run.py: raw samples (the
// statistics are computed in Python, in perfbench/stats.py), modelled
// outcomes, layer numbers and the output-check tally.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/spans.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

/// Timing samples of one measured phase (untraced or traced).
struct Phase {
  /// Wall time of each step of the workload's loop, in microseconds: one
  /// Poll on arbiter_1k, one Machine::Step on the simulators.
  std::vector<double> step_us;
  /// Thread CPU time of the same steps, in microseconds.
  std::vector<double> step_cpu_us;
  /// Simulated (modelled) seconds the measured steps advanced.
  double sim_s = 0.0;
  /// Repetitions of the workload's fixed simulated span that were run.
  int64_t reps = 0;
};

struct Report {
  /// Wall time of each complete set-up, in seconds.
  std::vector<double> setup_s;
  Phase untraced;
  Phase traced;
  /// Modelled outcomes (deterministic: identical for a seed in every run).
  std::vector<std::pair<std::string, double>> modelled;
  /// Per-layer numbers (traced run only).
  std::vector<std::pair<std::string, double>> layers;
  /// High-water RSS in KiB at a fixed amount of work (set-ups plus the first
  /// repetition, or plus the first kMinRounds rounds on arbiter_1k), so that
  /// it does not grow with the number of repetitions a time budget allows.
  /// 0 until recorded; the process high-water mark at exit is used then.
  int64_t peak_rss_kb = 0;
  /// Output checks: items checked and items found wrong.
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> violations;

  void Violation(const std::string& what, int64_t count = 1);
  void Layer(const std::string& name, double value) {
    layers.emplace_back(name, value);
  }
  /// Compares a repetition's modelled outcome with the first one recorded
  /// under `label`; any difference is a determinism violation.
  void CheckSameModel(
      const std::vector<std::pair<std::string, double>>& first,
      const std::vector<std::pair<std::string, double>>& again,
      const std::string& label);
};

/// Thread CPU time in nanoseconds.
int64_t ThreadCpuNs();
/// Current resident set size of this process in KiB (from /proc/self/statm).
int64_t CurrentRssKb();
/// High-water resident set size of this process in KiB.
int64_t PeakRssKb();

/// Writes the report as one JSON object. Returns false on an I/O error.
bool WriteReportJson(const std::string& path, const RunOptions& options,
                     const Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_REPORT_H_

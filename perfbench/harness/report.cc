#include "harness/report.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

constexpr size_t kMaxViolationsKept = 20;

void WriteString(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', f);
      std::fputc(c, f);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(f, "\\u%04x", c);
    } else {
      std::fputc(c, f);
    }
  }
  std::fputc('"', f);
}

void WriteNumber(std::FILE* f, double v) {
  if (std::isfinite(v)) {
    std::fprintf(f, "%.17g", v);
  } else {
    std::fprintf(f, "null");
  }
}

void WriteArray(std::FILE* f, const std::vector<double>& values) {
  std::fputc('[', f);
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) std::fputc(',', f);
    std::fprintf(f, "%.10g", values[i]);
  }
  std::fputc(']', f);
}

void WritePairs(std::FILE* f,
                const std::vector<std::pair<std::string, double>>& pairs) {
  std::fputc('{', f);
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i > 0) std::fputs(", ", f);
    WriteString(f, pairs[i].first);
    std::fputs(": ", f);
    WriteNumber(f, pairs[i].second);
  }
  std::fputc('}', f);
}

void WritePhase(std::FILE* f, const Phase& phase) {
  std::fputs("{\"sim_s\": ", f);
  WriteNumber(f, phase.sim_s);
  std::fprintf(f, ", \"reps\": %lld, \"step_us\": ",
               static_cast<long long>(phase.reps));
  WriteArray(f, phase.step_us);
  std::fputs(", \"step_cpu_us\": ", f);
  WriteArray(f, phase.step_cpu_us);
  std::fputc('}', f);
}

}  // namespace

void Report::Violation(const std::string& what, int64_t count) {
  failed += count;
  if (violations.size() < kMaxViolationsKept) violations.push_back(what);
}

void Report::CheckSameModel(
    const std::vector<std::pair<std::string, double>>& first,
    const std::vector<std::pair<std::string, double>>& again,
    const std::string& label) {
  attempted++;
  if (first.size() != again.size()) {
    Violation(label + ": modelled outcome has a different shape");
    return;
  }
  for (size_t i = 0; i < first.size(); ++i) {
    // Bitwise equality: the simulator is deterministic, so "close" is wrong.
    if (first[i].first != again[i].first ||
        !(first[i].second == again[i].second)) {
      char buffer[256];
      std::snprintf(buffer, sizeof(buffer), "%s: %s %.17g != %.17g",
                    label.c_str(), first[i].first.c_str(), first[i].second,
                    again[i].second);
      Violation(buffer);
      return;
    }
  }
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

int64_t CurrentRssKb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long long size = 0;
  long long resident = 0;
  const int read = std::fscanf(f, "%lld %lld", &size, &resident);
  std::fclose(f);
  if (read != 2) return 0;
  return resident * (sysconf(_SC_PAGESIZE) / 1024);
}

int64_t PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

bool WriteReportJson(const std::string& path, const RunOptions& options,
                     const Report& report) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"workload\": ", f);
  WriteString(f, options.workload);
  std::fprintf(f, ", \"seed\": %llu, \"trace\": %d, \"seconds\": ",
               static_cast<unsigned long long>(options.seed),
               options.trace ? 1 : 0);
  WriteNumber(f, options.seconds);
  std::fputs(",\n \"provenance\": {\"compiler\": ", f);
  WriteString(f, "g++ " __VERSION__);
  std::fputs(", \"build_type\": ", f);
  WriteString(f, PERFBENCH_BUILD_TYPE);
  std::fputs(", \"cxx_flags\": ", f);
  WriteString(f, PERFBENCH_CXX_FLAGS);
  std::fputs("},\n \"setup_s\": ", f);
  WriteArray(f, report.setup_s);
  std::fprintf(f, ",\n \"peak_rss_kb\": %lld",
               static_cast<long long>(report.peak_rss_kb > 0
                                          ? report.peak_rss_kb
                                          : PeakRssKb()));
  std::fputs(",\n \"modelled\": ", f);
  WritePairs(f, report.modelled);
  std::fputs(",\n \"layers\": ", f);
  WritePairs(f, report.layers);
  std::fprintf(f, ",\n \"attempted\": %lld, \"failed\": %lld",
               static_cast<long long>(report.attempted),
               static_cast<long long>(report.failed));
  std::fputs(",\n \"violations\": [", f);
  for (size_t i = 0; i < report.violations.size(); ++i) {
    if (i > 0) std::fputs(", ", f);
    WriteString(f, report.violations[i]);
  }
  std::fputs("],\n \"untraced\": ", f);
  WritePhase(f, report.untraced);
  std::fputs(",\n \"traced\": ", f);
  WritePhase(f, report.traced);
  std::fputs("}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench

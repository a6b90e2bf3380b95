// perfbench_harness: runs one benchmark workload and writes its raw samples,
// modelled outcomes, layer numbers and output-check tally as JSON. It is
// driven by perfbench/run.py, which builds it and computes the statistics.
//
//   perfbench_harness --workload <arbiter_1k|htap_colocation|numa_ycsb>
//                     --seed <n> --seconds <s> --trace <0|1> --out <file>
//                     [--spans <file>]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/report.h"
#include "harness/workloads.h"

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

void WriteSpans(const RunOptions& options, const SpanRecorder& spans,
                Report* report) {
  if (options.spans_path.empty()) return;
  report->attempted++;
  if (!spans.WriteCsv(options.spans_path)) {
    report->Violation("cannot write spans to " + options.spans_path);
  }
}

}  // namespace perfbench

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_harness: %s\nusage: perfbench_harness --workload "
               "<arbiter_1k|htap_colocation|numa_ycsb> --seed <n> --seconds "
               "<s> --trace <0|1> --out <file> [--spans <file>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return Usage("bad --seed");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(options.seconds > 0.0) ||
          options.seconds > 600.0) {
        return Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("bad --trace");
      }
      options.trace = value[0] == '1';
    } else if (flag == "--out") {
      out = value;
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (out.empty()) return Usage("--out is required");

  perfbench::Report report;
  if (options.workload == "arbiter_1k") {
    perfbench::RunArbiter1k(options, &report);
  } else if (options.workload == "htap_colocation") {
    perfbench::RunHtapColocation(options, &report);
  } else if (options.workload == "numa_ycsb") {
    perfbench::RunNumaYcsb(options, &report);
  } else {
    return Usage("unknown --workload");
  }
  if (!perfbench::WriteReportJson(out, options, report)) {
    std::fprintf(stderr, "perfbench_harness: cannot write %s\n", out.c_str());
    return 1;
  }
  return report.failed == 0 ? 0 : 3;
}

#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstddef>
#include <vector>

#include "harness/report.h"
#include "harness/spans.h"

namespace perfbench {

/// Whether a batch of complete set-ups needs another one: at least three,
/// and more (up to 25) until half a second went into them, so that the
/// median setup_s is steady even for a set-up of a few milliseconds.
inline bool MoreSetUps(const std::vector<double>& batch) {
  double total = 0.0;
  for (const double s : batch) total += s;
  return batch.size() < 3 || (total < 0.5 && batch.size() < 25);
}

/// Does one batch of complete set-ups, appending each one's wall time to
/// `setup_s`, and returns the last one's result. An untraced run does one
/// batch before its timed phase and one after it: the host's speed changes
/// over stretches of seconds, and setup_s is the median of both batches.
template <typename SetUp>
auto TimedSetUps(const SetUp& set_up, std::vector<double>* setup_s)
    -> decltype(set_up()) {
  std::vector<double> batch;
  decltype(set_up()) last;
  while (MoreSetUps(batch)) {
    last.reset();  // release the previous set-up before making the next
    const int64_t t0 = NowNs();
    last = set_up();
    batch.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  setup_s->insert(setup_s->end(), batch.begin(), batch.end());
  return last;
}
/// Spans one traced phase may record (24 bytes each).
inline constexpr size_t kSpanCapacity = 2'000'000;

/// Each workload fills `report`. With options.trace the run has two phases
/// of options.seconds / 2 each, untraced then traced; otherwise one untraced
/// phase of options.seconds.
void RunArbiter1k(const RunOptions& options, Report* report);
void RunHtapColocation(const RunOptions& options, Report* report);
void RunNumaYcsb(const RunOptions& options, Report* report);

double Median(std::vector<double> values);

/// Writes the traced phase's spans to options.spans_path (when set).
void WriteSpans(const RunOptions& options, const SpanRecorder& spans,
                Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_

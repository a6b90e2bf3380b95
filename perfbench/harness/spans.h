#ifndef PERFBENCH_HARNESS_SPANS_H_
#define PERFBENCH_HARNESS_SPANS_H_

// In-memory span recorder for the traced run. Spans are recorded around the
// calls the benchmark makes into each layer (never inside the library), kept
// in a preallocated vector, and written out once when the run ends.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Layer boundaries the benchmark records. The names are the layer metric
/// prefixes of perfbench/README.md.
enum class SpanName : int32_t {
  kPoll,        // core: one CoreArbiter::Poll
  kSample,      // perf: one UtilizationSampler::Sample inside a Poll
  kSetCpuset,   // platform: one Platform::SetCpusetMask inside a Poll
  kStep,        // machine: one ossim::Machine::Step
  kHooks,       // exec: Step call -> the benchmark's own (last) tick hook
  kScheduler,   // ossim: that hook -> Step return
  kCount,
};

const char* SpanNameString(SpanName name);

struct Span {
  SpanName name = SpanName::kPoll;
  int32_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Fixed-capacity span store. Begin/End never allocate once constructed;
/// `full()` tells the driving loop to stop its traced phase.
class SpanRecorder {
 public:
  explicit SpanRecorder(size_t capacity) { spans_.reserve(capacity); }

  bool full() const { return spans_.size() + 4096 > spans_.capacity(); }

  int Begin(SpanName name, int parent, int64_t start_ns) {
    spans_.push_back(Span{name, parent, start_ns, start_ns});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int span, int64_t end_ns) {
    spans_[static_cast<size_t>(span)].end_ns = end_ns;
  }
  int Add(SpanName name, int parent, int64_t start_ns, int64_t end_ns) {
    spans_.push_back(Span{name, parent, start_ns, end_ns});
    return static_cast<int>(spans_.size()) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per-name totals: span count, summed duration and summed self time
  /// (duration minus the part covered by the span's children). Children of
  /// one parent never overlap here (they are sequential calls), so the
  /// covered part is the sum of their durations.
  struct Totals {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::vector<Totals> ComputeTotals() const;

  /// Spans whose interval leaves their parent's interval (must be none).
  int64_t CountEscapingChildren() const;

  /// Writes "id,parent,name,start_ns,end_ns" lines (times relative to the
  /// first span). Returns false when the file cannot be written.
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SPANS_H_

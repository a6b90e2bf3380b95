#include "harness/spans.h"

namespace perfbench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kPoll: return "core.poll";
    case SpanName::kSample: return "perf.sample";
    case SpanName::kSetCpuset: return "platform.set_cpuset";
    case SpanName::kStep: return "machine.step";
    case SpanName::kHooks: return "exec.hooks";
    case SpanName::kScheduler: return "ossim.scheduler";
    case SpanName::kCount: break;
  }
  return "unknown";
}

std::vector<SpanRecorder::Totals> SpanRecorder::ComputeTotals() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::vector<Totals> totals(static_cast<size_t>(SpanName::kCount));
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    Totals& t = totals[static_cast<size_t>(span.name)];
    const int64_t duration = span.end_ns - span.start_ns;
    t.count++;
    t.total_ns += duration;
    t.self_ns += duration - child_ns[i];
  }
  return totals;
}

int64_t SpanRecorder::CountEscapingChildren() const {
  int64_t escaping = 0;
  for (const Span& span : spans_) {
    if (span.parent < 0) continue;
    const Span& parent = spans_[static_cast<size_t>(span.parent)];
    if (span.start_ns < parent.start_ns || span.end_ns > parent.end_ns ||
        span.end_ns < span.start_ns) {
      escaping++;
    }
  }
  return escaping;
}

bool SpanRecorder::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "id,parent,name,start_ns,end_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%d,%s,%lld,%lld\n", i, s.parent,
                 SpanNameString(s.name),
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

std::size_t Tracer::add(const char* name, std::uint64_t group,
                        std::size_t parent, double start, double end) {
  if (!enabled_) return kNoParent;
  spans_.push_back(Span{name, group, parent, start, end, thread_});
  return spans_.size() - 1;
}

void Tracer::absorb(Tracer& other) {
  const std::size_t base = spans_.size();
  for (Span span : other.spans_) {
    if (span.parent != kNoParent) span.parent += base;
    spans_.push_back(span);
  }
  other.spans_.clear();
}

std::vector<double> Tracer::self_seconds() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent == kNoParent) continue;
    const Span& parent = spans_[span.parent];
    const double lo = std::max(span.start, parent.start);
    const double hi = std::min(span.end, parent.end);
    if (hi > lo) children[span.parent].emplace_back(lo, hi);
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& cover = children[i];
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double reach = spans_[i].start;
    for (const auto& [lo, hi] : cover) {
      const double from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = std::max(0.0, spans_[i].end - spans_[i].start - covered);
  }
  return self;
}

std::map<std::string, std::vector<double>> Tracer::self_by_name() const {
  const std::vector<double> self = self_seconds();
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name].push_back(self[i]);
  }
  return out;
}

double Tracer::worst_self_to_root_ratio() const {
  const std::vector<double> self = self_seconds();
  // (thread, group) -> (summed self time, summed root duration)
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::pair<double, double>>
      groups;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& [self_sum, root_sum] = groups[{spans_[i].thread, spans_[i].group}];
    self_sum += self[i];
    if (spans_[i].parent == kNoParent) {
      root_sum += spans_[i].end - spans_[i].start;
    }
  }
  double worst = 0.0;
  for (const auto& [key, sums] : groups) {
    (void)key;
    if (sums.second > 0.0) worst = std::max(worst, sums.first / sums.second);
  }
  return worst;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (const Span& s : spans_) origin = std::min(origin, s.start);
  std::fprintf(f, "{\"traceEvents\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const long long parent =
        s.parent == kNoParent ? -1 : static_cast<long long>(s.parent);
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %zu, \"parent\": %lld, \"group\": %llu}}",
                 i == 0 ? "" : ",", s.name, s.thread,
                 1e6 * (s.start - origin), 1e6 * (s.end - s.start), i, parent,
                 static_cast<unsigned long long>(s.group));
  }
  std::fprintf(f, "\n]}\n");
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

void report_trace(const Tracer& tracer, double untraced_op_s,
                  double traced_op_s, const std::string& path,
                  Result& result) {
  result.metric("trace.overhead_pct",
                100.0 * (traced_op_s - untraced_op_s) / untraced_op_s, "%");
  result.metric("trace.spans", static_cast<double>(tracer.spans().size()),
                "count");
  const double ratio = tracer.worst_self_to_root_ratio();
  result.check("trace_self_within_span", ratio <= 1.0 + 1e-9,
               "worst group self/root ratio " + std::to_string(ratio));
  result.check("trace_written", tracer.write(path), path);
  result.info("trace_file", path);
}

}  // namespace perfbench

// In-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's own code around each call into a
// layer, using the timestamps the workload takes anyway, so an untraced run
// executes the same clock reads and only skips the recording. A span has a
// name, start, end, parent and a group id shared by every span of one
// window or batch. Spans stay in memory and are written out once, at the
// end, as Chrome trace-event JSON (viewable in chrome://tracing or
// Perfetto).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string: the layer call it wraps
  std::uint64_t group = 0;
  std::size_t parent = 0;  ///< index into the same tracer, or kNoParent
  double start = 0.0;      ///< [s] on now_s()
  double end = 0.0;
  std::uint32_t thread = 0;
};

class Tracer {
 public:
  static constexpr std::size_t kNoParent =
      std::numeric_limits<std::size_t>::max();

  explicit Tracer(bool enabled, std::uint32_t thread = 0)
      : enabled_(enabled), thread_(thread) {}

  bool enabled() const noexcept { return enabled_; }

  /// Records a finished span and returns its index (kNoParent when
  /// tracing is off, so children of a skipped span are skipped too).
  std::size_t add(const char* name, std::uint64_t group, std::size_t parent,
                  double start, double end);

  /// Moves `other`'s spans into this tracer, rebasing parent indices.
  void absorb(Tracer& other);

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self time of every span: its duration minus the part of its interval
  /// that its children cover (children clipped to the parent, overlaps
  /// counted once).
  std::vector<double> self_seconds() const;

  /// Self times [s] of all spans with each name.
  std::map<std::string, std::vector<double>> self_by_name() const;

  /// Largest ratio, over groups, of the summed self times of the group's
  /// spans to the duration of its root span(s). At most 1 when every child
  /// lies inside its parent; 0 when nothing was recorded.
  double worst_self_to_root_ratio() const;

  /// Writes the spans as Chrome trace-event JSON; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::uint32_t thread_;
  std::vector<Span> spans_;
};

/// Finishes a traced run: reports the tracing overhead (the traced pass's
/// time per operation over the untraced pass's, on the same inputs), the
/// span count, and checks that each group's self times fit in its root
/// span; then writes the spans to `path`.
void report_trace(const Tracer& tracer, double untraced_op_s,
                  double traced_op_s, const std::string& path,
                  Result& result);

}  // namespace perfbench

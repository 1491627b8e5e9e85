// What one benchmark run reports, and the small helpers every workload
// shares: a monotonic clock, exact quantiles, and the JSON result line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock.
double now_s();

/// Exact quantile of `values` (linear interpolation between order
/// statistics, the numpy default); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Command-line settings shared by every workload.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (stores, trace files).
  std::string work_dir;
};

class Result {
 public:
  struct Number {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  struct Check {
    std::string name;
    bool pass = false;
    std::string detail;
  };

  /// A named number with its unit. End-to-end metrics are reported by
  /// untraced runs, per-layer metrics by traced runs; `detail` entries are
  /// printed for people and never compared.
  void metric(const std::string& name, double value, const std::string& unit);
  void detail(const std::string& name, double value, const std::string& unit);
  void info(const std::string& name, const std::string& text);

  /// Counts one attempted operation; a false `ok` counts it failed.
  void op(bool ok);
  /// Counts `attempted` operations of which `failed` failed.
  void ops(std::size_t attempted, std::size_t failed);
  /// An output check: counted as an operation and listed with its verdict.
  bool check(const std::string& name, bool pass, const std::string& detail);
  /// Records a failure message for the run (at most a few are kept).
  void fail(const std::string& message);

  std::size_t attempted() const noexcept { return attempted_; }
  std::size_t failed() const noexcept { return failed_; }

  /// One-line JSON object: workload facts, checks, details and metrics.
  std::string to_json() const;

 private:
  std::vector<Number> metrics_;
  std::vector<Number> details_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<Check> checks_;
  std::vector<std::string> errors_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

}  // namespace perfbench

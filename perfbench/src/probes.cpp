#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "linalg/kernels/kernels.hpp"
#include "thermal/transient.hpp"
#include "traffic.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

void report_kernels(std::size_t rows, std::size_t cols, std::uint64_t seed,
                    Result& result) {
  namespace k = protemp::linalg::kernels;
  const k::KernelOps& ops = k::active();
  protemp::util::Rng rng(seed ^ 0x6b65726e656c73ull);
  std::vector<double> a(rows * cols), w(rows), x_rows(rows), x_cols(cols);
  for (double& v : a) v = rng.uniform(-1.0, 1.0);
  for (double& v : w) v = rng.uniform(0.5, 2.0);
  for (double& v : x_rows) v = rng.uniform(0.5, 1.0);
  for (double& v : x_cols) v = rng.uniform(0.5, 1.0);
  std::vector<double> gram(cols * cols), out_rows(rows), out_cols(cols);

  const double gram_s = seconds_per_call([&] {
    std::fill(gram.begin(), gram.end(), 0.0);
    ops.gram_weighted(a.data(), rows, cols, w.data(), gram.data());
  });
  const double matvec_s = seconds_per_call([&] {
    ops.matvec_add(a.data(), rows, cols, x_cols.data(), out_rows.data());
  });
  const double matvec_t_s = seconds_per_call([&] {
    ops.matvec_t_add(a.data(), rows, cols, x_rows.data(), out_cols.data());
  });

  const double m = static_cast<double>(rows);
  const double n = static_cast<double>(cols);
  result.metric("kernels.gram_weighted_us", 1e6 * gram_s, "us");
  result.metric("kernels.matvec_add_us", 1e6 * matvec_s, "us");
  result.metric("kernels.matvec_t_add_us", 1e6 * matvec_t_s, "us");
  // Computed from the shape, not measured: one weight scale per row entry
  // plus a multiply-add per upper-triangle entry; 2mn for a matvec. Bytes
  // count each operand and output touched once.
  result.metric("kernels.gram_weighted_flop_computed", m * n * (n + 2.0),
                "flop");
  result.metric("kernels.matvec_flop_computed", 2.0 * m * n, "flop");
  result.metric("kernels.gram_weighted_bytes_computed",
                8.0 * (m * n + m + n * n), "B");
  result.metric("kernels.matvec_bytes_computed", 8.0 * (m * n + 2.0 * m + n),
                "B");
  result.metric("kernels.shape_rows", m, "count");
  result.metric("kernels.shape_cols", n, "count");

  double sink = 0.0;
  for (const double v : gram) sink += v;
  for (const double v : out_rows) sink += v;
  for (const double v : out_cols) sink += v;
  result.op(std::isfinite(sink));
}

double thermal_step_seconds(const protemp::arch::Platform& platform,
                            double dt) {
  const protemp::thermal::EulerSimulator euler(platform.network(), dt);
  protemp::linalg::Vector temps = idle_temperatures(platform);
  const protemp::linalg::Vector& power = platform.background_power();
  protemp::linalg::Vector next;
  return seconds_per_call([&] {
    euler.step_into(temps, power, next);
    std::swap(temps, next);
  });
}

}  // namespace

void report_layer_probes(const protemp::arch::Platform& platform,
                         const protemp::core::ProTempConfig& config,
                         const protemp::convex::SolverWorkspace& live,
                         std::uint64_t seed, Result& result) {
  std::vector<double> ctor_s;
  std::size_t linear_rows = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_s();
    const protemp::core::ProTempOptimizer optimizer(platform, config);
    ctor_s.push_back(now_s() - t0);
    linear_rows = optimizer.num_linear_rows();
  }
  result.metric("core.optimizer_ctor_ms", 1e3 * median(ctor_s), "ms");

  // The shape the barrier last worked on; barrier() is a mutable accessor,
  // so read it from a copy.
  protemp::convex::SolverWorkspace copy = live;
  const std::size_t rows = copy.barrier().residual.size();
  const std::size_t cols = copy.barrier().gradient.size();
  result.check("kernel_shape_is_live", rows == linear_rows && cols > 0,
               std::to_string(rows) + " x " + std::to_string(cols) +
                   " vs optimizer rows " + std::to_string(linear_rows));
  report_kernels(rows, cols, seed, result);
  result.metric("thermal.step_ns",
                1e9 * thermal_step_seconds(platform, config.dt), "ns");
}

protemp::convex::SolverWorkspace live_solve_workspace(
    const protemp::core::ProTempOptimizer& optimizer) {
  const protemp::arch::Platform& platform = optimizer.platform();
  protemp::convex::SolverWorkspace workspace(optimizer.config().warm_start);
  optimizer.solve_from_state(idle_temperatures(platform),
                             0.5 * platform.fmax(), &workspace);
  return workspace;
}

}  // namespace perfbench

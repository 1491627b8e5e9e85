// Layer probes shared by every traced run: each calls one layer's public
// functions directly, at a shape or network taken from the live program,
// with caches warmed before timing.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/platform.hpp"
#include "convex/workspace.hpp"
#include "core/optimizer.hpp"
#include "report.hpp"

namespace perfbench {

/// Median seconds per call over 11 blocks of ~2 ms each, after a warm-up
/// that brings the operands into cache.
template <typename Call>
double seconds_per_call(Call&& call) {
  for (int i = 0; i < 20; ++i) call();
  std::size_t reps = 1;
  for (;;) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < reps; ++i) call();
    if (now_s() - t0 > 2e-3 || reps >= (1u << 22)) break;
    reps *= 2;
  }
  std::vector<double> blocks;
  for (int b = 0; b < 11; ++b) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < reps; ++i) call();
    blocks.push_back((now_s() - t0) / static_cast<double>(reps));
  }
  return median(blocks);
}

/// Reports the probes every traced run emits, whatever its workload:
///   kernels.*               each dispatched kernel of linalg::kernels at
///                           the barrier's linear-block shape, read from
///                           `live` (a workspace that just ran a paper-
///                           config solve), plus the computed flop and byte
///                           counts of one call;
///   thermal.step_ns         EulerSimulator::step_into on `platform` at the
///                           optimizer's dt;
///   core.optimizer_ctor_ms  median ProTempOptimizer construction.
void report_layer_probes(const protemp::arch::Platform& platform,
                         const protemp::core::ProTempConfig& config,
                         const protemp::convex::SolverWorkspace& live,
                         std::uint64_t seed, Result& result);

/// Runs one paper-config MPC solve from the idle steady state and returns
/// its workspace, for workloads that run no MPC of their own.
protemp::convex::SolverWorkspace live_solve_workspace(
    const protemp::core::ProTempOptimizer& optimizer);

}  // namespace perfbench

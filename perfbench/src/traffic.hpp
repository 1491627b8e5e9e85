// The benchmark's traffic. Nothing here draws from ranges the benchmark
// picks: every workload's demand and telemetry come from the paper's mixed
// workload (workload::make_mixed_trace, the web / multimedia / database
// MMPP mix of Fig. 6a) run through the repository's own simulator, so a
// window sees exactly what sim::MulticoreSimulator hands a controller.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/platform.hpp"
#include "sim/control_loop.hpp"
#include "sim/policies.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

constexpr std::size_t kDemandStride = 5;

/// What a DFS policy was shown at one window boundary.
struct WindowView {
  std::size_t queue_length = 0;
  double backlog_work = 0.0;      ///< [s at fmax]
  double arrived_work = 0.0;      ///< over the last window [s at fmax]
  double max_sensor_temp = 0.0;   ///< [degC], the table's row key
  double required = 0.0;          ///< required average frequency [Hz]
  double served = 0.0;  ///< mean frequency the policy answered with [Hz]
};

/// Forwards to `inner` and records the view of every window.
class RecordingPolicy final : public protemp::sim::DfsPolicy {
 public:
  explicit RecordingPolicy(protemp::sim::DfsPolicy& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  void reset() override { inner_.reset(); }
  protemp::linalg::Vector on_window(
      const protemp::sim::ControllerView& view) override;
  bool on_sample(double time, const protemp::linalg::Vector& core_temps,
                 protemp::linalg::Vector& frequencies) override {
    return inner_.on_sample(time, core_temps, frequencies);
  }

  const std::vector<WindowView>& views() const noexcept { return views_; }

 private:
  protemp::sim::DfsPolicy& inner_;
  std::vector<WindowView> views_;
};

/// `windows` window boundaries of the mixed trace (seeded) on `platform`,
/// run by the simulator under no-tc: every core at the required frequency,
/// no thermal control. This is the demand the trace offers a chip that
/// never throttles, which is what an open-loop driver can replay whatever
/// its controller commands. Window k is trace window k * kDemandStride: a
/// 20 s stretch of the trace swings the mean demand by a factor of two
/// between seeds, every fifth window of a 100 s stretch by about 10%.
std::vector<WindowView> mixed_trace_demand(
    const protemp::arch::Platform& platform,
    const protemp::sim::SimConfig& sim, std::uint64_t seed,
    std::size_t windows);

/// Runs `windows` DFS windows of the mixed trace (seeded) on `platform` in
/// closed loop under `controller` and returns the telemetry frames the
/// controller consumed in the windows `keep` lists (ascending), in order:
/// steps-per-window frames each, window-boundary frames with their block
/// sensors and workload fields, the rest with core readings only.
std::vector<protemp::sim::TelemetryFrame> record_closed_loop(
    const protemp::arch::Platform& platform,
    const protemp::sim::SimConfig& sim, std::uint64_t seed,
    std::size_t windows, protemp::sim::Controller& controller,
    const std::vector<std::size_t>& keep);

/// The simulator's initial plant state: the idle chip (cores off,
/// background power at zero activity) in steady state.
protemp::linalg::Vector idle_temperatures(
    const protemp::arch::Platform& platform);

}  // namespace perfbench

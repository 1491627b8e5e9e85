#include "traffic.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "api/protemp.hpp"
#include "core/policies.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace {

using namespace protemp;

/// Forwards to `inner` and keeps a copy of the frames of the listed
/// windows.
class FrameRecorder final : public sim::Controller {
 public:
  FrameRecorder(sim::Controller& inner, std::size_t steps_per_window,
                const std::vector<std::size_t>& keep)
      : inner_(inner), steps_per_window_(steps_per_window), keep_(keep) {}

  void reset() override {
    inner_.reset();
    step_ = 0;
    next_ = 0;
    frames_.clear();
  }

  const linalg::Vector& on_telemetry(
      const sim::TelemetryFrame& frame) override {
    const std::size_t window = step_++ / steps_per_window_;
    while (next_ < keep_.size() && keep_[next_] < window) ++next_;
    if (next_ < keep_.size() && keep_[next_] == window) {
      frames_.push_back(frame);
    }
    return inner_.on_telemetry(frame);
  }

  std::size_t pick_core(const sim::AssignmentContext& ctx) override {
    return inner_.pick_core(ctx);
  }

  std::vector<sim::TelemetryFrame> take_frames() { return std::move(frames_); }

 private:
  sim::Controller& inner_;
  std::size_t steps_per_window_;
  const std::vector<std::size_t>& keep_;
  std::size_t step_ = 0;
  std::size_t next_ = 0;
  std::vector<sim::TelemetryFrame> frames_;
};

workload::TaskTrace mixed_trace(const arch::Platform& platform,
                                const sim::SimConfig& sim,
                                std::uint64_t seed, std::size_t windows) {
  return workload::make_mixed_trace(
      static_cast<double>(windows) * sim.dfs_period, seed,
      platform.num_cores());
}

}  // namespace

linalg::Vector RecordingPolicy::on_window(const sim::ControllerView& view) {
  linalg::Vector frequencies = inner_.on_window(view);
  const double served =
      frequencies.size() == 0
          ? 0.0
          : frequencies.sum() / static_cast<double>(frequencies.size());
  views_.push_back({view.queue_length, view.backlog_work,
                    view.arrived_work_last_window, view.max_sensor_temp(),
                    sim::required_average_frequency(view), served});
  return frequencies;
}

std::vector<WindowView> mixed_trace_demand(const arch::Platform& platform,
                                           const sim::SimConfig& sim,
                                           std::uint64_t seed,
                                           std::size_t windows) {
  core::NoTcPolicy no_tc;
  RecordingPolicy recording(no_tc);
  api::StatusOr<std::unique_ptr<sim::AssignmentPolicy>> assignment =
      api::make_assignment_policy("first-idle");
  if (!assignment.ok()) {
    throw std::runtime_error(assignment.status().to_string());
  }
  const std::size_t span = windows * kDemandStride;
  sim::MulticoreSimulator simulator(platform, sim);
  simulator.run(mixed_trace(platform, sim, seed, span), recording,
                **assignment, static_cast<double>(span) * sim.dfs_period);
  std::vector<WindowView> views;
  const std::vector<WindowView>& all = recording.views();
  for (std::size_t w = 0; w < all.size() && views.size() < windows;
       w += kDemandStride) {
    views.push_back(all[w]);
  }
  return views;
}

std::vector<sim::TelemetryFrame> record_closed_loop(
    const arch::Platform& platform, const sim::SimConfig& sim,
    std::uint64_t seed, std::size_t windows, sim::Controller& controller,
    const std::vector<std::size_t>& keep) {
  const auto steps_per_window =
      static_cast<std::size_t>(std::llround(sim.dfs_period / sim.dt));
  FrameRecorder recorder(controller, steps_per_window, keep);
  sim::MulticoreSimulator simulator(platform, sim);
  simulator.run(mixed_trace(platform, sim, seed, windows), recorder,
                static_cast<double>(windows) * sim.dfs_period);
  return recorder.take_frames();
}

linalg::Vector idle_temperatures(const arch::Platform& platform) {
  return platform.network().steady_state(platform.background_power_at(0.0));
}

}  // namespace perfbench

// mpc_online: one pro-temp-online ControlSession on niagara8 at the
// paper's optimizer configuration, driven open loop along a heating
// trajectory.
//
// The benchmark owns the plant: an Euler model of the niagara8 network at
// the optimizer's dt, started where the repository's simulator starts (the
// idle chip in steady state) and fed the session's own commands at the
// optimizer's worst-case power (every core busy at its commanded
// frequency). The demand of every window is the paper's mixed trace as the
// simulator presents it (see traffic.hpp). Each DFS window is one boundary
// frame (core and block sensors plus the window's demand) and then the
// window's remaining sensor frames, whose temperatures the plant computes
// before the block is stepped, so the block is timed without the plant in
// it. A cycle is kWindows windows from the session's post-creation
// snapshot and the idle plant, so every cycle is the same work and
// produces the same command stream.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "api/protemp.hpp"
#include "common.hpp"
#include "probes.hpp"
#include "thermal/transient.hpp"
#include "trace.hpp"
#include "traffic.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace protemp;

/// Windows per cycle: twenty lie beyond the p90.
constexpr std::size_t kWindows = 200;
/// Windows replayed, untimed, after the measured cycles to check that a
/// restored session repeats its command stream.
constexpr std::size_t kRepeatWindows = 10;
constexpr int kSetups = 5;
/// Margin over tmax the plant may reach: the optimizer guarantees tmax
/// (plus its 1e-6 constraint slack) on this very model, so anything near
/// this margin is a real violation, not rounding.
constexpr double kPlantSlackCelsius = 0.5;

std::uint64_t digest_demand(const std::vector<WindowView>& demand) {
  std::uint64_t h = util::fnv1a64("");
  for (const WindowView& d : demand) {
    h = util::fnv1a64(&d.queue_length, sizeof(d.queue_length), h);
    h = util::fnv1a64(&d.backlog_work, sizeof(d.backlog_work), h);
    h = util::fnv1a64(&d.arrived_work, sizeof(d.arrived_work), h);
  }
  return h;
}

api::ScenarioSpec mpc_spec() {
  api::ScenarioSpec spec;
  spec.name = "perfbench-mpc-online";
  spec.platform = "niagara8";
  spec.dfs_policy = "pro-temp-online";
  spec.optimizer = bench::paper_optimizer_config(/*gradient=*/true);
  spec.sim = bench::paper_sim_config();
  return spec;
}

struct Fixture {
  std::unique_ptr<api::ControlSession> session;
  api::SessionSnapshot start;
  std::vector<WindowView> demand;  ///< one per window of a cycle
  linalg::Vector start_temps;
};

api::StatusOr<Fixture> set_up(std::uint64_t seed) {
  api::StatusOr<std::unique_ptr<api::ControlSession>> session =
      api::ControlSession::create(mpc_spec());
  if (!session.ok()) return session.status();
  Fixture fixture;
  fixture.session = std::move(session).value();
  const arch::Platform& platform = fixture.session->platform();
  fixture.demand = mixed_trace_demand(
      platform, fixture.session->sim_config(), seed, kWindows);
  if (fixture.demand.size() < kWindows) {
    return api::Status::internal("mixed trace gave " +
                                 std::to_string(fixture.demand.size()) +
                                 " windows");
  }
  fixture.start_temps = idle_temperatures(platform);
  fixture.start = fixture.session->snapshot();
  return fixture;
}

/// Everything one measurement pass observed.
struct Pass {
  std::size_t cycles = 0;
  std::size_t windows = 0;
  std::vector<double> window_s;       ///< boundary step() per window
  std::vector<double> steady_step_s;  ///< block time / steps per window
  std::vector<double> solve_s;        ///< policy solve_seconds delta
  double session_s = 0.0;             ///< all time inside step()
  double wall_s = 0.0;                ///< all window wall time
  double served_hz = 0.0;    ///< first cycle: sum of per-window mean command
  double required_hz = 0.0;  ///< first cycle: sum of required frequencies
  double max_plant_temp = -1e300;
  std::size_t bad_commands = 0;   ///< non-finite or out of bounds
  std::size_t moved_commands = 0; ///< steady block changed the command
  std::uint64_t command_digest = 0;  ///< first cycle
  std::uint64_t prefix_digest = 0;   ///< first cycle's first kRepeatWindows
  std::size_t repeats = 0;           ///< later prefixes compared with it
  std::size_t repeat_mismatch = 0;
  convex::SolverWorkspace::Stats solver;  ///< summed per-window deltas
  std::size_t infeasible = 0;
};

void add_delta(convex::SolverWorkspace::Stats& sum,
               const convex::SolverWorkspace::Stats& after,
               const convex::SolverWorkspace::Stats& before) {
  sum.solves += after.solves - before.solves;
  sum.warm_started += after.warm_started - before.warm_started;
  sum.warm_rejected += after.warm_rejected - before.warm_rejected;
  sum.newton_steps += after.newton_steps - before.newton_steps;
  sum.budget_expired += after.budget_expired - before.budget_expired;
}

Pass measure(Fixture& fixture, double seconds, Tracer& tracer,
             Result& result) {
  api::ControlSession& session = *fixture.session;
  const arch::Platform& platform = session.platform();
  const sim::SimConfig& sim = session.sim_config();
  const std::size_t cores = platform.num_cores();
  const std::size_t blocks = platform.floorplan().size();
  const auto& core_nodes = platform.core_nodes();
  const auto steps_per_window =
      static_cast<std::size_t>(std::llround(sim.dfs_period / sim.dt));
  const thermal::EulerSimulator plant(platform.network(), sim.dt);
  const auto* policy =
      dynamic_cast<const core::OnlineProTempPolicy*>(&session.dfs_policy());
  const convex::SolverWorkspace* workspace = session.solver_workspace();

  Pass pass;
  if (policy == nullptr || workspace == nullptr) {
    result.check("session_is_online_mpc", false, "no OnlineProTempPolicy");
    return pass;
  }

  sim::TelemetryFrame boundary;
  boundary.core_temps = linalg::Vector(cores);
  boundary.sensor_temps = linalg::Vector(blocks);
  std::vector<sim::TelemetryFrame> block(steps_per_window - 1);
  for (sim::TelemetryFrame& frame : block) {
    frame.core_temps = linalg::Vector(cores);
  }
  linalg::Vector temps;
  linalg::Vector next;
  linalg::Vector core_watts(cores);

  const auto advance_plant = [&](const linalg::Vector& power) {
    plant.step_into(temps, power, next);
    std::swap(temps, next);
    for (std::size_t c = 0; c < cores; ++c) {
      pass.max_plant_temp =
          std::max(pass.max_plant_temp, temps[core_nodes[c]]);
    }
  };

  // Steps `windows` windows from the start snapshot and the idle plant;
  // records them when `timed`. Returns false on a failed step.
  const auto run_cycle = [&](std::size_t windows, bool timed) {
    const api::Status restored = session.restore(fixture.start);
    result.op(restored.ok());
    if (!restored.ok()) {
      result.fail("restore: " + restored.to_string());
      return false;
    }
    temps = fixture.start_temps;
    const bool first = pass.cycles == 0;
    std::uint64_t digest = util::fnv1a64("");
    for (std::size_t w = 0; w < windows; ++w) {
      const double t_window = now_s();
      const double window_time = static_cast<double>(w) * sim.dfs_period;
      boundary.time = window_time;
      for (std::size_t c = 0; c < cores; ++c) {
        boundary.core_temps[c] = temps[core_nodes[c]];
      }
      for (std::size_t b = 0; b < blocks; ++b) {
        boundary.sensor_temps[b] = temps[b];
      }
      const WindowView& d = fixture.demand[w];
      boundary.queue_length = d.queue_length;
      boundary.backlog_work = d.backlog_work;
      boundary.arrived_work_last_window = d.arrived_work;

      const double solve_before = policy->stats().solve_seconds;
      const std::size_t infeasible_before = policy->stats().infeasible;
      const convex::SolverWorkspace::Stats stats_before = workspace->stats();
      const double t0 = now_s();
      const api::StatusOr<api::ActuationCommand> command =
          session.step(boundary);
      const double t1 = now_s();
      result.op(command.ok());
      if (!command.ok()) {
        result.fail("boundary step: " + command.status().to_string());
        return false;
      }
      digest = api::digest_command(digest, *command);
      if (w + 1 == kRepeatWindows) {
        if (first) {
          pass.prefix_digest = digest;
        } else {
          ++pass.repeats;
          if (digest != pass.prefix_digest) ++pass.repeat_mismatch;
        }
      }

      const linalg::Vector& f = command->frequencies;
      double activity = 0.0;
      double mean = 0.0;
      for (std::size_t c = 0; c < cores; ++c) {
        if (!std::isfinite(f[c]) || f[c] < 0.0 ||
            f[c] > platform.core_fmax(c) * (1.0 + 1e-12)) {
          ++pass.bad_commands;
        }
        core_watts[c] = platform.core_power_of(c).power(f[c], true);
        activity += core_watts[c];
        mean += f[c] / static_cast<double>(cores);
      }
      const linalg::Vector power = platform.full_power(
          core_watts, activity / platform.total_core_pmax());

      // The plant's response inside the window, computed before the block
      // is stepped.
      for (std::size_t s = 0; s < block.size(); ++s) {
        advance_plant(power);
        block[s].time = window_time + static_cast<double>(s + 1) * sim.dt;
        for (std::size_t c = 0; c < cores; ++c) {
          block[s].core_temps[c] = temps[core_nodes[c]];
        }
      }
      const double t2 = now_s();
      std::size_t block_failures = 0;
      for (const sim::TelemetryFrame& frame : block) {
        if (!session.step(frame).ok()) ++block_failures;
      }
      const double t3 = now_s();
      result.ops(block.size(), block_failures);
      const api::ActuationCommand& last = session.last_command();
      if (last.intervened || last.frequencies.size() != cores ||
          !std::equal(f.begin(), f.end(), last.frequencies.begin())) {
        ++pass.moved_commands;
      }
      advance_plant(power);  // the window's last step
      const double t4 = now_s();
      if (!timed) continue;

      const double solve = policy->stats().solve_seconds - solve_before;
      pass.infeasible += policy->stats().infeasible - infeasible_before;
      add_delta(pass.solver, workspace->stats(), stats_before);
      pass.window_s.push_back(t1 - t0);
      pass.steady_step_s.push_back((t3 - t2) /
                                   static_cast<double>(block.size()));
      pass.solve_s.push_back(solve);
      pass.session_s += (t1 - t0) + (t3 - t2);
      pass.wall_s += t4 - t_window;
      if (first) {
        pass.served_hz += mean;
        pass.required_hz += d.required;
      }
      ++pass.windows;

      const std::uint64_t group = pass.windows;
      const std::size_t root =
          tracer.add("mpc.window", group, Tracer::kNoParent, t_window, t4);
      const std::size_t step =
          tracer.add("api.session_step.boundary", group, root, t0, t1);
      // The policy's own solve clock, placed at the start of the step.
      tracer.add("core.mpc_solve", group, step, t0, t0 + solve);
      tracer.add("thermal.plant", group, root, t1, t2);
      tracer.add("api.session_step.steady_block", group, root, t2, t3);
      tracer.add("thermal.plant", group, root, t3, t4);
    }
    if (first) pass.command_digest = digest;
    if (timed) ++pass.cycles;
    return true;
  };

  // Whole cycles, so every window weighs the same in a run; another cycle
  // starts only if one more fits in `seconds`. Then the untimed repeat.
  const double start = now_s();
  double cycle_start = start;
  bool ok = run_cycle(kWindows, true);
  while (ok) {
    const double now = now_s();
    if (now - start + (now - cycle_start) > seconds) break;
    cycle_start = now;
    ok = run_cycle(kWindows, true);
  }
  if (ok) run_cycle(kRepeatWindows, false);
  return pass;
}

}  // namespace

Result run_mpc_online(const RunOptions& options) {
  Result result;
  std::vector<double> setup_s;
  api::StatusOr<Fixture> fixture = api::Status::internal("not set up");
  for (int rep = 0; rep < kSetups; ++rep) {
    fixture = api::Status::internal("not set up");  // drop the previous one
    const double t0 = now_s();
    fixture = set_up(options.seed);
    setup_s.push_back(now_s() - t0);
    result.op(fixture.ok());
    if (!fixture.ok()) {
      result.fail("set-up: " + fixture.status().to_string());
      return result;
    }
  }
  result.info("input_digest",
              util::format("%016llx", static_cast<unsigned long long>(
                                          digest_demand(fixture->demand))));

  Tracer untraced(false);
  const Pass pass = measure(*fixture, options.seconds, untraced, result);
  if (pass.windows == 0) return result;

  const arch::Platform& platform = fixture->session->platform();
  const double tmax = fixture->session->sim_config().tmax;
  const double p90 = quantile(pass.window_s, 0.9);
  const auto beyond_p90 = static_cast<std::size_t>(std::count_if(
      pass.window_s.begin(), pass.window_s.end(),
      [&](double s) { return s > p90; }));
  const auto deadline_misses = static_cast<std::size_t>(std::count_if(
      pass.window_s.begin(), pass.window_s.end(), [&](double s) {
        return s > fixture->session->sim_config().dfs_period;
      }));

  result.check("commands_finite_within_core_bounds", pass.bad_commands == 0,
               std::to_string(pass.bad_commands) + " bad of " +
                   std::to_string(pass.windows) + " window commands");
  result.check("steady_steps_hold_window_command", pass.moved_commands == 0,
               std::to_string(pass.moved_commands) + " windows changed");
  result.check("plant_within_tmax_plus_slack",
               pass.max_plant_temp <= tmax + kPlantSlackCelsius,
               util::format("max %.4f degC vs tmax %.1f + %.1f",
                            pass.max_plant_temp, tmax, kPlantSlackCelsius));
  result.check("restored_session_repeats_commands",
               pass.repeats > 0 && pass.repeat_mismatch == 0,
               std::to_string(pass.repeat_mismatch) + " of " +
                   std::to_string(pass.repeats) + " repeats differ over the "
                   "first " + std::to_string(kRepeatWindows) + " windows");
  result.check("ten_windows_beyond_p90", beyond_p90 >= 10,
               std::to_string(beyond_p90) + " of " +
                   std::to_string(pass.windows));
  result.info("command_digest",
              util::format("%016llx", static_cast<unsigned long long>(
                                          pass.command_digest)));
  result.detail("mpc_window_ms.p50", 1e3 * median(pass.window_s), "ms");
  result.detail("mpc_window_ms.p90", 1e3 * p90, "ms");
  result.detail("windows", static_cast<double>(pass.windows), "count");
  result.detail("cycles", static_cast<double>(pass.cycles), "count");
  result.detail("mean_freq_mhz",
                1e-6 * pass.served_hz / static_cast<double>(kWindows), "MHz");
  result.detail("freq_share_of_demand", pass.served_hz / pass.required_hz,
                "ratio");
  result.detail("mean_required_mhz",
                1e-6 * pass.required_hz / static_cast<double>(kWindows),
                "MHz");
  result.detail("windows_over_dfs_period",
                static_cast<double>(deadline_misses), "count");
  result.detail("max_plant_temp_c", pass.max_plant_temp, "degC");
  double start_max = -1e300;
  for (const std::size_t node : platform.core_nodes()) {
    start_max = std::max(start_max, fixture->start_temps[node]);
  }
  result.detail("start_temp_c", start_max, "degC");

  if (!options.trace) {
    result.metric("setup_s", median(setup_s), "s");
    result.metric("decision_ms.p50", 1e3 * median(pass.window_s), "ms");
    result.metric("decision_ms.p90", 1e3 * p90, "ms");
    result.metric("steady_step_ns", 1e9 * median(pass.steady_step_s), "ns");
    result.metric("sim_speed_x",
                  static_cast<double>(pass.windows) *
                      fixture->session->sim_config().dfs_period /
                      pass.session_s,
                  "x");
    return result;
  }

  Tracer tracer(true);
  const Pass traced = measure(*fixture, options.seconds, tracer, result);
  if (traced.windows == 0) return result;
  const auto self = tracer.self_by_name();
  const convex::SolverWorkspace::Stats& s = traced.solver;
  const double windows = static_cast<double>(traced.windows);
  const double solves =
      static_cast<double>(std::max<std::size_t>(1, s.solves));
  const double newton =
      static_cast<double>(std::max<std::size_t>(1, s.newton_steps));
  double boundary_s = 0.0;
  for (const double w : traced.window_s) boundary_s += w;
  result.metric("core.window_solve_ms.p50", 1e3 * median(traced.solve_s),
                "ms");
  result.metric("core.window_solve_ms.p90",
                1e3 * quantile(traced.solve_s, 0.9), "ms");
  result.metric("core.infeasible_windows",
                static_cast<double>(traced.infeasible), "count");
  // Boundary step minus the policy's solve clock; that clock does not cover
  // the max-throughput fallback solve of an infeasible window, so this
  // self time includes it (see core.infeasible_windows).
  result.metric("api.window_self_ms",
                1e3 * median(self.at("api.session_step.boundary")), "ms");
  result.metric("api.session_step_ns", 1e9 * median(traced.steady_step_s),
                "ns");
  result.metric("convex.solves_per_window",
                static_cast<double>(s.solves) / windows, "count");
  result.metric("convex.newton_per_solve",
                static_cast<double>(s.newton_steps) / solves, "count");
  // Boundary step time per Newton step: the policy's solve clock misses
  // the max-throughput fallback solve of an infeasible window, the
  // workspace's Newton count does not.
  result.metric("convex.us_per_newton", 1e6 * boundary_s / newton, "us");
  // Base: barrier solves through the workspace (both warm-start slots).
  result.metric("convex.warm_hit_ratio",
                static_cast<double>(s.warm_started) / solves, "ratio");
  result.metric("convex.warm_rejected", static_cast<double>(s.warm_rejected),
                "count");
  result.metric("convex.budget_expired",
                static_cast<double>(s.budget_expired), "count");
  report_layer_probes(platform, mpc_spec().optimizer,
                      *fixture->session->solver_workspace(), options.seed,
                      result);
  report_trace(tracer, pass.wall_s / static_cast<double>(pass.windows),
               traced.wall_s / windows,
               options.work_dir + "/trace-mpc_online.json", result);
  return result;
}

}  // namespace perfbench

// paper_table: the paper's Phase-1 table for niagara8 (tstart 50-100 step
// 5, ftarget 100-1000 MHz step 100: 110 cells, gradient term on), round-
// tripped through the table store, then served in closed loop by pro-temp
// on the paper's mixed trace.
//
// The grid is fixed, so the build is the same work on every seed; the seed
// only generates the closed-loop trace. At least two builds run (the second
// must equal the first bitwise), more while they fit in kBuildShare of the
// run; the closed loop always simulates kClosedLoopSeconds, so its quality
// figures depend on the seed alone.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/protemp.hpp"
#include "common.hpp"
#include "probes.hpp"
#include "store/format.hpp"
#include "store/table_store.hpp"
#include "trace.hpp"
#include "traffic.hpp"
#include "util/strings.hpp"
#include "workload/generator.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace protemp;
namespace fs = std::filesystem;

constexpr int kSetups = 3;
constexpr double kBuildShare = 0.6;
constexpr double kClosedLoopSeconds = 3000.0;  ///< simulated
constexpr int kStoreReps = 5;

bool same_bits(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

bool tables_equal(const core::FrequencyTable& a,
                  const core::FrequencyTable& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols() ||
      a.num_cores() != b.num_cores() ||
      !same_bits(a.tstart_grid().data(), b.tstart_grid().data(), a.rows()) ||
      !same_bits(a.ftarget_grid().data(), b.ftarget_grid().data(),
                 a.cols())) {
    return false;
  }
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      const auto& x = a.cell(r, c);
      const auto& y = b.cell(r, c);
      if (x.has_value() != y.has_value()) return false;
      if (!x) continue;
      if (!same_bits(&x->average_frequency, &y->average_frequency, 1) ||
          !same_bits(&x->total_power, &y->total_power, 1) ||
          x->frequencies.size() != y->frequencies.size() ||
          !same_bits(x->frequencies.data(), y->frequencies.data(),
                     x->frequencies.size())) {
        return false;
      }
    }
  }
  return true;
}

struct Fixture {
  std::unique_ptr<arch::Platform> platform;
  std::unique_ptr<core::ProTempOptimizer> optimizer;
  std::vector<double> tstart;
  std::vector<double> ftarget;
  workload::TaskTrace trace;
  std::shared_ptr<store::TableStore> store;
};

api::StatusOr<Fixture> set_up(std::uint64_t seed, const std::string& dir) {
  api::StatusOr<arch::Platform> platform = api::make_platform("niagara8");
  if (!platform.ok()) return platform.status();
  Fixture fixture;
  fixture.platform =
      std::make_unique<arch::Platform>(std::move(platform).value());
  fixture.optimizer = std::make_unique<core::ProTempOptimizer>(
      *fixture.platform, bench::paper_optimizer_config(/*gradient=*/true));
  fixture.tstart = bench::paper_tstart_grid();
  fixture.ftarget = bench::paper_ftarget_grid();
  fixture.trace = workload::make_mixed_trace(
      kClosedLoopSeconds, seed, fixture.platform->num_cores());
  std::error_code ec;
  fs::remove_all(dir, ec);
  api::StatusOr<std::shared_ptr<store::TableStore>> store =
      store::TableStore::open(dir);
  if (!store.ok()) return store.status();
  fixture.store = std::move(store).value();
  return fixture;
}

struct Pass {
  std::size_t builds = 0;
  std::vector<double> build_s;
  std::vector<double> cell_s;        ///< observer-to-observer interval
  std::vector<double> cell_solve_s;  ///< the assignment's own solve clock
  std::size_t newton = 0;
  convex::SolverWorkspace::Stats solver;  ///< summed over builds
  bool builds_identical = true;
  std::unique_ptr<core::FrequencyTable> table;
  double save_s = 0.0;
  std::vector<double> load_s;
  std::vector<double> view_s;
  bool round_trip_equal = true;
  std::string error;
  double loop_s = 0.0;
  std::optional<sim::SimResult> sim;  ///< unset if the loop did not run
  std::vector<WindowView> windows;  ///< every closed-loop window
};

Pass measure(Fixture& fixture, double seconds, Tracer& tracer) {
  Pass pass;
  const double start = now_s();
  do {
    convex::SolverWorkspace workspace(fixture.optimizer->config().warm_start);
    std::vector<std::pair<double, double>> cells;  // (end, solve seconds)
    const core::FrequencyTable::BuildObserver observer =
        [&](std::size_t, std::size_t, const core::FrequencyAssignment& a) {
          cells.emplace_back(now_s(), a.solve_seconds);
          pass.newton += a.newton_iterations;
        };
    const double t0 = now_s();
    core::FrequencyTable table = core::FrequencyTable::build(
        *fixture.optimizer, fixture.tstart, fixture.ftarget, observer,
        &workspace);
    const double t1 = now_s();

    const std::uint64_t group = pass.builds;
    const std::size_t root =
        tracer.add("core.table_build", group, Tracer::kNoParent, t0, t1);
    double cell_start = t0;
    for (const auto& [end, solve] : cells) {
      pass.cell_s.push_back(end - cell_start);
      pass.cell_solve_s.push_back(solve);
      const std::size_t cell =
          tracer.add("core.table_cell", group, root, cell_start, end);
      // The solver's own clock, placed at the end of the cell.
      tracer.add("convex.cell_solve", group, cell, end - solve, end);
      cell_start = end;
    }
    const convex::SolverWorkspace::Stats& s = workspace.stats();
    pass.solver.solves += s.solves;
    pass.solver.warm_started += s.warm_started;
    pass.solver.warm_rejected += s.warm_rejected;
    pass.solver.newton_steps += s.newton_steps;
    pass.solver.budget_expired += s.budget_expired;
    pass.build_s.push_back(t1 - t0);
    if (pass.table == nullptr) {
      pass.table = std::make_unique<core::FrequencyTable>(std::move(table));
    } else if (!tables_equal(*pass.table, table)) {
      pass.builds_identical = false;
    }
    ++pass.builds;
  } while (pass.builds < 2 ||
           now_s() - start + pass.build_s.back() < kBuildShare * seconds);

  // Store round trip: publish, load back, open the zero-copy view.
  struct Call {
    const char* name;
    double start;
    double end;
  };
  std::vector<Call> store_calls;
  const double rt0 = now_s();
  const std::string key = "perfbench|paper_table|niagara8";
  const api::Status put = fixture.store->put(key, *pass.table);
  const double rt1 = now_s();
  pass.save_s = rt1 - rt0;
  store_calls.push_back({"store.save", rt0, rt1});
  if (!put.ok()) {
    pass.round_trip_equal = false;
    pass.error = put.to_string();
    return pass;
  }
  std::unique_ptr<core::FrequencyTable> served;
  for (int rep = 0; rep < kStoreReps; ++rep) {
    const double t0 = now_s();
    api::StatusOr<core::FrequencyTable> loaded = fixture.store->load(key);
    const double t1 = now_s();
    pass.load_s.push_back(t1 - t0);
    store_calls.push_back({"store.load", t0, t1});
    if (!loaded.ok() || !tables_equal(*pass.table, *loaded)) {
      pass.round_trip_equal = false;
      pass.error = loaded.ok() ? "loaded table differs"
                                     : loaded.status().to_string();
      return pass;
    }
    served = std::make_unique<core::FrequencyTable>(std::move(loaded).value());
  }
  const std::vector<store::TableStore::EntryInfo> entries =
      fixture.store->list();
  const std::string artifact =
      entries.empty() ? std::string() : fixture.store->root() + "/" +
                                            entries.front().file;
  for (int rep = 0; rep < kStoreReps; ++rep) {
    const double t0 = now_s();
    api::StatusOr<store::TableView> view = store::TableView::open(artifact);
    const double t1 = now_s();
    pass.view_s.push_back(t1 - t0);
    store_calls.push_back({"store.view_open", t0, t1});
    if (!view.ok() || !tables_equal(*pass.table, view->materialize())) {
      pass.round_trip_equal = false;
      pass.error = view.ok() ? "mapped table differs"
                                   : view.status().to_string();
      return pass;
    }
  }
  const std::uint64_t store_group = 1'000'000;
  const std::size_t store_root = tracer.add(
      "store.round_trip", store_group, Tracer::kNoParent, rt0, now_s());
  for (const Call& call : store_calls) {
    tracer.add(call.name, store_group, store_root, call.start, call.end);
  }

  // Closed loop served from the loaded table.
  core::ProTempPolicy pro_temp(*served);
  RecordingPolicy recording(pro_temp);
  api::StatusOr<std::unique_ptr<sim::AssignmentPolicy>> assignment =
      api::make_assignment_policy("first-idle");
  if (!assignment.ok()) {
    pass.error = assignment.status().to_string();
    return pass;
  }
  sim::MulticoreSimulator simulator(*fixture.platform,
                                    bench::paper_sim_config());
  const double l0 = now_s();
  pass.sim = simulator.run(fixture.trace, recording, **assignment,
                           kClosedLoopSeconds);
  const double l1 = now_s();
  pass.loop_s = l1 - l0;
  tracer.add("sim.closed_loop", 2'000'000, Tracer::kNoParent, l0, l1);
  pass.windows = recording.views();
  return pass;
}

}  // namespace

Result run_paper_table(const RunOptions& options) {
  Result result;
  const std::string store_dir = options.work_dir + "/paper_table_store";
  std::vector<double> setup_s;
  api::StatusOr<Fixture> fixture = api::Status::internal("not set up");
  for (int rep = 0; rep < kSetups; ++rep) {
    fixture = api::Status::internal("not set up");
    const double t0 = now_s();
    fixture = set_up(options.seed, store_dir);
    setup_s.push_back(now_s() - t0);
    result.op(fixture.ok());
    if (!fixture.ok()) {
      result.fail("set-up: " + fixture.status().to_string());
      return result;
    }
  }
  std::uint64_t trace_digest = util::fnv1a64("");
  for (const workload::Task& task : fixture->trace.tasks()) {
    trace_digest = util::fnv1a64(&task.arrival_time, sizeof(double),
                                 trace_digest);
    trace_digest = util::fnv1a64(&task.work, sizeof(double), trace_digest);
  }
  result.info("input_digest",
              util::format("%016llx",
                           static_cast<unsigned long long>(trace_digest)));

  Tracer untraced(false);
  const Pass pass = measure(*fixture, options.seconds, untraced);
  result.ops(pass.cell_s.size(), 0);
  if (pass.table == nullptr) return result;
  result.check("table_builds_identical", pass.builds_identical,
               std::to_string(pass.builds) + " builds");
  result.check("table_has_feasible_cells", pass.table->feasible_cells() > 0,
               std::to_string(pass.table->feasible_cells()) + " of " +
                   std::to_string(pass.table->rows() * pass.table->cols()));
  result.check("store_round_trip_bitwise", pass.round_trip_equal,
               pass.error.empty() ? "load and mmap view equal the build"
                                        : pass.error);
  if (!pass.round_trip_equal) return result;
  if (!pass.sim) {
    result.check("closed_loop_runs", false, pass.error);
    return result;
  }
  const double tmax = bench::paper_sim_config().tmax;
  const double violation = pass.sim->metrics.violation_fraction();
  const double max_temp = pass.sim->metrics.max_temp_seen();
  result.check("violation_fraction_zero", violation == 0.0,
               util::format("%.6g", violation));
  result.check("max_temp_within_tmax", max_temp <= tmax,
               util::format("max %.4f degC vs tmax %.1f", max_temp, tmax));
  result.check("closed_loop_completes_tasks",
               pass.sim->tasks_completed > 0,
               std::to_string(pass.sim->tasks_completed) + " tasks");

  const double dt = bench::paper_sim_config().dt;
  const double sim_steps = pass.sim->sim_time / dt;
  result.detail("table_build_s", median(pass.build_s), "s");
  result.detail("builds", static_cast<double>(pass.builds), "count");
  result.detail("violation_fraction", violation, "ratio");
  result.detail("max_temp_c", max_temp, "degC");
  result.detail("simulated_s", pass.sim->sim_time, "s");
  result.detail("mean_freq_mhz", 1e-6 * pass.sim->mean_frequency, "MHz");
  double served_hz = 0.0;
  double required_hz = 0.0;
  for (const WindowView& w : pass.windows) {
    served_hz += w.served;
    required_hz += w.required;
  }
  result.detail("freq_share_of_demand", served_hz / required_hz, "ratio");

  if (!options.trace) {
    result.metric("setup_s", median(setup_s), "s");
    result.metric("decision_ms.p50", 1e3 * median(pass.cell_s), "ms");
    result.metric("decision_ms.p90", 1e3 * quantile(pass.cell_s, 0.9), "ms");
    result.metric("steady_step_ns", 1e9 * pass.loop_s / sim_steps, "ns");
    result.metric("sim_speed_x", pass.sim->sim_time / pass.loop_s, "x");
    return result;
  }

  Tracer tracer(true);
  const Pass traced = measure(*fixture, options.seconds, tracer);
  if (traced.table == nullptr || !traced.round_trip_equal || !traced.sim) {
    result.check("traced_pass_completes", false, traced.error);
    return result;
  }
  const convex::SolverWorkspace::Stats& s = traced.solver;
  const double cells = static_cast<double>(traced.cell_s.size());
  double solve_total = 0.0;
  for (const double v : traced.cell_solve_s) solve_total += v;
  result.metric("core.table_cell_ms.p50", 1e3 * median(traced.cell_solve_s),
                "ms");
  result.metric("core.table_cell_ms.p90",
                1e3 * quantile(traced.cell_solve_s, 0.9), "ms");
  // Cell time outside the solver's own clock: right-hand side assembly,
  // warm-start seeding and table bookkeeping.
  result.metric("core.table_cell_self_us",
                1e6 * median(tracer.self_by_name().at("core.table_cell")),
                "us");
  result.metric("core.table_feasible_cells",
                static_cast<double>(traced.table->feasible_cells()), "count");
  result.metric("convex.newton_per_cell",
                static_cast<double>(traced.newton) / cells, "count");
  const auto newton = std::max<std::size_t>(1, traced.newton);
  result.metric("convex.us_per_newton",
                1e6 * solve_total / static_cast<double>(newton), "us");
  // Base: barrier solves through the builds' workspaces.
  result.metric("convex.warm_hit_ratio",
                static_cast<double>(s.warm_started) /
                    static_cast<double>(std::max<std::size_t>(1, s.solves)),
                "ratio");
  result.metric("convex.warm_rejected", static_cast<double>(s.warm_rejected),
                "count");
  result.metric("convex.budget_expired",
                static_cast<double>(s.budget_expired), "count");
  result.metric("store.save_ms", 1e3 * traced.save_s, "ms");
  result.metric("store.load_us", 1e6 * median(traced.load_s), "us");
  result.metric("store.view_open_us", 1e6 * median(traced.view_s), "us");
  result.metric("sim.ns_per_sim_step", 1e9 * traced.loop_s / sim_steps, "ns");

  const core::FrequencyTable& table = *traced.table;
  std::size_t served_rows = 0;
  const double query_s = seconds_per_call([&] {
    for (const WindowView& w : traced.windows) {
      served_rows += table.query(w.max_sensor_temp, w.required).row;
    }
  });
  result.op(served_rows > 0);
  result.metric("core.table_query_ns",
                1e9 * query_s / static_cast<double>(traced.windows.size()),
                "ns");
  report_layer_probes(*fixture->platform, fixture->optimizer->config(),
                      live_solve_workspace(*fixture->optimizer), options.seed,
                      result);
  report_trace(tracer, median(pass.build_s), median(traced.build_s),
               options.work_dir + "/trace-paper_table.json", result);
  return result;
}

}  // namespace perfbench

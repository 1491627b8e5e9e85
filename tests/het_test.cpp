// Heterogeneous-platform suite: the het:/stack: families, per-core
// frequency bounds, per-node thermal ceilings, the new spec keys, and —
// load-bearing for every pre-existing golden — the parity property that a
// pure `het:` wrapper (no class groups) reproduces its base platform
// bitwise through a full scenario run, warm- and cold-started.
#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/protemp.hpp"
#include "arch/het.hpp"
#include "arch/stack.hpp"
#include "core/optimizer.hpp"
#include "store/interpolated_policy.hpp"
#include "thermal/model.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace protemp {
namespace {

using linalg::Vector;
using util::mhz;

// ------------------------------------------------------------- platforms --

TEST(HetPlatform, PureWrapperStaysHomogeneous) {
  const api::StatusOr<arch::Platform> base = api::make_platform("niagara8");
  const api::StatusOr<arch::Platform> wrapped =
      api::make_platform("het:niagara8");
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(wrapped.ok()) << wrapped.status().to_string();
  EXPECT_FALSE(wrapped->heterogeneous());
  EXPECT_EQ(wrapped->num_cores(), base->num_cores());
  EXPECT_EQ(wrapped->fmax(), base->fmax());
  EXPECT_EQ(wrapped->core_pmax(), base->core_pmax());
  EXPECT_EQ(wrapped->total_core_pmax(), base->total_core_pmax());
}

TEST(HetPlatform, SingleIdenticalClassCollapses) {
  // One group restating the base physics collapses back to the homogeneous
  // representation — the fast paths (and their bitwise results) survive.
  const api::StatusOr<arch::Platform> platform =
      api::make_platform("het:niagara8@8xbig");
  ASSERT_TRUE(platform.ok()) << platform.status().to_string();
  EXPECT_FALSE(platform->heterogeneous());
  EXPECT_TRUE(platform->core_classes().empty());
}

TEST(HetPlatform, TwoClassesAreHeterogeneousEvenWhenIdentical) {
  // Distinct classes are a distinct *identity* even with equal physics:
  // the per-class table axes and store keys must never alias.
  const api::StatusOr<arch::Platform> platform =
      api::make_platform("het:niagara8@4xbig+4xlittle");
  ASSERT_TRUE(platform.ok()) << platform.status().to_string();
  EXPECT_TRUE(platform->heterogeneous());
  EXPECT_EQ(platform->num_core_classes(), 2u);
  const api::StatusOr<arch::Platform> base = api::make_platform("niagara8");
  ASSERT_TRUE(base.ok());
  for (std::size_t c = 0; c < 8; ++c) {
    EXPECT_EQ(platform->core_fmax(c), base->fmax()) << "core " << c;
    EXPECT_EQ(platform->core_pmax_of(c), base->core_pmax()) << "core " << c;
  }
}

TEST(HetPlatform, ClassGroupsGivePerCoreBounds) {
  api::Options options;
  options.set("little-fmax-scale", 0.5);
  options.set("little-pmax-scale", 0.4);
  options.set("little-leakage-scale", 0.7);
  options.set("little-tmax", 95.0);
  const api::StatusOr<arch::Platform> platform =
      api::make_platform("het:niagara8@4xbig+4xlittle", options);
  ASSERT_TRUE(platform.ok()) << platform.status().to_string();
  EXPECT_TRUE(platform->heterogeneous());

  const api::StatusOr<arch::Platform> base = api::make_platform("niagara8");
  ASSERT_TRUE(base.ok());
  // Cores fill group-major: 4 big (base physics) then 4 little (scaled).
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(platform->core_fmax(c), base->fmax()) << "core " << c;
    EXPECT_EQ(platform->core_pmax_of(c), base->core_pmax()) << "core " << c;
    EXPECT_EQ(platform->leakage_scale_of(c), 1.0) << "core " << c;
    EXPECT_FALSE(platform->core_tmax(c).has_value()) << "core " << c;
  }
  for (std::size_t c = 4; c < 8; ++c) {
    EXPECT_EQ(platform->core_fmax(c), 0.5 * base->fmax()) << "core " << c;
    EXPECT_EQ(platform->core_pmax_of(c), 0.4 * base->core_pmax())
        << "core " << c;
    EXPECT_EQ(platform->leakage_scale_of(c), 0.7) << "core " << c;
    ASSERT_TRUE(platform->core_tmax(c).has_value()) << "core " << c;
    EXPECT_EQ(*platform->core_tmax(c), 95.0) << "core " << c;
  }
  // Reference fmax is the fastest class; total pmax sums the classes.
  EXPECT_EQ(platform->fmax(), base->fmax());
  // total_core_pmax sums per-core (sequential order); compare to 4 ULPs.
  EXPECT_DOUBLE_EQ(platform->total_core_pmax(),
                   4.0 * base->core_pmax() + 4.0 * 0.4 * base->core_pmax());
}

TEST(HetPlatform, MalformedSpecsRejected) {
  for (const char* name :
       {"het:", "het:het:niagara8", "het:niagara8@", "het:niagara8@0xbig",
        "het:niagara8@4xbig+4xbig", "het:niagara8@4xbig+4xlittle+",
        "het:niagara8@axbig"}) {
    const api::StatusOr<arch::Platform> platform = api::make_platform(name);
    EXPECT_FALSE(platform.ok()) << name;
  }
  // Counts must cover the base's cores exactly.
  const api::StatusOr<arch::Platform> short_count =
      api::make_platform("het:niagara8@4xbig");
  ASSERT_FALSE(short_count.ok());
  EXPECT_NE(short_count.status().message().find("8 cores"), std::string::npos)
      << short_count.status().to_string();
}

TEST(StackPlatform, DramStripsRegisterCeilings) {
  const api::StatusOr<arch::Platform> stack =
      api::make_platform("stack:2x2+2dram");
  ASSERT_TRUE(stack.ok()) << stack.status().to_string();
  EXPECT_EQ(stack->num_cores(), 4u);
  ASSERT_EQ(stack->thermal_ceilings().size(), 2u);
  EXPECT_EQ(stack->thermal_ceilings()[0].name, "dram0");
  EXPECT_EQ(stack->thermal_ceilings()[0].tmax_celsius, 85.0);
  EXPECT_EQ(stack->thermal_ceilings()[1].name, "dram1");
  // The ceiling nodes are real floorplan blocks, not core blocks.
  for (const arch::ThermalCeiling& ceiling : stack->thermal_ceilings()) {
    for (const std::size_t core_node : stack->core_nodes()) {
      EXPECT_NE(ceiling.node, core_node);
    }
  }
  // Implicit single layer: "stack:2x2" == one DRAM strip.
  const api::StatusOr<arch::Platform> implicit =
      api::make_platform("stack:2x2");
  ASSERT_TRUE(implicit.ok());
  EXPECT_EQ(implicit->thermal_ceilings().size(), 1u);
}

// ----------------------------------------------- per-node ceiling property --

/// Rolls the discrete thermal model over one DFS window from a uniform
/// start and returns the max temperature seen at `node`.
double window_max_at_node(const arch::Platform& platform,
                          const core::ProTempConfig& config, double tstart,
                          const Vector& frequencies, std::size_t node) {
  const thermal::ThermalModel model(platform.network(), config.dt);
  const bool het = platform.heterogeneous();
  Vector core_watts(platform.num_cores());
  double used = 0.0;
  for (std::size_t c = 0; c < platform.num_cores(); ++c) {
    const power::DvfsPowerModel& pm =
        het ? platform.core_power_of(c) : platform.core_power();
    core_watts[c] = pm.dynamic_power(frequencies[c]);
    used += core_watts[c];
  }
  const double activity = used / platform.total_core_pmax();
  const Vector full = platform.full_power(core_watts, activity);
  Vector t(platform.num_nodes(), tstart);
  double hottest = -1e300;
  const auto steps =
      static_cast<std::size_t>(std::llround(config.dfs_period / config.dt));
  for (std::size_t k = 0; k < steps; ++k) {
    t = model.step(t, full);
    hottest = std::max(hottest, t[node]);
  }
  return hottest;
}

TEST(Ceilings, DramNodeNeverExceedsItsOwnTmax) {
  // The DRAM ceiling (85 degC) binds well below the logic tmax (100 degC
  // here): every feasible assignment must respect it at every step, even
  // when the cores still have thermal headroom.
  const api::StatusOr<arch::Platform> stack = api::make_platform("stack:2x2");
  ASSERT_TRUE(stack.ok());
  core::ProTempConfig config;
  config.tmax = 100.0;
  config.dt = 4e-3;
  config.dfs_period = 0.1;
  const core::ProTempOptimizer opt(*stack, config);
  const std::size_t dram_node = stack->thermal_ceilings()[0].node;
  const double dram_tmax = stack->thermal_ceilings()[0].tmax_celsius;
  bool any_feasible = false;
  for (const double tstart : {50.0, 70.0, 80.0}) {
    for (const double target : {mhz(200.0), mhz(500.0), mhz(800.0)}) {
      const core::FrequencyAssignment result = opt.solve(tstart, target);
      if (!result.feasible) continue;
      any_feasible = true;
      const double hottest = window_max_at_node(*stack, config, tstart,
                                                result.frequencies, dram_node);
      EXPECT_LE(hottest, dram_tmax + 1e-4)
          << "tstart=" << tstart << " target=" << util::to_mhz(target);
    }
  }
  EXPECT_TRUE(any_feasible);
}

TEST(Ceilings, ConfigNodeCeilingTightensTheSolve) {
  // An opt.node_tmax ceiling on the crossbar must reduce (or at best keep)
  // the supportable throughput, and an unknown block name must be a named
  // construction error.
  const api::StatusOr<arch::Platform> platform = api::make_platform("niagara8");
  ASSERT_TRUE(platform.ok());
  core::ProTempConfig config;
  config.dt = 4e-3;
  config.dfs_period = 0.1;
  const core::ProTempOptimizer unconstrained(*platform, config);

  core::ProTempConfig tight = config;
  tight.node_ceilings = {{"xbar", 70.0}};
  const core::ProTempOptimizer constrained(*platform, tight);
  const auto base_best = unconstrained.max_supported_frequency(60.0);
  const auto tight_best = constrained.max_supported_frequency(60.0);
  ASSERT_TRUE(base_best.has_value());
  if (tight_best) {
    EXPECT_LE(tight_best->average_frequency,
              base_best->average_frequency + mhz(1.0));
  }

  core::ProTempConfig bad = config;
  bad.node_ceilings = {{"no-such-block", 80.0}};
  EXPECT_THROW(core::ProTempOptimizer(*platform, bad), std::invalid_argument);
}

TEST(Ceilings, UniformFrequencyRejectedOnHetPlatform) {
  api::Options options;
  options.set("little-fmax-scale", 0.5);
  const api::StatusOr<arch::Platform> platform =
      api::make_platform("het:niagara8@4xbig+4xlittle", options);
  ASSERT_TRUE(platform.ok());
  core::ProTempConfig config;
  config.uniform_frequency = true;
  EXPECT_THROW(core::ProTempOptimizer(*platform, config),
               std::invalid_argument);
}

TEST(HetOptimizer, PerCoreFrequencyBoundsHold) {
  api::Options options;
  options.set("little-fmax-scale", 0.5);
  options.set("little-pmax-scale", 0.5);
  const api::StatusOr<arch::Platform> platform =
      api::make_platform("het:niagara8@4xbig+4xlittle", options);
  ASSERT_TRUE(platform.ok());
  core::ProTempConfig config;
  config.dt = 4e-3;
  config.dfs_period = 0.1;
  const core::ProTempOptimizer opt(*platform, config);
  const core::FrequencyAssignment result = opt.solve(50.0, mhz(600.0));
  ASSERT_TRUE(result.feasible);
  for (std::size_t c = 0; c < 8; ++c) {
    EXPECT_LE(result.frequencies[c], platform->core_fmax(c) * (1.0 + 1e-9))
        << "core " << c;
    EXPECT_GE(result.frequencies[c], 0.0);
  }
}

// ------------------------------------------------------------ spec keys --

TEST(SpecKeys, NodeTmaxAndStrideRoundTrip) {
  const char* text =
      "name = het-spec\n"
      "platform = stack:2x2\n"
      "workload = mixed\n"
      "duration = 1\n"
      "dfs = pro-temp-online\n"
      "opt.node_tmax = dram0:82.5,xbar:90\n"
      "opt.table_interp_stride = 2\n"
      "sim.frequency_quantum = 50e6\n";
  const api::StatusOr<api::ScenarioSpec> spec = api::ScenarioSpec::parse(text);
  ASSERT_TRUE(spec.ok()) << spec.status().to_string();
  ASSERT_EQ(spec->optimizer.node_ceilings.size(), 2u);
  EXPECT_EQ(spec->optimizer.node_ceilings[0].first, "dram0");
  EXPECT_EQ(spec->optimizer.node_ceilings[0].second, 82.5);
  EXPECT_EQ(spec->optimizer.node_ceilings[1].first, "xbar");
  EXPECT_EQ(spec->optimizer.table_interp_stride, 2u);

  const std::string serialized = spec->serialize();
  const api::StatusOr<api::ScenarioSpec> reparsed =
      api::ScenarioSpec::parse(serialized);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().to_string();
  EXPECT_EQ(reparsed->optimizer.node_ceilings, spec->optimizer.node_ceilings);
  EXPECT_EQ(reparsed->optimizer.table_interp_stride, 2u);
  EXPECT_EQ(reparsed->serialize(), serialized);
}

TEST(SpecKeys, DefaultsSerializeWithoutNewKeys) {
  // A spec that never mentions the het keys must serialize without them —
  // pre-existing scenario files stay byte-stable.
  api::ScenarioSpec spec;
  spec.name = "plain";
  const std::string serialized = spec.serialize();
  EXPECT_EQ(serialized.find("opt.node_tmax"), std::string::npos);
  EXPECT_EQ(serialized.find("opt.table_interp_stride"), std::string::npos);
}

TEST(SpecKeys, MalformedValuesAreLineAnchoredErrors) {
  const struct {
    const char* line;
    const char* needle;
  } cases[] = {
      {"opt.node_tmax = dram0\n", "block:celsius"},
      {"opt.node_tmax = :85\n", "block:celsius"},
      {"opt.node_tmax = dram0:\n", "block:celsius"},
      {"opt.node_tmax = dram0:hot\n", "expected a number"},
      {"opt.node_tmax = dram0:-5\n", "finite and positive"},
      {"opt.table_interp_stride = 0\n", "must be >= 1"},
      {"opt.table_interp_stride = -2\n", "non-negative integer"},
  };
  for (const auto& c : cases) {
    const std::string text = std::string("name = x\n") + c.line;
    const api::StatusOr<api::ScenarioSpec> spec =
        api::ScenarioSpec::parse(text);
    ASSERT_FALSE(spec.ok()) << c.line;
    EXPECT_NE(spec.status().message().find(c.needle), std::string::npos)
        << c.line << " -> " << spec.status().to_string();
  }
}

// -------------------------------------------------------- identity keys --

TEST(IdentityKey, HetAndCeilingsNeverAliasHomogeneous) {
  const api::StatusOr<arch::Platform> homog = api::make_platform("niagara8");
  api::Options het_options;
  het_options.set("little-fmax-scale", 0.5);
  const api::StatusOr<arch::Platform> het =
      api::make_platform("het:niagara8@4xbig+4xlittle", het_options);
  ASSERT_TRUE(homog.ok());
  ASSERT_TRUE(het.ok());

  api::PolicyContext context;
  context.platform = &homog.value();
  context.platform_key = "same-key";  // adversarial: identical platform_key
  const api::StatusOr<api::TableGridSpec> grid =
      api::table_grid_from_options({}, context);
  ASSERT_TRUE(grid.ok()) << grid.status().to_string();
  const std::string homog_key = api::table_identity_key(context, *grid);

  api::PolicyContext het_context = context;
  het_context.platform = &het.value();
  const std::string het_key = api::table_identity_key(het_context, *grid);
  EXPECT_NE(homog_key, het_key);
  EXPECT_NE(het_key.find("|het"), std::string::npos);
  EXPECT_EQ(homog_key.find("|het"), std::string::npos);

  api::PolicyContext ceil_context = context;
  ceil_context.optimizer.node_ceilings = {{"xbar", 80.0}};
  const std::string ceil_key = api::table_identity_key(ceil_context, *grid);
  EXPECT_NE(ceil_key, homog_key);
  EXPECT_NE(ceil_key.find("|ctmax=xbar"), std::string::npos);

  // The decimation stride is serving-side only: same fine-table identity.
  api::PolicyContext stride_context = context;
  stride_context.optimizer.table_interp_stride = 3;
  EXPECT_EQ(api::table_identity_key(stride_context, *grid), homog_key);

  // Solver budgets change which cells converge, so each keys its own
  // table; the default solver adds no segment at all.
  EXPECT_EQ(homog_key.find("|solver"), std::string::npos);
  api::PolicyContext per_stage = context;
  per_stage.optimizer.solver.max_newton_per_stage = 3;
  api::PolicyContext total = context;
  total.optimizer.solver.max_newton_total = 3;
  api::PolicyContext deadline = context;
  deadline.optimizer.solver.solve_deadline_seconds = 0.01;
  std::set<std::string> keys = {homog_key};
  for (const api::PolicyContext* budget : {&per_stage, &total, &deadline}) {
    const std::string key = api::table_identity_key(*budget, *grid);
    EXPECT_NE(key.find("|solver="), std::string::npos);
    EXPECT_TRUE(keys.insert(key).second) << key;
  }
}

// ------------------------------------------------- interpolated serving --

TEST(InterpolatedServing, StrideBuildsCertifiedPolicy) {
  const api::StatusOr<arch::Platform> platform = api::make_platform("niagara8");
  ASSERT_TRUE(platform.ok());
  api::PolicyContext context;
  context.platform = &platform.value();
  context.optimizer.dt = 0.8e-3;
  context.optimizer.gradient_step_stride = 20;
  context.optimizer.table_interp_stride = 2;
  context.frequency_quantum = mhz(100.0);
  // A benign grid region (tstart far below tmax) where the per-core optima
  // move near-linearly with ftarget, so the decimation certifies easily.
  api::Options grid;
  grid.set("tstart-min", 50.0);
  grid.set("tstart-max", 70.0);
  grid.set("tstart-step", 5.0);
  grid.set("ftarget-min-mhz", 400.0);
  grid.set("ftarget-max-mhz", 1000.0);
  grid.set("ftarget-step-mhz", 150.0);
  const api::StatusOr<std::unique_ptr<sim::DfsPolicy>> policy =
      api::make_dfs_policy("pro-temp", context, grid);
  ASSERT_TRUE(policy.ok()) << policy.status().to_string();
  EXPECT_EQ((*policy)->name(), "pro-temp-interp");
  const auto* interp =
      dynamic_cast<const store::InterpolatedProTempPolicy*>(policy->get());
  ASSERT_NE(interp, nullptr);
  EXPECT_LE(interp->table().certified_error_hz(), mhz(100.0));
}

TEST(InterpolatedServing, StrideWithoutQuantumIsNamedError) {
  const api::StatusOr<arch::Platform> platform = api::make_platform("niagara8");
  ASSERT_TRUE(platform.ok());
  api::PolicyContext context;
  context.platform = &platform.value();
  context.optimizer.table_interp_stride = 2;
  const api::StatusOr<std::unique_ptr<sim::DfsPolicy>> policy =
      api::make_dfs_policy("pro-temp", context);
  ASSERT_FALSE(policy.ok());
  EXPECT_NE(policy.status().message().find("sim.frequency_quantum"),
            std::string::npos)
      << policy.status().to_string();
}

// ------------------------------------------------------- bitwise parity --

std::map<std::string, double> run_metrics(const api::ScenarioSpec& spec,
                                          std::size_t cores) {
  api::ScenarioRunner runner;
  const api::StatusOr<api::ScenarioReport> report = runner.run(spec);
  EXPECT_TRUE(report.ok()) << spec.name << ": "
                           << report.status().to_string();
  std::map<std::string, double> out;
  if (!report.ok()) return out;
  const sim::SimResult& r = report->result;
  out["peak_temp"] = r.metrics.max_temp_seen();
  for (std::size_t c = 0; c < cores; ++c) {
    out["core" + std::to_string(c) + "_peak"] = r.metrics.max_temp_seen(c);
  }
  out["mean_frequency"] = r.mean_frequency;
  out["tasks_admitted"] = static_cast<double>(r.tasks_admitted);
  out["tasks_completed"] = static_cast<double>(r.tasks_completed);
  out["violation_fraction"] = r.metrics.violation_fraction();
  out["energy"] = r.metrics.total_energy_joules();
  return out;
}

TEST(HetParity, PureWrapperScenariosAreBitwiseEqual) {
  // The canonical golden shapes, shortened: same policies, workloads and
  // solver configurations as tests/golden — run against the base platform
  // and its pure `het:` wrapper, warm- and cold-started. Every metric must
  // agree to the last bit: the wrapper IS the base platform.
  struct Shape {
    const char* dfs;
    const char* workload;
    const char* platform;
    std::size_t cores;
    bool uniform;
    bool coarse;
  };
  const Shape shapes[] = {
      {"basic-dfs", "mixed", "niagara8", 8, false, false},
      {"no-tc", "compute", "niagara8", 8, false, false},
      {"pro-temp", "mixed", "niagara8", 8, false, true},
      {"pro-temp", "web", "niagara8", 8, true, true},
      {"pro-temp-online", "high-load", "niagara8", 8, false, false},
      {"pro-temp-online", "mixed", "mesh:2x2", 4, false, false},
  };
  for (const Shape& shape : shapes) {
    for (const bool warm : {true, false}) {
      api::ScenarioSpec spec;
      spec.name = std::string("parity-") + shape.dfs + "-" + shape.workload;
      spec.duration = 0.4;
      spec.seed = 2008;
      spec.dfs_policy = shape.dfs;
      spec.workload = shape.workload;
      spec.platform = shape.platform;
      spec.optimizer.uniform_frequency = shape.uniform;
      spec.optimizer.warm_start = warm;
      spec.optimizer.dt = 0.8e-3;
      spec.optimizer.gradient_step_stride = 20;
      if (shape.coarse) {
        spec.dfs_options.set("tstart-step", 25.0);
        spec.dfs_options.set("ftarget-min-mhz", 400.0);
        spec.dfs_options.set("ftarget-step-mhz", 300.0);
      }
      const std::map<std::string, double> base = run_metrics(spec, shape.cores);

      api::ScenarioSpec wrapped = spec;
      wrapped.platform = std::string("het:") + shape.platform;
      const std::map<std::string, double> het =
          run_metrics(wrapped, shape.cores);

      ASSERT_EQ(base.size(), het.size()) << spec.name;
      for (const auto& [key, value] : base) {
        const auto it = het.find(key);
        ASSERT_NE(it, het.end()) << spec.name << " " << key;
        EXPECT_EQ(value, it->second)
            << spec.name << (warm ? " warm " : " cold ") << key;
      }
    }
  }
}

}  // namespace
}  // namespace protemp

// Async serving-layer suite: TableCache::get_async on a util::ThreadPool,
// AsyncTablePolicy fallback/hot-swap mechanics, and SessionFleet batching
// with per-session failure isolation.
//
//   * determinism — the fallback window count under an arbitrarily slow
//     (test-controlled) builder is exact, and the hot-swap happens at a
//     window boundary, never mid-window;
//   * equivalence — a table acquired asynchronously is bitwise-identical
//     to the same configuration built synchronously;
//   * isolation — a builder exception fails its own session's window
//     steps and nothing else;
//   * concurrency — sessions step while builders run on pool workers;
//     the TSan CI job runs this suite to guard the cache/pool/session
//     interaction.
#include <future>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/protemp.hpp"
#include "core/policies.hpp"

namespace protemp {
namespace {

using api::ActuationCommand;
using api::AsyncTablePolicy;
using api::ControlSession;
using api::FleetConfig;
using api::Options;
using api::ScenarioSpec;
using api::SessionConfig;
using api::SessionFleet;
using api::StatusOr;
using api::TableBuildInfo;
using api::TableCache;

// ---------------------------------------------------------------- helpers --

/// One-cell Phase-1 grid so real builds stay fast under test (and TSan).
Options tiny_grid_options() {
  Options options;
  options.set("tstart-min", 80.0).set("tstart-max", 80.0);
  options.set("ftarget-min-mhz", 200.0).set("ftarget-max-mhz", 200.0);
  return options;
}

ScenarioSpec fast_protemp_spec(const std::string& name) {
  ScenarioSpec spec;
  spec.name = name;
  spec.dfs_policy = "pro-temp";
  spec.dfs_options = tiny_grid_options();
  spec.optimizer.minimize_gradient = false;
  // 5 telemetry steps per DFS window keeps boundary arithmetic readable.
  spec.sim.dt = 0.01;
  spec.sim.dfs_period = 0.05;
  return spec;
}

sim::TelemetryFrame frame_at(std::size_t step, double dt, std::size_t cores,
                             double temp) {
  sim::TelemetryFrame frame;
  frame.time = static_cast<double>(step) * dt;
  frame.core_temps = linalg::Vector(cores, temp);
  return frame;
}

/// A small real table for promise-controlled tests.
core::FrequencyTable build_tiny_table(const arch::Platform& platform) {
  core::ProTempConfig config;
  config.minimize_gradient = false;
  const core::ProTempOptimizer optimizer(platform, config);
  return core::FrequencyTable::build(optimizer, {80.0}, {2e8});
}

std::string serialized(const core::FrequencyTable& table) {
  std::ostringstream out;
  table.save(out);
  return out.str();
}

/// Session whose table future the test fulfills (or poisons) by hand.
struct ManualAsyncSession {
  std::promise<std::shared_ptr<const core::FrequencyTable>> promise;
  std::unique_ptr<ControlSession> session;
  AsyncTablePolicy* policy = nullptr;
};

ManualAsyncSession make_manual_session(
    double trip = 90.0, std::shared_ptr<const TableBuildInfo> info = nullptr,
    const SessionConfig& config = {}) {
  ManualAsyncSession out;
  StatusOr<arch::Platform> platform = api::make_platform("niagara8");
  EXPECT_TRUE(platform.ok());
  auto policy = std::make_unique<AsyncTablePolicy>(
      out.promise.get_future().share(), trip, std::move(info));
  out.policy = policy.get();
  StatusOr<std::unique_ptr<sim::AssignmentPolicy>> assignment =
      api::make_assignment_policy("first-idle");
  EXPECT_TRUE(assignment.ok());
  sim::SimConfig sim_config;
  sim_config.dt = 0.01;
  sim_config.dfs_period = 0.05;
  StatusOr<std::unique_ptr<ControlSession>> session =
      ControlSession::create(std::move(platform).value(), std::move(policy),
                             std::move(assignment).value(), sim_config,
                             config);
  EXPECT_TRUE(session.ok()) << session.status().to_string();
  out.session = std::move(session).value();
  return out;
}

// ----------------------------------------------------- TableCache::get_async

TEST(TableCacheAsync, DispatchesOnceAndShares) {
  const StatusOr<arch::Platform> platform = api::make_platform("niagara8");
  ASSERT_TRUE(platform.ok());
  TableCache cache;
  util::ThreadPool pool(2);

  const auto builder = [&]() { return build_tiny_table(*platform); };
  bool first_dispatched = false;
  bool second_dispatched = false;
  TableCache::Future a =
      cache.get_async("k", builder, pool, &first_dispatched);
  TableCache::Future b =
      cache.get_async("k", builder, pool, &second_dispatched);
  EXPECT_TRUE(first_dispatched);
  EXPECT_FALSE(second_dispatched);

  pool.wait_idle();
  ASSERT_TRUE(TableCache::ready(a));
  EXPECT_EQ(a.get(), b.get());  // one build, one shared table
  EXPECT_EQ(cache.builds_completed(), 1u);

  // The sync path must now hit, not rebuild.
  const auto from_sync = cache.get_or_build("k", [&]() -> core::FrequencyTable {
    throw std::logic_error("must not rebuild a cached key");
  });
  EXPECT_EQ(from_sync, a.get());
}

TEST(TableCacheAsync, FailedBuildPropagatesAndIsRetryable) {
  const StatusOr<arch::Platform> platform = api::make_platform("niagara8");
  ASSERT_TRUE(platform.ok());
  TableCache cache;
  util::ThreadPool pool(1);

  TableCache::Future poisoned = cache.get_async(
      "k",
      []() -> core::FrequencyTable {
        throw std::runtime_error("synthetic build failure");
      },
      pool);
  pool.wait_idle();
  ASSERT_TRUE(TableCache::ready(poisoned));
  EXPECT_THROW(poisoned.get(), std::runtime_error);
  EXPECT_EQ(cache.builds_completed(), 0u);

  // The key must be retryable: the failed entry was dropped.
  bool dispatched = false;
  TableCache::Future retry = cache.get_async(
      "k", [&]() { return build_tiny_table(*platform); }, pool, &dispatched);
  EXPECT_TRUE(dispatched);
  pool.wait_idle();
  EXPECT_NO_THROW(retry.get());
  EXPECT_EQ(cache.builds_completed(), 1u);
}

// ------------------------------------------------------- fallback serving --

TEST(AsyncTablePolicy, FallbackWindowCountIsDeterministic) {
  // Observer wiring: the deferred on_table_build must fire exactly once,
  // at the swap, on the stepping thread.
  struct BuildObserver final : api::SessionObserver {
    std::vector<TableBuildInfo> builds;
    void on_table_build(const TableBuildInfo& info) override {
      builds.push_back(info);
    }
  };
  BuildObserver observer;
  auto info = std::make_shared<TableBuildInfo>();
  info->cache_key = "manual";
  info->rows = 1;
  info->cols = 1;
  SessionConfig config;
  config.observers = {&observer};
  ManualAsyncSession manual = make_manual_session(90.0, info, config);
  ControlSession& session = *manual.session;
  const std::size_t cores = session.num_cores();

  // Three full windows (15 frames at 5 steps/window) under an unfulfilled
  // promise: every window decision is the fallback's, deterministically.
  for (std::size_t i = 0; i < 15; ++i) {
    const auto command = session.step(frame_at(i, 0.01, cores, 60.0));
    ASSERT_TRUE(command.ok()) << command.status().to_string();
  }
  EXPECT_TRUE(session.table_build_pending());
  EXPECT_EQ(session.fallback_windows(), 3u);
  EXPECT_TRUE(observer.builds.empty());

  // A fourth boundary (step 15) with the promise still unfulfilled.
  const auto fourth = session.step(frame_at(15, 0.01, cores, 60.0));
  ASSERT_TRUE(fourth.ok());
  EXPECT_TRUE(fourth->window_boundary);
  EXPECT_EQ(session.fallback_windows(), 4u);

  // Fulfilling the promise mid-window must NOT swap until the boundary.
  manual.promise.set_value(std::make_shared<const core::FrequencyTable>(
      build_tiny_table(session.platform())));
  for (std::size_t i = 16; i < 20; ++i) {
    const auto command = session.step(frame_at(i, 0.01, cores, 60.0));
    ASSERT_TRUE(command.ok());
    EXPECT_FALSE(command->window_boundary);
  }
  EXPECT_TRUE(session.table_build_pending());  // still mid-window

  // The next boundary hot-swaps and reports the deferred build.
  const auto swap = session.step(frame_at(20, 0.01, cores, 60.0));
  ASSERT_TRUE(swap.ok());
  EXPECT_TRUE(swap->window_boundary);
  EXPECT_FALSE(session.table_build_pending());
  EXPECT_EQ(session.fallback_windows(), 4u);  // swap window was served live
  ASSERT_EQ(observer.builds.size(), 1u);
  EXPECT_EQ(observer.builds[0].cache_key, "manual");
}

TEST(AsyncTablePolicy, TripAtFmaxFallbackBehavior) {
  ManualAsyncSession manual = make_manual_session(/*trip=*/90.0);
  ControlSession& session = *manual.session;
  const std::size_t cores = session.num_cores();
  const double fmax = session.platform().fmax();

  // Cool chip: the fallback runs everything at fmax.
  auto command = session.step(frame_at(0, 0.01, cores, 60.0));
  ASSERT_TRUE(command.ok());
  for (std::size_t c = 0; c < cores; ++c) {
    EXPECT_DOUBLE_EQ(command->frequencies[c], fmax);
  }

  // A core at the trip threshold is dropped to 0 between windows (sample
  // hook), and the step reports the intervention.
  sim::TelemetryFrame hot = frame_at(1, 0.01, cores, 60.0);
  hot.core_temps[2] = 95.0;
  command = session.step(hot);
  ASSERT_TRUE(command.ok());
  EXPECT_TRUE(command->intervened);
  EXPECT_DOUBLE_EQ(command->frequencies[2], 0.0);
  EXPECT_DOUBLE_EQ(command->frequencies[0], fmax);

  // A still-hot core is latched, not re-tripped: no intervention report
  // on the next sample (the Basic-DFS latch semantics).
  hot = frame_at(2, 0.01, cores, 60.0);
  hot.core_temps[2] = 95.0;
  command = session.step(hot);
  ASSERT_TRUE(command.ok());
  EXPECT_FALSE(command->intervened);
  EXPECT_DOUBLE_EQ(command->frequencies[2], 0.0);

  // The next boundary re-reads temperatures: a cooled core recovers.
  for (std::size_t i = 3; i < 5; ++i) {
    ASSERT_TRUE(session.step(frame_at(i, 0.01, cores, 60.0)).ok());
  }
  command = session.step(frame_at(5, 0.01, cores, 60.0));  // boundary
  ASSERT_TRUE(command.ok());
  EXPECT_TRUE(command->window_boundary);
  EXPECT_DOUBLE_EQ(command->frequencies[2], fmax);
}

// ------------------------------------------------------ async == sync ----

TEST(AsyncSession, SwappedTableIsBitwiseEqualToSyncBuild) {
  const ScenarioSpec spec = fast_protemp_spec("async-vs-sync");

  // Sync: the historical blocking path.
  TableCache sync_cache;
  SessionConfig sync_config;
  sync_config.table_cache = &sync_cache;
  StatusOr<std::unique_ptr<ControlSession>> sync_session =
      ControlSession::create(spec, sync_config);
  ASSERT_TRUE(sync_session.ok()) << sync_session.status().to_string();
  const auto& sync_policy = dynamic_cast<const core::ProTempPolicy&>(
      (*sync_session)->dfs_policy());

  // Async: same spec, build on the pool, swap at the first boundary.
  TableCache async_cache;
  util::ThreadPool pool(1);
  SessionConfig async_config;
  async_config.table_cache = &async_cache;
  async_config.build_pool = &pool;
  StatusOr<std::unique_ptr<ControlSession>> async_session =
      ControlSession::create(spec, async_config);
  ASSERT_TRUE(async_session.ok()) << async_session.status().to_string();
  EXPECT_TRUE((*async_session)->table_build_pending());

  pool.wait_idle();  // let the build land...
  const auto command = (*async_session)
                           ->step(frame_at(0, spec.sim.dt,
                                           (*async_session)->num_cores(),
                                           60.0));
  ASSERT_TRUE(command.ok()) << command.status().to_string();
  ASSERT_FALSE((*async_session)->table_build_pending());  // ...and swap in

  const auto* async_policy = dynamic_cast<const AsyncTablePolicy*>(
      &(*async_session)->dfs_policy());
  ASSERT_NE(async_policy, nullptr);
  ASSERT_NE(async_policy->live(), nullptr);
  EXPECT_EQ(serialized(async_policy->live()->table()),
            serialized(sync_policy.table()));
}

// --------------------------------------------------------- SessionFleet --

TEST(SessionFleet, EightSessionsShareOneBuild) {
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < 8; ++i) {
    specs.push_back(fast_protemp_spec("fleet-" + std::to_string(i)));
  }
  StatusOr<std::unique_ptr<SessionFleet>> fleet = SessionFleet::create(specs);
  ASSERT_TRUE(fleet.ok()) << fleet.status().to_string();
  SessionFleet& f = **fleet;
  ASSERT_EQ(f.size(), 8u);

  const std::size_t cores = f.session(0).num_cores();
  // Serve while the build is in flight (genuinely concurrent with the
  // pool worker — the TSan job watches this).
  std::size_t step = 0;
  for (; step < 5; ++step) {
    std::vector<sim::TelemetryFrame> frames(
        8, frame_at(step, 0.01, cores, 60.0));
    const auto results = f.step_all(frames);
    for (const auto& result : results) {
      ASSERT_TRUE(result.ok()) << result.status().to_string();
    }
  }

  f.build_pool().wait_idle();
  // One more window boundary swaps every session onto the shared table.
  for (; step < 11; ++step) {
    std::vector<sim::TelemetryFrame> frames(
        8, frame_at(step, 0.01, cores, 60.0));
    const auto results = f.step_all(frames);
    for (const auto& result : results) ASSERT_TRUE(result.ok());
  }
  EXPECT_FALSE(f.any_build_pending());

  const api::FleetMetrics metrics = f.metrics();
  EXPECT_EQ(metrics.sessions, 8u);
  EXPECT_EQ(metrics.failed, 0u);
  EXPECT_EQ(metrics.builds_pending, 0u);
  EXPECT_EQ(metrics.builds_completed, 1u);  // 8 sessions, ONE build
  EXPECT_EQ(metrics.steps, 8u * 11u);
  EXPECT_EQ(metrics.windows, 8u * 3u);  // boundaries at steps 0, 5, 10
  // The build races the first two boundaries (it may even win the first),
  // but the step-10 boundary is after wait_idle, so no session can have
  // needed the fallback three times.
  EXPECT_LE(metrics.fallback_windows, 8u * 2u);
}

TEST(SessionFleet, BuilderFailureNeverKillsSiblings) {
  SessionFleet fleet{FleetConfig{}};

  // Two healthy manual sessions and one whose "builder" failed.
  ManualAsyncSession healthy_a = make_manual_session();
  ManualAsyncSession healthy_b = make_manual_session();
  ManualAsyncSession poisoned = make_manual_session();
  const std::size_t cores = healthy_a.session->num_cores();
  healthy_a.promise.set_value(std::make_shared<const core::FrequencyTable>(
      build_tiny_table(healthy_a.session->platform())));
  healthy_b.promise.set_value(std::make_shared<const core::FrequencyTable>(
      build_tiny_table(healthy_b.session->platform())));
  poisoned.promise.set_exception(std::make_exception_ptr(
      std::runtime_error("synthetic build failure")));

  fleet.adopt(std::move(healthy_a.session));
  fleet.adopt(std::move(poisoned.session));
  fleet.adopt(std::move(healthy_b.session));

  std::vector<sim::TelemetryFrame> frames(3, frame_at(0, 0.01, cores, 60.0));
  auto results = fleet.step_all(frames);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  ASSERT_FALSE(results[1].ok());  // window step surfaced the build failure
  EXPECT_NE(results[1].status().to_string().find("synthetic build failure"),
            std::string::npos);
  EXPECT_TRUE(results[2].ok());

  // The failure is latched: the sibling sessions keep stepping, the failed
  // slot keeps reporting without being stepped.
  for (std::size_t i = 1; i < 7; ++i) {
    for (auto& frame : frames) frame = frame_at(i, 0.01, cores, 60.0);
    results = fleet.step_all(frames);
    EXPECT_TRUE(results[0].ok());
    EXPECT_FALSE(results[1].ok());
    EXPECT_TRUE(results[2].ok());
  }
  EXPECT_EQ(fleet.session(0).steps(), 7u);
  EXPECT_EQ(fleet.session(1).steps(), 0u);  // rejected frames consume nothing
  EXPECT_EQ(fleet.session(2).steps(), 7u);
  const api::FleetMetrics metrics = fleet.metrics();
  EXPECT_EQ(metrics.failed, 1u);
  EXPECT_EQ(metrics.sessions, 3u);
}

TEST(SessionFleet, StepAllSizeMismatchIsAnError) {
  SessionFleet fleet{FleetConfig{}};
  ManualAsyncSession manual = make_manual_session();
  const std::size_t cores = manual.session->num_cores();
  fleet.adopt(std::move(manual.session));

  const auto results =
      fleet.step_all(std::vector<sim::TelemetryFrame>(
          2, frame_at(0, 0.01, cores, 60.0)));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok());
  // A size mismatch is a caller bug, not a session failure: nothing is
  // latched and a correctly sized batch still serves.
  const auto retry = fleet.step_all(
      std::vector<sim::TelemetryFrame>(1, frame_at(0, 0.01, cores, 60.0)));
  ASSERT_EQ(retry.size(), 1u);
  EXPECT_TRUE(retry[0].ok()) << retry[0].status().to_string();
}

TEST(SessionFleet, CreateAggregatesEveryBadSpec) {
  std::vector<ScenarioSpec> specs(3, fast_protemp_spec("ok"));
  specs[0].platform = "cray1";
  specs[2].dfs_policy = "warp-speed";
  const StatusOr<std::unique_ptr<SessionFleet>> fleet =
      SessionFleet::create(specs);
  ASSERT_FALSE(fleet.ok());
  const std::string message = fleet.status().to_string();
  EXPECT_NE(message.find("session 0"), std::string::npos);
  EXPECT_NE(message.find("session 2"), std::string::npos);
  EXPECT_NE(message.find("cray1"), std::string::npos);
}

// ------------------------------------------------------ dynamic membership --

TEST(SessionFleet, RemoveFreesTheSlotAndAddReusesIt) {
  SessionFleet fleet;
  const std::size_t a = fleet.add_session(fast_protemp_spec("a")).value();
  const std::size_t b = fleet.add_session(fast_protemp_spec("b")).value();
  const std::size_t c = fleet.add_session(fast_protemp_spec("c")).value();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(c, 2u);
  EXPECT_EQ(fleet.sessions(), 3u);

  ASSERT_TRUE(fleet.remove_session(b).ok());
  EXPECT_FALSE(fleet.occupied(b));
  EXPECT_EQ(fleet.sessions(), 2u);
  EXPECT_EQ(fleet.size(), 3u);  // the slot stays addressable
  // Removing an empty or out-of-range slot is NotFound, not a crash.
  EXPECT_FALSE(fleet.remove_session(b).ok());
  EXPECT_FALSE(fleet.remove_session(99).ok());

  // The next add reuses the lowest free slot instead of growing.
  const std::size_t d = fleet.add_session(fast_protemp_spec("d")).value();
  EXPECT_EQ(d, b);
  EXPECT_EQ(fleet.size(), 3u);
  EXPECT_EQ(fleet.sessions(), 3u);
}

TEST(SessionFleet, ReusedSlotStartsWithACleanFailureLatch) {
  SessionFleet fleet;
  const std::size_t slot = fleet.add_session(fast_protemp_spec("x")).value();
  const std::size_t cores = fleet.session(slot).num_cores();

  // Latch a failure: a time-travelling second frame is rejected.
  ASSERT_TRUE(fleet.step_one(slot, frame_at(5, 0.01, cores, 60.0)).ok());
  ASSERT_FALSE(fleet.step_one(slot, frame_at(1, 0.01, cores, 60.0)).ok());
  EXPECT_FALSE(fleet.session_status(slot).ok());
  // Latched: even a good frame keeps reporting the first failure.
  EXPECT_FALSE(fleet.step_one(slot, frame_at(9, 0.01, cores, 60.0)).ok());
  EXPECT_EQ(fleet.metrics().failed, 1u);

  ASSERT_TRUE(fleet.remove_session(slot).ok());
  const std::size_t reused = fleet.add_session(fast_protemp_spec("y")).value();
  ASSERT_EQ(reused, slot);
  EXPECT_TRUE(fleet.session_status(reused).ok());
  EXPECT_TRUE(fleet.step_one(reused, frame_at(0, 0.01, cores, 60.0)).ok());
  EXPECT_EQ(fleet.metrics().failed, 0u);
}

TEST(SessionFleet, StepAllReportsEmptySlotsAsNotFound) {
  SessionFleet fleet;
  (void)fleet.add_session(fast_protemp_spec("a")).value();
  const std::size_t hole = fleet.add_session(fast_protemp_spec("b")).value();
  (void)fleet.add_session(fast_protemp_spec("c")).value();
  ASSERT_TRUE(fleet.remove_session(hole).ok());

  const std::size_t cores = fleet.session(0).num_cores();
  const auto results = fleet.step_all(std::vector<sim::TelemetryFrame>(
      3, frame_at(0, 0.01, cores, 60.0)));
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok()) << results[0].status().to_string();
  EXPECT_FALSE(results[1].ok());  // the hole
  EXPECT_TRUE(results[2].ok());
  // The hole never latches anything: siblings and aggregates are clean.
  EXPECT_EQ(fleet.metrics().failed, 0u);
  EXPECT_EQ(fleet.metrics().sessions, 2u);
  EXPECT_EQ(fleet.metrics().steps, 2u);
}

}  // namespace
}  // namespace protemp

// fleet_serve: an api::ShardedFleet of table-backed pro-temp tenants on
// niagara8 (8 cores) and mesh:4x4 (16 cores) sharing one TableStore, on a
// coarse Phase-1 grid, with the fleet's default asynchronous builds.
//
// Set-up opens a fresh store and records each platform's telemetry: one
// session of the tenants' spec builds the platform's table (writing it
// through to the store) and runs the paper's mixed trace in closed loop in
// the repository's simulator; every tenant replays its own slice of that
// recording. Then it adds every tenant and steps one window so that each
// swaps its table in from the store; set-up ends when no build is pending.
// The measurement is a closed loop: one stepping thread per shard replays
// its tenants' frames through step_shard, each thread waiting for its batch
// before sending the next. After set-up the solver does no work; the time
// is session, async-policy dispatch, control loop, table query and fleet
// locking.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/protemp.hpp"
#include "common.hpp"
#include "probes.hpp"
#include "store/format.hpp"
#include "store/table_store.hpp"
#include "trace.hpp"
#include "traffic.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace protemp;
namespace fs = std::filesystem;

constexpr int kSetups = 3;
constexpr std::size_t kMaxShards = 4;
constexpr std::size_t kTenantsPerShard = 32;  ///< half per platform
constexpr std::size_t kWindowsPerTenant = 3;
constexpr std::size_t kStepsPerWindow = 250;  ///< paper dfs_period / dt
constexpr std::size_t kFramesPerTenant = kWindowsPerTenant * kStepsPerWindow;
/// Each platform's recording runs kWarmupWindows + kRecordWindows windows
/// from the idle chip; the tenants' slices are spread evenly over the last
/// kRecordWindows. The slices keep the recorded temperatures but carry the
/// demand of mixed_trace_demand (same trace, every fifth window), as
/// mpc_online does: the recording's own demand comes in bursts seconds
/// long, too few in a minute for one seed to look like another.
constexpr std::size_t kWarmupWindows = 20;
constexpr std::size_t kRecordWindows = 600;
constexpr std::size_t kLatencySamplesPerThread = 1u << 20;
constexpr std::size_t kTraceEvery = 1024;  ///< batches per recorded span set
constexpr int kStoreReps = 5;
constexpr double kBareSeconds = 1.0;

api::ScenarioSpec tenant_spec(bool mesh, std::size_t index) {
  api::ScenarioSpec spec;
  spec.name = "perfbench-tenant-" + std::to_string(index);
  spec.platform = mesh ? "mesh:4x4" : "niagara8";
  spec.dfs_policy = "pro-temp";
  // The mesh tables follow the repository's mesh convention (no gradient
  // term); niagara8 keeps the paper's.
  spec.optimizer = bench::paper_optimizer_config(/*gradient=*/!mesh);
  spec.sim = bench::paper_sim_config();
  spec.dfs_options.set("tstart-step", 25.0);
  spec.dfs_options.set("ftarget-step-mhz", 300.0);
  return spec;
}

struct Tenant {
  api::SessionId id = 0;
  std::size_t shard = 0;
  std::size_t slot = 0;  ///< position in its shard's batches
  std::size_t index = 0;
  bool mesh = false;
  std::size_t cores = 0;
  double fmax = 0.0;
  /// Required average frequency [Hz] of each window of its frames.
  std::vector<double> required;
};

using Batch = std::vector<std::pair<api::SessionId, sim::TelemetryFrame>>;

struct Fixture {
  std::shared_ptr<store::TableStore> store;
  std::unique_ptr<api::ShardedFleet> fleet;
  std::vector<Tenant> tenants;
  std::vector<std::vector<Batch>> batches;  ///< [shard][frame]
  std::size_t sampled = 0;                  ///< tenant index
  std::vector<std::size_t> next_step;       ///< [shard] frames consumed
  std::vector<std::size_t> first_measured;  ///< [shard] step after set-up
  std::size_t recording_builds = 0;
  std::size_t fallback_after_setup = 0;
  std::uint64_t input_digest = 0;
};

/// Each platform's recorded telemetry: `slices` slices of kFramesPerTenant
/// frames, concatenated.
api::StatusOr<std::vector<sim::TelemetryFrame>> record_platform(
    bool mesh, std::uint64_t seed, std::size_t slices,
    const std::shared_ptr<store::TableStore>& store,
    std::size_t& builds) {
  api::TableCache cache;
  cache.attach_store(store);
  api::SessionConfig config;
  config.table_cache = &cache;
  api::StatusOr<std::unique_ptr<api::ControlSession>> session =
      api::ControlSession::create(tenant_spec(mesh, 0), config);
  if (!session.ok()) return session.status();
  builds += cache.builds_completed();
  std::vector<std::size_t> keep;
  for (std::size_t k = 0; k < slices; ++k) {
    const std::size_t start =
        kWarmupWindows + k * (kRecordWindows - kWindowsPerTenant) / slices;
    for (std::size_t w = 0; w < kWindowsPerTenant; ++w) {
      keep.push_back(start + w);
    }
  }
  std::vector<sim::TelemetryFrame> frames = record_closed_loop(
      (*session)->platform(), (*session)->sim_config(), seed,
      kWarmupWindows + kRecordWindows, **session, keep);
  const std::vector<WindowView> demand = mixed_trace_demand(
      (*session)->platform(), (*session)->sim_config(), seed,
      slices * kWindowsPerTenant);
  if (frames.size() != slices * kFramesPerTenant ||
      demand.size() != slices * kWindowsPerTenant) {
    return api::Status::internal(
        "recording is short: " + std::to_string(frames.size()) +
        " frames, " + std::to_string(demand.size()) + " demand windows");
  }
  for (std::size_t w = 0; w < demand.size(); ++w) {
    sim::TelemetryFrame& boundary = frames[w * kStepsPerWindow];
    boundary.queue_length = demand[w].queue_length;
    boundary.backlog_work = demand[w].backlog_work;
    boundary.arrived_work_last_window = demand[w].arrived_work;
  }
  return frames;
}

/// Steps every shard's next window (one batch per frame).
void step_window(Fixture& fixture) {
  for (std::size_t s = 0; s < fixture.batches.size(); ++s) {
    std::vector<Batch>& batches = fixture.batches[s];
    const double dt = bench::paper_sim_config().dt;
    for (std::size_t i = 0; i < kStepsPerWindow; ++i) {
      const std::size_t step = fixture.next_step[s]++;
      Batch& batch = batches[step % batches.size()];
      for (auto& entry : batch) {
        entry.second.time = static_cast<double>(step) * dt;
      }
      fixture.fleet->step_shard(s, batch);
    }
  }
}

api::StatusOr<Fixture> set_up(std::uint64_t seed, std::size_t shards,
                              const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  api::StatusOr<std::shared_ptr<store::TableStore>> store =
      store::TableStore::open(dir);
  if (!store.ok()) return store.status();
  Fixture fixture;
  fixture.store = std::move(store).value();

  // [0] niagara8, [1] mesh:4x4; the two platforms replay differently
  // seeded traces.
  const std::size_t per_platform = shards * kTenantsPerShard / 2;
  std::vector<std::vector<sim::TelemetryFrame>> recorded;
  for (const bool mesh : {false, true}) {
    const std::uint64_t trace_seed = util::fnv1a64(
        &seed, sizeof(seed), util::fnv1a64(tenant_spec(mesh, 0).platform));
    api::StatusOr<std::vector<sim::TelemetryFrame>> frames =
        record_platform(mesh, trace_seed, per_platform, fixture.store,
                        fixture.recording_builds);
    if (!frames.ok()) return frames.status();
    recorded.push_back(std::move(frames).value());
  }

  api::ShardedFleetConfig config;
  config.shards = shards;
  config.build_threads_per_shard = 1;
  config.table_store = fixture.store;
  fixture.fleet = std::make_unique<api::ShardedFleet>(config);
  const sim::SimConfig sim = bench::paper_sim_config();
  std::uint64_t digest = util::fnv1a64("");
  std::size_t sliced[2] = {0, 0};
  fixture.batches.assign(shards, std::vector<Batch>(kFramesPerTenant));
  fixture.next_step.assign(shards, 0);
  for (std::size_t s = 0; s < shards; ++s) {
    for (std::size_t slot = 0; slot < kTenantsPerShard; ++slot) {
      Tenant tenant;
      tenant.index = fixture.tenants.size();
      tenant.shard = s;
      tenant.slot = slot;
      tenant.mesh = slot % 2 == 1;
      api::StatusOr<api::SessionId> id =
          fixture.fleet->add(tenant_spec(tenant.mesh, tenant.index), s);
      if (!id.ok()) return id.status();
      tenant.id = *id;
      const std::size_t first = sliced[tenant.mesh]++ * kFramesPerTenant;
      const std::vector<sim::TelemetryFrame>& frames = recorded[tenant.mesh];
      tenant.cores = frames[first].core_temps.size();
      for (std::size_t f = 0; f < kFramesPerTenant; ++f) {
        const sim::TelemetryFrame& frame = frames[first + f];
        const linalg::Vector& temps = frame.core_temps;
        digest = util::fnv1a64(temps.data(), temps.size() * sizeof(double),
                               digest);
        digest = util::fnv1a64(&frame.backlog_work, sizeof(double), digest);
        fixture.batches[s][f].emplace_back(tenant.id, frame);
      }
      fixture.tenants.push_back(std::move(tenant));
    }
  }
  double fmax[2] = {0.0, 0.0};
  for (const bool mesh : {false, true}) {
    api::StatusOr<arch::Platform> platform =
        api::make_platform(tenant_spec(mesh, 0).platform);
    if (!platform.ok()) return platform.status();
    fmax[mesh] = platform->fmax();
  }
  for (Tenant& tenant : fixture.tenants) {
    tenant.fmax = fmax[tenant.mesh];
    for (std::size_t f = 0; f < kFramesPerTenant; f += kStepsPerWindow) {
      const sim::TelemetryFrame& frame =
          fixture.batches[tenant.shard][f][tenant.slot].second;
      sim::ControllerView view;
      view.dfs_period = sim.dfs_period;
      view.num_cores = tenant.cores;
      view.fmax = tenant.fmax;
      view.backlog_work = frame.backlog_work;
      view.arrived_work_last_window = frame.arrived_work_last_window;
      tenant.required.push_back(sim::required_average_frequency(view));
    }
  }
  fixture.sampled = static_cast<std::size_t>(digest % fixture.tenants.size());
  fixture.input_digest = digest;

  // Every tenant's table is in the store, so each swaps in at its first
  // window boundary; wait (bounded) until none is pending.
  const double deadline = now_s() + 60.0;
  do {
    step_window(fixture);
  } while (fixture.fleet->metrics().builds_pending > 0 && now_s() < deadline);
  const api::FleetMetrics metrics = fixture.fleet->metrics();
  if (metrics.builds_pending > 0) {
    return api::Status::internal(std::to_string(metrics.builds_pending) +
                                 " tables still pending after set-up");
  }
  fixture.fallback_after_setup = metrics.fallback_windows;
  fixture.first_measured = fixture.next_step;
  return fixture;
}

/// One stepping thread's observations.
struct ShardRun {
  std::vector<float> batch_ns;  ///< uniform reservoir of batch latencies
  /// Per DFS window: the time this shard spent stepping its tenants
  /// through the window's batches.
  std::vector<double> window_s;
  double window_acc = 0.0;
  bool in_window = false;  ///< stepped this window from its boundary
  std::size_t batches = 0;
  std::size_t steps = 0;
  std::size_t failed = 0;
  std::size_t bad_commands = 0;
  double batch_s = 0.0;
  double served_hz = 0.0;    ///< boundary commands: sum of per-core means
  double required_hz = 0.0;  ///< boundary frames: sum of required frequency
  std::size_t windows = 0;   ///< boundary commands
  double end = 0.0;
  std::uint64_t sampled_digest = 0;
  std::size_t sampled_steps = 0;
  std::string error;  ///< what ended the thread early, if anything
};

struct Pass {
  std::vector<ShardRun> shards;
  std::vector<double> batch_s;     ///< merged reservoirs
  std::vector<double> window_s;    ///< merged per-window serving times
  double wall_s = 0.0;
  std::size_t batches = 0;
  std::size_t steps = 0;
  std::size_t failed = 0;
  std::size_t bad_commands = 0;
  double batch_total_s = 0.0;
  double served_hz = 0.0;
  double required_hz = 0.0;
  std::size_t windows = 0;
  std::uint64_t sampled_digest = 0;
  std::size_t sampled_steps = 0;
  std::string error;
};

void step_shard_loop(Fixture& fixture, std::size_t shard, double start,
                     double seconds, std::uint64_t seed, Tracer& tracer,
                     ShardRun& run) {
  std::vector<Batch>& batches = fixture.batches[shard];
  const Tenant& sampled = fixture.tenants[fixture.sampled];
  const bool has_sampled = sampled.shard == shard;
  std::vector<const Tenant*> by_slot(kTenantsPerShard);
  for (const Tenant& t : fixture.tenants) {
    if (t.shard == shard) by_slot[t.slot] = &t;
  }
  util::SplitMix64 reservoir(seed ^ (0x9e37u + shard));
  run.batch_ns.reserve(kLatencySamplesPerThread);

  run.sampled_digest = util::fnv1a64("");
  const double dt = bench::paper_sim_config().dt;
  // Frames consumed by this shard's tenants so far: a later pass continues
  // their telemetry clock instead of restarting it.
  for (std::size_t& step = fixture.next_step[shard];; ++step) {
    const double tp = now_s();
    if (tp - start >= seconds) break;
    Batch& batch = batches[step % batches.size()];
    const double time = static_cast<double>(step) * dt;
    for (auto& entry : batch) entry.second.time = time;
    const double t0 = now_s();
    const std::vector<api::StatusOr<api::ActuationCommand>> commands =
        fixture.fleet->step_shard(shard, batch);
    const double t1 = now_s();
    const bool boundary = step % kStepsPerWindow == 0;
    const std::size_t window = (step % batches.size()) / kStepsPerWindow;
    for (std::size_t i = 0; i < commands.size(); ++i) {
      if (!commands[i].ok()) {
        ++run.failed;
        continue;
      }
      const linalg::Vector& f = commands[i]->frequencies;
      double mean = 0.0;
      for (std::size_t c = 0; c < f.size(); ++c) {
        if (!(f[c] >= 0.0 && f[c] <= by_slot[i]->fmax * (1.0 + 1e-12))) {
          ++run.bad_commands;
        }
        mean += f[c];
      }
      if (boundary) {
        run.served_hz += mean / static_cast<double>(f.size());
        run.required_hz += by_slot[i]->required[window];
        ++run.windows;
      }
    }
    if (has_sampled && commands[sampled.slot].ok()) {
      run.sampled_digest =
          api::digest_command(run.sampled_digest, *commands[sampled.slot]);
      ++run.sampled_steps;
    }
    const double t2 = now_s();

    const auto ns = static_cast<float>(1e9 * (t1 - t0));
    if (run.batch_ns.size() < kLatencySamplesPerThread) {
      run.batch_ns.push_back(ns);
    } else {
      const std::uint64_t j = reservoir.next() % (run.batches + 1);
      if (j < kLatencySamplesPerThread) run.batch_ns[j] = ns;
    }
    if (boundary) {
      run.window_acc = 0.0;
      run.in_window = true;
    }
    run.window_acc += t1 - t0;
    if (run.in_window && step % kStepsPerWindow == kStepsPerWindow - 1) {
      run.window_s.push_back(run.window_acc);
    }
    run.batch_s += t1 - t0;
    run.steps += batch.size();
    ++run.batches;
    run.end = t2;
    if (tracer.enabled() && run.batches % kTraceEvery == 0) {
      const std::uint64_t group = run.batches;
      const std::size_t root =
          tracer.add("fleet.round", group, Tracer::kNoParent, tp, t2);
      tracer.add("bench.prepare_frames", group, root, tp, t0);
      tracer.add("api.fleet_step_shard", group, root, t0, t1);
      tracer.add("bench.check_commands", group, root, t1, t2);
    }
  }
}

Pass measure(Fixture& fixture, double seconds, std::uint64_t seed,
             bool traced, Tracer& tracer) {
  const std::size_t shards = fixture.batches.size();
  Pass pass;
  pass.shards.resize(shards);
  std::vector<Tracer> tracers;
  for (std::size_t s = 0; s < shards; ++s) {
    tracers.emplace_back(traced, static_cast<std::uint32_t>(s));
  }
  const double start = now_s();
  {
    std::vector<std::jthread> threads;  // joined on scope exit
    for (std::size_t s = 0; s < shards; ++s) {
      threads.emplace_back([&, s] {
        try {
          step_shard_loop(fixture, s, start, seconds, seed, tracers[s],
                          pass.shards[s]);
        } catch (const std::exception& e) {
          pass.shards[s].error = e.what();
        }
      });
    }
  }
  for (std::size_t s = 0; s < shards; ++s) {
    const ShardRun& run = pass.shards[s];
    tracer.absorb(tracers[s]);
    pass.wall_s = std::max(pass.wall_s, run.end - start);
    pass.batches += run.batches;
    pass.steps += run.steps;
    pass.failed += run.failed;
    pass.bad_commands += run.bad_commands;
    if (!run.error.empty()) pass.error = run.error;
    pass.batch_total_s += run.batch_s;
    pass.served_hz += run.served_hz;
    pass.required_hz += run.required_hz;
    pass.windows += run.windows;

    for (const float ns : run.batch_ns) pass.batch_s.push_back(1e-9 * ns);
    pass.window_s.insert(pass.window_s.end(), run.window_s.begin(),
                         run.window_s.end());
    if (fixture.tenants[fixture.sampled].shard == s) {
      pass.sampled_digest = run.sampled_digest;
      pass.sampled_steps = run.sampled_steps;
    }
  }
  return pass;
}

/// Bare ControlSessions (same specs, tables from the same store, no fleet)
/// for tenants of one shard, fed that shard's frames batch by batch.
struct BareShard {
  api::TableCache cache;
  /// (slot, session) in slot order.
  std::vector<std::pair<std::size_t, std::unique_ptr<api::ControlSession>>>
      sessions;
  std::vector<Batch>* batches = nullptr;  ///< the fleet's, times rewritten
  std::size_t step = 0;
};

/// Opens bare sessions for every tenant of `shard`, or only for `slot`.
api::Status open_bare_shard(Fixture& fixture, std::size_t shard,
                            std::optional<std::size_t> slot,
                            BareShard& bare) {
  bare.cache.attach_store(fixture.store);
  api::SessionConfig config;
  config.table_cache = &bare.cache;
  for (const Tenant& tenant : fixture.tenants) {
    if (tenant.shard != shard || (slot && tenant.slot != *slot)) continue;
    api::StatusOr<std::unique_ptr<api::ControlSession>> session =
        api::ControlSession::create(tenant_spec(tenant.mesh, tenant.index),
                                    config);
    if (!session.ok()) return session.status();
    bare.sessions.emplace_back(tenant.slot, std::move(session).value());
  }
  bare.batches = &fixture.batches[shard];
  return api::Status();
}

/// Steps every bare session through steps [bare.step, end); returns the
/// number of failed steps.
std::size_t step_bare(BareShard& bare, std::size_t end) {
  const double dt = bench::paper_sim_config().dt;
  std::size_t failures = 0;
  for (; bare.step < end; ++bare.step) {
    Batch& batch = (*bare.batches)[bare.step % bare.batches->size()];
    for (auto& [slot, session] : bare.sessions) {
      sim::TelemetryFrame& frame = batch[slot].second;
      frame.time = static_cast<double>(bare.step) * dt;
      if (!session->step(frame).ok()) ++failures;
    }
  }
  return failures;
}

struct BareReplay {
  bool ok = false;
  std::string error;
  std::uint64_t value = 0;  ///< command digest
  double step_s = 0.0;      ///< seconds per session step
};

/// The sampled tenant's frames through a bare session: every frame the
/// fleet consumed before the measurement, then the `measured_steps`
/// measured ones with a CommandDigestObserver.
BareReplay replay_sampled(Fixture& fixture, std::size_t measured_steps) {
  BareReplay out;
  const Tenant& sampled = fixture.tenants[fixture.sampled];
  BareShard bare;
  if (const api::Status s =
          open_bare_shard(fixture, sampled.shard, sampled.slot, bare);
      !s.ok()) {
    out.error = s.to_string();
    return out;
  }
  const std::size_t first = fixture.first_measured[sampled.shard];
  std::size_t failures = step_bare(bare, first);
  api::CommandDigestObserver digest;
  bare.sessions.front().second->add_observer(&digest);
  failures += step_bare(bare, first + measured_steps);
  bare.sessions.front().second->remove_observer(&digest);
  out.value = digest.digest();
  out.ok = failures == 0;
  if (!out.ok) out.error = std::to_string(failures) + " bare steps failed";
  return out;
}

/// Seconds per ControlSession::step over every tenant of shard 0 (both
/// platforms, the fleet's mix), stepped in the fleet's batch order for
/// kBareSeconds: the same work as a fleet batch without the fleet.
BareReplay time_bare_shard(Fixture& fixture) {
  BareReplay out;
  BareShard bare;
  if (const api::Status s = open_bare_shard(fixture, 0, std::nullopt, bare);
      !s.ok()) {
    out.error = s.to_string();
    return out;
  }
  std::size_t failures = step_bare(bare, kFramesPerTenant);  // warm
  const std::size_t first = bare.step;
  const double t0 = now_s();
  double t1 = t0;
  while (t1 - t0 < kBareSeconds) {
    failures += step_bare(bare, bare.step + kStepsPerWindow);
    t1 = now_s();
  }
  out.step_s = (t1 - t0) / static_cast<double>((bare.step - first) *
                                               bare.sessions.size());
  out.ok = failures == 0;
  if (!out.ok) out.error = std::to_string(failures) + " bare steps failed";
  return out;
}

void report_store_probes(Fixture& fixture, Result& result) {
  std::vector<double> load_s;
  std::vector<double> view_s;
  double save_s = 0.0;
  bool ok = true;
  for (const store::TableStore::EntryInfo& entry : fixture.store->list()) {
    for (int rep = 0; rep < kStoreReps; ++rep) {
      const double t0 = now_s();
      api::StatusOr<core::FrequencyTable> table =
          fixture.store->load(entry.key);
      const double t1 = now_s();
      api::StatusOr<store::TableView> view =
          store::TableView::open(fixture.store->root() + "/" + entry.file);
      const double t2 = now_s();
      ok = ok && table.ok() && view.ok();
      load_s.push_back(t1 - t0);
      view_s.push_back(t2 - t1);
      if (rep == 0 && table.ok()) {
        const double s0 = now_s();
        ok = fixture.store->put(entry.key + "|perfbench-save-probe", *table)
                 .ok() &&
             ok;
        save_s = std::max(save_s, now_s() - s0);
      }
    }
  }
  result.op(ok && !load_s.empty());
  result.metric("store.save_ms", 1e3 * save_s, "ms");
  result.metric("store.load_us", 1e6 * median(load_s), "us");
  result.metric("store.view_open_us", 1e6 * median(view_s), "us");
}

/// FrequencyTable::query at the boundary telemetry the tenants were served,
/// on the tables the store holds.
void report_query_probe(Fixture& fixture, Result& result) {
  std::vector<core::FrequencyTable> tables;
  for (const store::TableStore::EntryInfo& entry : fixture.store->list()) {
    if (entry.key.find("perfbench-save-probe") != std::string::npos) continue;
    api::StatusOr<core::FrequencyTable> table = fixture.store->load(entry.key);
    if (table.ok()) tables.push_back(std::move(table).value());
  }
  struct Lookup {
    const core::FrequencyTable* table;
    double temperature;
    double required;
  };
  std::vector<Lookup> lookups;
  const sim::SimConfig sim = bench::paper_sim_config();
  for (const Tenant& tenant : fixture.tenants) {
    const core::FrequencyTable* table = nullptr;
    for (const core::FrequencyTable& t : tables) {
      if (t.num_cores() == tenant.cores) table = &t;
    }
    if (table == nullptr) continue;
    const std::vector<Batch>& batches = fixture.batches[tenant.shard];
    for (std::size_t f = 0; f < batches.size(); f += kStepsPerWindow) {
      const sim::TelemetryFrame& frame = batches[f][tenant.slot].second;
      sim::ControllerView view;
      view.dfs_period = sim.dfs_period;
      view.num_cores = tenant.cores;
      view.fmax = tenant.fmax;
      view.backlog_work = frame.backlog_work;
      view.arrived_work_last_window = frame.arrived_work_last_window;
      view.core_temps = frame.core_temps;
      view.sensor_temps = frame.sensor_temps;
      lookups.push_back({table, view.max_sensor_temp(),
                         sim::required_average_frequency(view)});
    }
  }
  std::size_t rows = 0;
  const double per_pass = seconds_per_call([&] {
    for (const Lookup& l : lookups) {
      rows += l.table->query(l.temperature, l.required).row;
    }
  });
  result.op(!lookups.empty());
  result.metric("core.table_query_ns",
                1e9 * per_pass / static_cast<double>(std::max<std::size_t>(
                                     1, lookups.size())),
                "ns");
}

}  // namespace

Result run_fleet_serve(const RunOptions& options) {
  Result result;
  // One stepping thread per shard, on at most half the host's cores so the
  // closed loop never competes with the rest of the machine for a core.
  const std::size_t shards = std::clamp<std::size_t>(
      std::thread::hardware_concurrency() / 2, 1, kMaxShards);
  const std::string store_dir = options.work_dir + "/fleet_store";
  std::vector<double> setup_s;
  api::StatusOr<Fixture> fixture = api::Status::internal("not set up");
  for (int rep = 0; rep < kSetups; ++rep) {
    fixture = api::Status::internal("not set up");
    const double t0 = now_s();
    fixture = set_up(options.seed, shards, store_dir);
    setup_s.push_back(now_s() - t0);
    result.op(fixture.ok());
    if (!fixture.ok()) {
      result.fail("set-up: " + fixture.status().to_string());
      return result;
    }
  }
  result.info("input_digest",
              util::format("%016llx", static_cast<unsigned long long>(
                                          fixture->input_digest)));
  result.info("shards", std::to_string(shards));
  result.info("tenants", std::to_string(fixture->tenants.size()));

  Tracer untraced(false);
  const Pass pass = measure(*fixture, options.seconds, options.seed, false,
                            untraced);
  result.ops(pass.steps, pass.failed);
  result.check("stepping_threads_finish", pass.error.empty(), pass.error);
  const api::FleetMetrics metrics = fixture->fleet->metrics();
  const BareReplay bare = replay_sampled(*fixture, pass.sampled_steps);
  result.check("fleet_steps_ok", pass.failed == 0 && metrics.failed == 0,
               std::to_string(pass.failed) + " failed steps, " +
                   std::to_string(metrics.failed) + " failed sessions");
  result.check("commands_finite_within_fmax", pass.bad_commands == 0,
               std::to_string(pass.bad_commands) + " bad frequencies");
  result.check(
      "no_fallback_windows_after_setup",
      metrics.fallback_windows == fixture->fallback_after_setup,
      std::to_string(metrics.fallback_windows - fixture->fallback_after_setup) +
          " fallback windows");
  result.check("sampled_tenant_matches_bare_session",
               bare.ok && bare.value == pass.sampled_digest,
               bare.ok ? util::format("tenant %zu, %zu steps",
                                      fixture->sampled, pass.sampled_steps)
                       : bare.error);

  const double dt = bench::paper_sim_config().dt;
  const double p50 = median(pass.batch_s);
  result.detail("fleet_steps_per_s",
                static_cast<double>(pass.steps) / pass.wall_s, "1/s");
  result.detail("fleet_batch_us.p50", 1e6 * p50, "us");
  result.detail("fleet_batch_us.p99", 1e6 * quantile(pass.batch_s, 0.99),
                "us");
  result.detail("batches", static_cast<double>(pass.batches), "count");
  result.detail("shard_windows", static_cast<double>(pass.window_s.size()),
                "count");
  result.detail("freq_share_of_demand",
                pass.served_hz / pass.required_hz, "ratio");
  result.detail("mean_freq_mhz",
                1e-6 * pass.served_hz / static_cast<double>(pass.windows),
                "MHz");

  if (!options.trace) {
    result.metric("setup_s", median(setup_s), "s");
    // A fleet decision unit is one DFS window of one shard: every tenant's
    // window decision plus its steady steps, all the batches the shard
    // serves per 100 ms of its tenants' time. Single batches take ~2 us, so
    // their tail percentiles track host noise more than the fleet.
    result.metric("decision_ms.p50", 1e3 * median(pass.window_s), "ms");
    result.metric("decision_ms.p90", 1e3 * quantile(pass.window_s, 0.9),
                  "ms");
    result.metric("steady_step_ns",
                  1e9 * p50 / static_cast<double>(kTenantsPerShard), "ns");
    result.metric("sim_speed_x",
                  static_cast<double>(pass.steps) * dt / pass.wall_s, "x");
    return result;
  }

  Tracer tracer(true);
  const Pass traced = measure(*fixture, options.seconds, options.seed, true,
                              tracer);
  result.ops(traced.steps, traced.failed);
  result.op(traced.error.empty());
  const BareReplay timed = time_bare_shard(*fixture);
  result.op(timed.ok);
  if (!timed.ok) result.fail("bare shard: " + timed.error);
  const api::FleetMetrics after = fixture->fleet->metrics();
  result.metric("api.fleet_step_ns",
                1e9 * traced.batch_total_s / static_cast<double>(traced.steps),
                "ns");
  result.metric("api.session_step_ns", 1e9 * timed.step_s, "ns");
  // Builds of the last set-up: the recording sessions build each platform's
  // table once and write it through; the fleet should build none.
  result.metric("api.table_builds",
                static_cast<double>(fixture->recording_builds +
                                    after.builds_completed),
                "count");
  // Each shard's cache looks each platform's table up once (later tenants
  // hit memory); every such first lookup that did not build was a store
  // hit. ShardedFleet does not surface its caches' store_hits counters.
  const std::size_t first_lookups = 2 * shards;
  result.metric("api.store_hits",
                static_cast<double>(first_lookups - std::min(
                                        first_lookups, after.builds_completed)),
                "count");
  result.metric("api.fallback_windows",
                static_cast<double>(after.fallback_windows), "count");
  report_store_probes(*fixture, result);
  report_query_probe(*fixture, result);

  const api::StatusOr<arch::Platform> platform = api::make_platform("niagara8");
  result.op(platform.ok());
  if (platform.ok()) {
    const core::ProTempConfig config =
        bench::paper_optimizer_config(/*gradient=*/true);
    const core::ProTempOptimizer optimizer(*platform, config);
    report_layer_probes(*platform, config, live_solve_workspace(optimizer),
                        options.seed, result);
  }
  const double threads = static_cast<double>(shards);
  report_trace(tracer,
               pass.wall_s * threads / static_cast<double>(pass.batches),
               traced.wall_s * threads / static_cast<double>(traced.batches),
               options.work_dir + "/trace-fleet_serve.json", result);
  return result;
}

}  // namespace perfbench

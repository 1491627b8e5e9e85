#include "api/registry.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <ostream>
#include <set>
#include <stdexcept>

#include "api/async.hpp"
#include "arch/het.hpp"
#include "arch/mesh.hpp"
#include "arch/niagara.hpp"
#include "arch/stack.hpp"
#include "core/feedback_policies.hpp"
#include "core/policies.hpp"
#include "sim/assignment.hpp"
#include "store/interpolated_policy.hpp"
#include "store/table_store.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace protemp::api {

// ---------------------------------------------------------------- Options --

Options& Options::set(const std::string& key, std::string value) {
  values_[key] = std::move(value);
  return *this;
}

Options& Options::set(const std::string& key, const char* value) {
  return set(key, std::string(value));
}

Options& Options::set(const std::string& key, double value) {
  return set(key, util::format("%.17g", value));
}

Options& Options::set(const std::string& key, bool value) {
  return set(key, std::string(value ? "true" : "false"));
}

bool Options::contains(const std::string& key) const {
  return values_.count(key) != 0;
}

// ----------------------------------------------------------- OptionReader --

OptionReader::OptionReader(const Options& options) : options_(options) {}

std::string OptionReader::get_string(const std::string& key,
                                     std::string default_value) {
  consumed_[key] = true;
  const auto it = options_.entries().find(key);
  return it == options_.entries().end() ? std::move(default_value)
                                        : it->second;
}

double OptionReader::get_double(const std::string& key, double default_value) {
  consumed_[key] = true;
  const auto it = options_.entries().find(key);
  if (it == options_.entries().end()) return default_value;
  try {
    return util::parse_double(it->second);
  } catch (const std::exception&) {
    if (first_error_.ok()) {
      first_error_ = Status::invalid_argument(
          "option '" + key + "': expected a number, got '" + it->second + "'");
    }
    return default_value;
  }
}

long long OptionReader::get_int(const std::string& key,
                                long long default_value) {
  consumed_[key] = true;
  const auto it = options_.entries().find(key);
  if (it == options_.entries().end()) return default_value;
  try {
    return util::parse_int(it->second);
  } catch (const std::exception&) {
    if (first_error_.ok()) {
      first_error_ = Status::invalid_argument(
          "option '" + key + "': expected an integer, got '" + it->second +
          "'");
    }
    return default_value;
  }
}

bool OptionReader::get_bool(const std::string& key, bool default_value) {
  consumed_[key] = true;
  const auto it = options_.entries().find(key);
  if (it == options_.entries().end()) return default_value;
  if (const auto value = util::parse_bool(it->second)) return *value;
  if (first_error_.ok()) {
    first_error_ = Status::invalid_argument(
        "option '" + key + "': expected a boolean, got '" + it->second + "'");
  }
  return default_value;
}

std::uint64_t OptionReader::get_seed(const std::string& key,
                                     std::uint64_t default_value) {
  consumed_[key] = true;
  const auto it = options_.entries().find(key);
  if (it == options_.entries().end()) return default_value;
  // Full uint64 range, unlike get_int.
  if (const auto value = util::parse_uint64(it->second)) return *value;
  if (first_error_.ok()) {
    first_error_ = Status::invalid_argument(
        "option '" + key + "': expected a non-negative integer seed, got '" +
        it->second + "'");
  }
  return default_value;
}

Status OptionReader::finish() const {
  if (!first_error_.ok()) return first_error_;
  for (const auto& [key, value] : options_.entries()) {
    (void)value;
    if (!consumed_.count(key)) {
      return Status::invalid_argument("unknown option '" + key + "'");
    }
  }
  return Status();
}

// ------------------------------------------------------------- TableCache --

TableCache::TableCache(std::size_t stripes) {
  stripes_.reserve(std::max<std::size_t>(stripes, 1));
  for (std::size_t i = 0; i < std::max<std::size_t>(stripes, 1); ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

TableCache::Stripe& TableCache::stripe_of(const std::string& key) {
  return *stripes_[std::hash<std::string>{}(key) % stripes_.size()];
}

std::shared_ptr<const core::FrequencyTable> TableCache::get_or_build(
    const std::string& key, const Builder& builder) {
  Stripe& stripe = stripe_of(key);
  std::promise<std::shared_ptr<const core::FrequencyTable>> promise;
  Future future;
  bool build_here = false;
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto it = stripe.cache.find(key);
    if (it == stripe.cache.end()) {
      future = promise.get_future().share();
      stripe.cache.emplace(key, future);
      build_here = true;
    } else {
      future = it->second;
    }
  }
  if (build_here) {
    try {
      // Persistent tier first: a store hit is a load, not a build, so it
      // satisfies every waiter without touching builds_completed.
      std::shared_ptr<const core::FrequencyTable> table =
          try_store_load(key);
      const bool from_store = table != nullptr;
      if (!from_store) {
        table = std::make_shared<const core::FrequencyTable>(builder());
        store_write_through(key, *table);
      }
      promise.set_value(std::move(table));
      if (!from_store) {
        std::lock_guard<std::mutex> lock(stripe.mu);
        ++stripe.builds_completed;
      }
    } catch (...) {
      // Drop the poisoned entry so a later request can retry (a transient
      // failure must not disable this key for the process lifetime);
      // waiters already holding the future still see the exception.
      {
        std::lock_guard<std::mutex> lock(stripe.mu);
        stripe.cache.erase(key);
      }
      promise.set_exception(std::current_exception());
    }
  }
  return future.get();  // rethrows the builder's exception for every waiter
}

TableCache::Future TableCache::get_async(const std::string& key,
                                         Builder builder,
                                         util::ThreadPool& pool,
                                         bool* dispatched) {
  if (dispatched != nullptr) *dispatched = false;
  Stripe& stripe = stripe_of(key);
  auto promise = std::make_shared<
      std::promise<std::shared_ptr<const core::FrequencyTable>>>();
  Future future;
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto it = stripe.cache.find(key);
    if (it != stripe.cache.end()) return it->second;
    future = promise->get_future().share();
    stripe.cache.emplace(key, future);
  }
  // Persistent tier, consulted synchronously before the pool: a store
  // load is milliseconds (mmap + copy) against seconds of solves, and a
  // warm-restarting session whose future is ready at construction serves
  // zero fallback windows. `*dispatched` stays false — no build ran, so
  // the session must not report a TableBuildInfo.
  if (std::shared_ptr<const core::FrequencyTable> table =
          try_store_load(key)) {
    promise->set_value(std::move(table));
    return future;
  }
  if (dispatched != nullptr) *dispatched = true;
  // The job owns the builder and promise; `this` must outlive the pool
  // (documented on get_async). Same failure contract as the sync path:
  // waiters see the exception, the key becomes retryable. The job may
  // safely capture the stripe reference — stripes are fixed at
  // construction and outlive every pool the cache is used with.
  try {
    pool.post([this, &stripe, key, builder = std::move(builder), promise]() {
      try {
        auto table = std::make_shared<const core::FrequencyTable>(builder());
        store_write_through(key, *table);
        promise->set_value(std::move(table));
        std::lock_guard<std::mutex> lock(stripe.mu);
        ++stripe.builds_completed;
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(stripe.mu);
          stripe.cache.erase(key);
        }
        promise->set_exception(std::current_exception());
      }
    });
  } catch (...) {
    // post() itself failed (pool shutting down, allocation): without the
    // job, the promise would die unset and latch broken_promise into the
    // cached future for the process lifetime. Drop the entry so the key
    // stays retryable, then let the caller see the failure.
    {
      std::lock_guard<std::mutex> lock(stripe.mu);
      stripe.cache.erase(key);
    }
    throw;
  }
  return future;
}

std::size_t TableCache::builds_completed() const {
  std::size_t total = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    total += stripe->builds_completed;
  }
  return total;
}

void TableCache::attach_store(std::shared_ptr<store::TableStore> store) {
  std::lock_guard<std::mutex> lock(store_mu_);
  store_ = std::move(store);
}

std::shared_ptr<store::TableStore> TableCache::store() const {
  std::lock_guard<std::mutex> lock(store_mu_);
  return store_;
}

std::shared_ptr<const core::FrequencyTable> TableCache::try_store_load(
    const std::string& key) {
  const std::shared_ptr<store::TableStore> store = this->store();
  if (store == nullptr) return nullptr;
  StatusOr<core::FrequencyTable> loaded = store->load(key);
  if (!loaded.ok()) return nullptr;  // miss or invalid artifact: build
  store_hits_.fetch_add(1, std::memory_order_relaxed);
  return std::make_shared<const core::FrequencyTable>(
      std::move(loaded).value());
}

void TableCache::store_write_through(const std::string& key,
                                     const core::FrequencyTable& table) {
  const std::shared_ptr<store::TableStore> store = this->store();
  if (store == nullptr) return;
  // Best-effort: a full disk or revoked permission must not fail the
  // build that produced a perfectly good in-memory table.
  if (store->put(key, table, "written-by = TableCache\n").ok()) {
    store_writes_.fetch_add(1, std::memory_order_relaxed);
  }
}

// ----------------------------------------------------------- registration --

namespace internal {
Registrar::Registrar(Status status) {
  if (!status.ok()) {
    std::fprintf(stderr, "protemp registry: %s\n", status.to_string().c_str());
    std::abort();  // duplicate registration is a programming error
  }
}
}  // namespace internal

PolicyRegistry& PolicyRegistry::instance() {
  static PolicyRegistry registry;
  return registry;
}

Status PolicyRegistry::register_dfs(const std::string& name,
                                    DfsPolicyFactory factory) {
  if (!factory) {
    return Status::invalid_argument("dfs policy '" + name + "': null factory");
  }
  if (!dfs_.emplace(name, std::move(factory)).second) {
    return Status::already_exists("dfs policy '" + name +
                                  "' registered twice");
  }
  return Status();
}

Status PolicyRegistry::register_assignment(const std::string& name,
                                           AssignmentPolicyFactory factory) {
  if (!factory) {
    return Status::invalid_argument("assignment policy '" + name +
                                    "': null factory");
  }
  if (!assignment_.emplace(name, std::move(factory)).second) {
    return Status::already_exists("assignment policy '" + name +
                                  "' registered twice");
  }
  return Status();
}

Status PolicyRegistry::register_platform(const std::string& name,
                                         PlatformFactory factory) {
  if (!factory) {
    return Status::invalid_argument("platform '" + name + "': null factory");
  }
  if (!platforms_.emplace(name, std::move(factory)).second) {
    return Status::already_exists("platform '" + name + "' registered twice");
  }
  return Status();
}

Status PolicyRegistry::register_platform_family(const std::string& prefix,
                                                std::string name_template,
                                                PlatformFamilyFactory factory) {
  if (!factory) {
    return Status::invalid_argument("platform family '" + prefix +
                                    "': null factory");
  }
  if (prefix.empty() || prefix.find(':') != std::string::npos) {
    return Status::invalid_argument("platform family prefix '" + prefix +
                                    "' must be non-empty and ':'-free");
  }
  if (!platform_families_
           .emplace(prefix,
                    PlatformFamily{std::move(name_template),
                                   std::move(factory)})
           .second) {
    return Status::already_exists("platform family '" + prefix +
                                  "' registered twice");
  }
  return Status();
}

namespace {

std::string known_names(const std::vector<std::string>& names) {
  return util::join(names, ", ");
}

}  // namespace

StatusOr<std::unique_ptr<sim::DfsPolicy>> PolicyRegistry::make_dfs(
    const std::string& name, const PolicyContext& context,
    const Options& options) const {
  const auto it = dfs_.find(name);
  if (it == dfs_.end()) {
    return Status::not_found("unknown dfs policy '" + name + "' (known: " +
                             known_names(dfs_names()) + ")");
  }
  if (context.platform == nullptr) {
    return Status::failed_precondition("dfs policy '" + name +
                                       "': PolicyContext has no platform");
  }
  try {
    return it->second(context, options);
  } catch (const std::invalid_argument& e) {
    return Status::invalid_argument("dfs policy '" + name + "': " + e.what());
  } catch (const std::exception& e) {
    return Status::internal("dfs policy '" + name + "': " + e.what());
  }
}

StatusOr<std::unique_ptr<sim::AssignmentPolicy>>
PolicyRegistry::make_assignment(const std::string& name,
                                const Options& options) const {
  const auto it = assignment_.find(name);
  if (it == assignment_.end()) {
    return Status::not_found("unknown assignment policy '" + name +
                             "' (known: " + known_names(assignment_names()) +
                             ")");
  }
  try {
    return it->second(options);
  } catch (const std::invalid_argument& e) {
    return Status::invalid_argument("assignment policy '" + name +
                                    "': " + e.what());
  } catch (const std::exception& e) {
    return Status::internal("assignment policy '" + name + "': " + e.what());
  }
}

StatusOr<arch::Platform> PolicyRegistry::make_platform(
    const std::string& name, const Options& options) const {
  const auto it = platforms_.find(name);
  if (it == platforms_.end()) {
    // "<prefix>:<params>" dispatches to the prefix's family, which parses
    // the parameter suffix itself.
    const std::size_t colon = name.find(':');
    const auto family = colon == std::string::npos
                            ? platform_families_.end()
                            : platform_families_.find(name.substr(0, colon));
    if (family == platform_families_.end()) {
      return Status::not_found("unknown platform '" + name + "' (known: " +
                               known_names(platform_names()) + ")");
    }
    try {
      return family->second.factory(name, options);
    } catch (const std::invalid_argument& e) {
      return Status::invalid_argument("platform '" + name + "': " + e.what());
    } catch (const std::exception& e) {
      return Status::internal("platform '" + name + "': " + e.what());
    }
  }
  try {
    return it->second(options);
  } catch (const std::invalid_argument& e) {
    return Status::invalid_argument("platform '" + name + "': " + e.what());
  } catch (const std::exception& e) {
    return Status::internal("platform '" + name + "': " + e.what());
  }
}

bool PolicyRegistry::has_dfs(const std::string& name) const {
  return dfs_.count(name) != 0;
}
bool PolicyRegistry::has_assignment(const std::string& name) const {
  return assignment_.count(name) != 0;
}
bool PolicyRegistry::has_platform(const std::string& name) const {
  if (platforms_.count(name) != 0) return true;
  const std::size_t colon = name.find(':');
  return colon != std::string::npos &&
         platform_families_.count(name.substr(0, colon)) != 0;
}

namespace {
template <typename Map>
std::vector<std::string> keys_of(const Map& map) {
  std::vector<std::string> names;
  names.reserve(map.size());
  for (const auto& [key, value] : map) {
    (void)value;
    names.push_back(key);
  }
  return names;  // std::map iterates sorted
}
}  // namespace

std::vector<std::string> PolicyRegistry::dfs_names() const {
  return keys_of(dfs_);
}
std::vector<std::string> PolicyRegistry::assignment_names() const {
  return keys_of(assignment_);
}
std::vector<std::string> PolicyRegistry::platform_names() const {
  std::vector<std::string> names = keys_of(platforms_);
  for (const auto& [prefix, family] : platform_families_) {
    (void)prefix;
    names.push_back(family.name_template);
  }
  std::sort(names.begin(), names.end());
  return names;
}

StatusOr<std::unique_ptr<sim::DfsPolicy>> make_dfs_policy(
    const std::string& name, const PolicyContext& context,
    const Options& options) {
  return PolicyRegistry::instance().make_dfs(name, context, options);
}

StatusOr<std::unique_ptr<sim::AssignmentPolicy>> make_assignment_policy(
    const std::string& name, const Options& options) {
  return PolicyRegistry::instance().make_assignment(name, options);
}

StatusOr<arch::Platform> make_platform(const std::string& name,
                                       const Options& options) {
  return PolicyRegistry::instance().make_platform(name, options);
}

void print_registered_policies(std::ostream& out) {
  const PolicyRegistry& registry = PolicyRegistry::instance();
  out << "dfs policies:\n";
  for (const std::string& name : registry.dfs_names()) {
    out << "  " << name << "\n";
  }
  out << "assignment policies:\n";
  for (const std::string& name : registry.assignment_names()) {
    out << "  " << name << "\n";
  }
  out << "platforms:\n";
  for (const std::string& name : registry.platform_names()) {
    out << "  " << name << "\n";
  }
}

// ------------------------------------------------- built-in registrations --
//
// These live here (not next to the policy classes) so that linking any user
// of the api layer always pulls them in, even from a static library where
// unreferenced translation units are dropped.

namespace {

/// Builds the Phase-1 grid for the "pro-temp" table from options, and a
/// cache key that uniquely identifies the resulting table.
using TableGrid = TableGridSpec;

StatusOr<TableGrid> table_grid_from(OptionReader& reader,
                                    const PolicyContext& context) {
  const double tstart_min = reader.get_double("tstart-min", 50.0);
  const double tstart_max =
      reader.get_double("tstart-max", context.optimizer.tmax);
  const double tstart_step = reader.get_double("tstart-step", 5.0);
  const double f_min = reader.get_double("ftarget-min-mhz", 100.0);
  const double f_max = reader.get_double(
      "ftarget-max-mhz", util::to_mhz(context.platform->fmax()));
  const double f_step = reader.get_double("ftarget-step-mhz", 100.0);
  if (tstart_step <= 0.0 || f_step <= 0.0) {
    return Status::invalid_argument("grid steps must be positive");
  }
  if (tstart_max < tstart_min || f_max < f_min) {
    return Status::invalid_argument("grid max must be >= grid min");
  }
  TableGrid grid;
  for (double t = tstart_min; t <= tstart_max + 1e-9; t += tstart_step) {
    grid.tstart.push_back(t);
  }
  for (double f = f_min; f <= f_max + 1e-9; f += f_step) {
    grid.ftarget.push_back(util::mhz(f));
  }
  return grid;
}

}  // namespace

StatusOr<TableGridSpec> table_grid_from_options(const Options& options,
                                                const PolicyContext& context) {
  OptionReader reader(options);
  StatusOr<TableGridSpec> grid = table_grid_from(reader, context);
  if (!grid.ok()) return grid.status();
  if (Status s = reader.finish(); !s.ok()) return s;
  return grid;
}

std::string table_identity_key(const PolicyContext& context,
                               const TableGridSpec& grid) {
  const core::ProTempConfig& c = context.optimizer;
  std::string key = context.platform_key.empty() ? context.platform->name()
                                                 : context.platform_key;
  // warm_start is part of the key: warm and cold builds agree only to the
  // solver tolerance, and table identity must be exact per configuration.
  // The linalg backend is keyed too — its kernels are bitwise-identical by
  // design, but table identity must be exact per *configuration*, not per
  // proof about the configuration.
  key += util::format(
      "|tmax=%.17g|win=%.17g|dt=%.17g|uni=%d|grad=%d|gw=%.17g|stride=%zu"
      "|slack=%.17g|floor=%.17g|budget=%.17g|warm=%d|be=%s",
      c.tmax, c.dfs_period, c.dt, c.uniform_frequency ? 1 : 0,
      c.minimize_gradient ? 1 : 0, c.gradient_weight, c.gradient_step_stride,
      c.constraint_slack, c.sigma_floor,
      c.power_budget_watts.value_or(-1.0), c.warm_start ? 1 : 0,
      linalg::to_string(c.backend));
  for (const double t : grid.tstart) key += util::format("|t%.17g", t);
  for (const double f : grid.ftarget) key += util::format("|f%.17g", f);
  // Heterogeneous per-core physics and per-node ceilings change the table's
  // *contents* (per-core frequency bounds, extra temperature rows), so a
  // het or ceiling-bearing build must never alias a homogeneous one even
  // under an identical platform_key. Segments are appended only when
  // present, keeping every pre-existing homogeneous key byte-identical —
  // and therefore every existing store artifact addressable.
  const arch::Platform& platform = *context.platform;
  if (platform.heterogeneous()) {
    for (std::size_t v = 0; v < platform.num_cores(); ++v) {
      key += util::format("|het%zu=%.17g,%.17g,%.17g,%.17g", v,
                          platform.core_fmax(v), platform.core_pmax_of(v),
                          platform.leakage_scale_of(v),
                          platform.core_tmax(v).value_or(-1.0));
    }
  }
  for (const arch::ThermalCeiling& ceiling : platform.thermal_ceilings()) {
    key += util::format("|ceil=%s:%.17g", ceiling.name.c_str(),
                        ceiling.tmax_celsius);
  }
  for (const auto& [block_name, tmax] : c.node_ceilings) {
    key += util::format("|ctmax=%s:%.17g", block_name.c_str(), tmax);
  }
  // Solver settings change which cells converge (a Newton budget or
  // deadline can starve them), so any non-default setting is keyed in full.
  const convex::BarrierOptions& o = c.solver;
  if (o != convex::BarrierOptions{}) {
    key += util::format(
        "|solver=%.17g,%.17g,%.17g,%.17g,%zu,%zu,%zu,%.17g,%.17g,%.17g,%.17g",
        o.t_initial, o.mu, o.tolerance, o.newton_tolerance,
        o.max_newton_per_stage, o.max_stages, o.max_newton_total,
        o.solve_deadline_seconds, o.line_search_alpha, o.line_search_beta,
        o.ridge);
  }
  return key;
}

namespace {

PROTEMP_REGISTER_DFS_POLICY(
    "no-tc", [](const PolicyContext&, const Options& options)
                 -> StatusOr<std::unique_ptr<sim::DfsPolicy>> {
      OptionReader reader(options);
      if (Status s = reader.finish(); !s.ok()) return s;
      return std::unique_ptr<sim::DfsPolicy>(new core::NoTcPolicy());
    });

PROTEMP_REGISTER_DFS_POLICY(
    "basic-dfs", [](const PolicyContext&, const Options& options)
                     -> StatusOr<std::unique_ptr<sim::DfsPolicy>> {
      OptionReader reader(options);
      core::BasicDfsPolicy::Options opts;
      opts.trip_celsius = reader.get_double("trip", opts.trip_celsius);
      opts.continuous_trip =
          reader.get_bool("continuous-trip", opts.continuous_trip);
      if (Status s = reader.finish(); !s.ok()) return s;
      return std::unique_ptr<sim::DfsPolicy>(new core::BasicDfsPolicy(opts));
    });

PROTEMP_REGISTER_DFS_POLICY(
    "pro-temp", [](const PolicyContext& context, const Options& options)
                    -> StatusOr<std::unique_ptr<sim::DfsPolicy>> {
      OptionReader reader(options);
      StatusOr<TableGrid> grid = table_grid_from(reader, context);
      if (!grid.ok()) return grid.status();
      if (Status s = reader.finish(); !s.ok()) return s;

      const std::string key = table_identity_key(context, *grid);

      // The decimation stride serves the same fine-table identity (it is
      // deliberately not part of the key), so a coarse-serving session and
      // a fine-serving one share one cache/store artifact.
      const std::size_t stride = context.optimizer.table_interp_stride;
      if (stride > 1 && context.build_pool != nullptr) {
        return Status::invalid_argument(
            "pro-temp: opt.table_interp_stride > 1 is incompatible with "
            "async table builds (the certified decimation runs at "
            "construction)");
      }
      if (stride > 1 && !(context.frequency_quantum > 0.0)) {
        // Checked before the grid of solves: a misconfigured session must
        // fail in microseconds, not after building the whole table.
        return Status::invalid_argument(
            "pro-temp: opt.table_interp_stride > 1 requires "
            "sim.frequency_quantum > 0 — the certified interpolation "
            "error is checked against the serving quantum");
      }

      if (context.build_pool != nullptr && context.table_cache != nullptr) {
        // Async serving path: never build on the calling thread. The
        // builder captures everything by value (including a copy of the
        // platform — cheap next to a grid of barrier solves) because it
        // outlives this factory call, and possibly the session that
        // dispatched it.
        const double trip = context.async_fallback.trip_celsius.value_or(
            context.optimizer.tmax);
        auto info = std::make_shared<TableBuildInfo>();
        auto platform = std::make_shared<const arch::Platform>(
            *context.platform);
        bool dispatched = false;
        TableCache::Future future = context.table_cache->get_async(
            key,
            [info, platform, optimizer_config = context.optimizer,
             tstart = grid->tstart, ftarget = grid->ftarget, key]() {
              const auto start = std::chrono::steady_clock::now();
              const core::ProTempOptimizer optimizer(*platform,
                                                     optimizer_config);
              core::FrequencyTable table =
                  core::FrequencyTable::build(optimizer, tstart, ftarget);
              // Filled before the promise is satisfied, so the swapping
              // thread reads it ordered-after this write.
              info->cache_key = key;
              info->wall_seconds = std::chrono::duration<double>(
                                       std::chrono::steady_clock::now() -
                                       start)
                                       .count();
              info->rows = table.rows();
              info->cols = table.cols();
              return table;
            },
            *context.build_pool, &dispatched);
        // Only the dispatching session reports the build (deferred to the
        // hot-swap, on the stepping thread); cache hits never report.
        return std::unique_ptr<sim::DfsPolicy>(new AsyncTablePolicy(
            std::move(future), trip, dispatched ? std::move(info) : nullptr));
      }

      // The builder only runs on a cache miss, so on_table_build reports
      // builds that actually happened, never cache hits.
      const auto build = [&]() {
        const auto start = std::chrono::steady_clock::now();
        const core::ProTempOptimizer optimizer(*context.platform,
                                               context.optimizer);
        core::FrequencyTable table = core::FrequencyTable::build(
            optimizer, grid->tstart, grid->ftarget);
        if (context.on_table_build) {
          TableBuildInfo info;
          info.cache_key = key;
          info.wall_seconds = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();
          info.rows = table.rows();
          info.cols = table.cols();
          context.on_table_build(info);
        }
        return table;
      };
      core::FrequencyTable table =
          context.table_cache ? *context.table_cache->get_or_build(key, build)
                              : build();
      if (stride > 1) {
        StatusOr<store::InterpolatedTable> interp =
            store::InterpolatedTable::build(table, stride, stride,
                                            context.frequency_quantum);
        if (!interp.ok()) {
          return interp.status().with_context(
              util::format("pro-temp: opt.table_interp_stride=%zu", stride));
        }
        return std::unique_ptr<sim::DfsPolicy>(
            new store::InterpolatedProTempPolicy(std::move(interp).value()));
      }
      return std::unique_ptr<sim::DfsPolicy>(
          new core::ProTempPolicy(std::move(table)));
    });

PROTEMP_REGISTER_DFS_POLICY(
    "pro-temp-online", [](const PolicyContext& context, const Options& options)
                           -> StatusOr<std::unique_ptr<sim::DfsPolicy>> {
      OptionReader reader(options);
      if (Status s = reader.finish(); !s.ok()) return s;
      auto optimizer = std::make_shared<const core::ProTempOptimizer>(
          *context.platform, context.optimizer);
      return std::unique_ptr<sim::DfsPolicy>(
          new core::OnlineProTempPolicy(std::move(optimizer)));
    });

PROTEMP_REGISTER_DFS_POLICY(
    "integral", [](const PolicyContext& context, const Options& options)
                    -> StatusOr<std::unique_ptr<sim::DfsPolicy>> {
      OptionReader reader(options);
      core::IntegralDfsPolicy::Options opts;
      // The scenario's thermal limit is the natural regulation target; an
      // explicit dfs.setpoint overrides it (e.g. to regulate with margin).
      opts.setpoint_celsius =
          reader.get_double("setpoint", context.optimizer.tmax);
      opts.gain_per_celsius_second =
          reader.get_double("gain", opts.gain_per_celsius_second);
      opts.adaptive_gain =
          reader.get_bool("adaptive-gain", opts.adaptive_gain);
      if (Status s = reader.finish(); !s.ok()) return s;
      try {
        return std::unique_ptr<sim::DfsPolicy>(
            new core::IntegralDfsPolicy(opts));
      } catch (const std::invalid_argument& e) {
        return Status::invalid_argument(e.what());
      }
    });

PROTEMP_REGISTER_DFS_POLICY(
    "proportional", [](const PolicyContext& context, const Options& options)
                        -> StatusOr<std::unique_ptr<sim::DfsPolicy>> {
      OptionReader reader(options);
      core::ProportionalDfsPolicy::Options opts;
      opts.setpoint_celsius =
          reader.get_double("setpoint", context.optimizer.tmax);
      opts.kp_per_celsius = reader.get_double("kp", opts.kp_per_celsius);
      if (Status s = reader.finish(); !s.ok()) return s;
      try {
        return std::unique_ptr<sim::DfsPolicy>(
            new core::ProportionalDfsPolicy(opts));
      } catch (const std::invalid_argument& e) {
        return Status::invalid_argument(e.what());
      }
    });

PROTEMP_REGISTER_ASSIGNMENT_POLICY(
    "first-idle", [](const Options& options)
                      -> StatusOr<std::unique_ptr<sim::AssignmentPolicy>> {
      OptionReader reader(options);
      if (Status s = reader.finish(); !s.ok()) return s;
      return std::unique_ptr<sim::AssignmentPolicy>(
          new sim::FirstIdleAssignment());
    });

PROTEMP_REGISTER_ASSIGNMENT_POLICY(
    "coolest-first", [](const Options& options)
                         -> StatusOr<std::unique_ptr<sim::AssignmentPolicy>> {
      OptionReader reader(options);
      if (Status s = reader.finish(); !s.ok()) return s;
      return std::unique_ptr<sim::AssignmentPolicy>(
          new sim::CoolestFirstAssignment());
    });

PROTEMP_REGISTER_ASSIGNMENT_POLICY(
    "round-robin", [](const Options& options)
                       -> StatusOr<std::unique_ptr<sim::AssignmentPolicy>> {
      OptionReader reader(options);
      if (Status s = reader.finish(); !s.ok()) return s;
      return std::unique_ptr<sim::AssignmentPolicy>(
          new sim::RoundRobinAssignment());
    });

PROTEMP_REGISTER_ASSIGNMENT_POLICY(
    "random", [](const Options& options)
                  -> StatusOr<std::unique_ptr<sim::AssignmentPolicy>> {
      OptionReader reader(options);
      const std::uint64_t seed = reader.get_seed("seed", 1234);
      if (Status s = reader.finish(); !s.ok()) return s;
      return std::unique_ptr<sim::AssignmentPolicy>(
          new sim::RandomAssignment(seed));
    });

PROTEMP_REGISTER_ASSIGNMENT_POLICY(
    "adaptive-random", [](const Options& options)
                           -> StatusOr<std::unique_ptr<sim::AssignmentPolicy>> {
      OptionReader reader(options);
      const std::uint64_t seed = reader.get_seed("seed", 1234);
      const double decay = reader.get_double("history-decay", 0.98);
      const double sharpness = reader.get_double("sharpness", 2.0);
      if (Status s = reader.finish(); !s.ok()) return s;
      return std::unique_ptr<sim::AssignmentPolicy>(
          new sim::AdaptiveRandomAssignment(seed, decay, sharpness));
    });

PROTEMP_REGISTER_PLATFORM_FAMILY(
    "mesh", "mesh:<rows>x<cols>",
    [](const std::string& name,
       const Options& options) -> StatusOr<arch::Platform> {
      const auto dims = arch::parse_mesh_dims(name);
      if (!dims) {
        return Status::invalid_argument(
            "platform '" + name +
            "': expected mesh:<rows>x<cols> with dimensions in [1, 64]");
      }
      OptionReader reader(options);
      arch::MeshConfig config;
      config.rows = dims->first;
      config.cols = dims->second;
      config.core_edge_mm =
          reader.get_double("core-edge-mm", config.core_edge_mm);
      config.fmax_hz = util::mhz(
          reader.get_double("fmax-mhz", util::to_mhz(config.fmax_hz)));
      config.core_pmax_watts =
          reader.get_double("core-pmax", config.core_pmax_watts);
      config.other_power_fraction = reader.get_double(
          "other-power-fraction", config.other_power_fraction);
      config.background_activity_fraction = reader.get_double(
          "background-activity-fraction", config.background_activity_fraction);
      config.power_exponent =
          reader.get_double("power-exponent", config.power_exponent);
      config.idle_fraction =
          reader.get_double("idle-fraction", config.idle_fraction);
      config.ambient_celsius =
          reader.get_double("ambient", config.ambient_celsius);
      if (Status s = reader.finish(); !s.ok()) return s;
      return arch::make_mesh_platform(config);
    });

PROTEMP_REGISTER_PLATFORM_FAMILY(
    "het", "het:<base>[@<count>x<class>+...]",
    [](const std::string& name,
       const Options& options) -> StatusOr<arch::Platform> {
      const auto spec = arch::parse_het_spec(name);
      if (!spec) {
        return Status::invalid_argument(
            "platform '" + name +
            "': expected het:<base>[@<count>x<class>[+<count>x<class>...]] "
            "with distinct class names");
      }
      // Class-prefixed options ("<class>-fmax-scale", ...) are consumed
      // here; everything else forwards verbatim to the base factory, so a
      // het spec can still configure its base (ambient, core-pmax, ...).
      std::vector<arch::HetClassParams> params(spec->groups.size());
      std::set<std::string> consumed;
      for (std::size_t i = 0; i < spec->groups.size(); ++i) {
        const std::string& cls = spec->groups[i].class_name;
        const auto read = [&](const std::string& suffix,
                              double* out) -> Status {
          const std::string key = cls + "-" + suffix;
          const auto it = options.entries().find(key);
          if (it == options.entries().end()) return Status();
          consumed.insert(key);
          try {
            *out = util::parse_double(it->second);
          } catch (const std::exception&) {
            return Status::invalid_argument("option '" + key +
                                            "': expected a number, got '" +
                                            it->second + "'");
          }
          return Status();
        };
        double tmax = 0.0;
        bool has_tmax = false;
        {
          const std::string key = cls + "-tmax";
          if (options.entries().count(key)) has_tmax = true;
        }
        if (Status s = read("fmax-scale", &params[i].fmax_scale); !s.ok()) {
          return s;
        }
        if (Status s = read("pmax-scale", &params[i].pmax_scale); !s.ok()) {
          return s;
        }
        if (Status s = read("leakage-scale", &params[i].leakage_scale);
            !s.ok()) {
          return s;
        }
        if (has_tmax) {
          if (Status s = read("tmax", &tmax); !s.ok()) return s;
          params[i].tmax_celsius = tmax;
        }
      }
      Options base_options;
      for (const auto& [key, value] : options.entries()) {
        if (!consumed.count(key)) base_options.set(key, value);
      }
      StatusOr<arch::Platform> base =
          PolicyRegistry::instance().make_platform(spec->base, base_options);
      if (!base.ok()) {
        return base.status().with_context("het base of '" + name + "'");
      }
      if (!spec->groups.empty()) {
        arch::apply_het_classes(*base, spec->groups, params);
      }
      return base;
    });

PROTEMP_REGISTER_PLATFORM_FAMILY(
    "stack", "stack:<rows>x<cols>[+<k>dram]",
    [](const std::string& name,
       const Options& options) -> StatusOr<arch::Platform> {
      const auto dims = arch::parse_stack_dims(name);
      if (!dims) {
        return Status::invalid_argument(
            "platform '" + name +
            "': expected stack:<rows>x<cols>[+<k>dram] with dimensions in "
            "[1, 64] and <k> in [1, 4]");
      }
      OptionReader reader(options);
      arch::StackConfig config;
      config.rows = dims->rows;
      config.cols = dims->cols;
      config.dram_layers = dims->dram_layers;
      config.core_edge_mm =
          reader.get_double("core-edge-mm", config.core_edge_mm);
      config.fmax_hz = util::mhz(
          reader.get_double("fmax-mhz", util::to_mhz(config.fmax_hz)));
      config.core_pmax_watts =
          reader.get_double("core-pmax", config.core_pmax_watts);
      config.other_power_fraction = reader.get_double(
          "other-power-fraction", config.other_power_fraction);
      config.dram_power_fraction = reader.get_double(
          "dram-power-fraction", config.dram_power_fraction);
      config.dram_tmax_celsius =
          reader.get_double("dram-tmax", config.dram_tmax_celsius);
      config.background_activity_fraction = reader.get_double(
          "background-activity-fraction", config.background_activity_fraction);
      config.power_exponent =
          reader.get_double("power-exponent", config.power_exponent);
      config.idle_fraction =
          reader.get_double("idle-fraction", config.idle_fraction);
      config.ambient_celsius =
          reader.get_double("ambient", config.ambient_celsius);
      if (Status s = reader.finish(); !s.ok()) return s;
      return arch::make_stack_platform(config);
    });

PROTEMP_REGISTER_PLATFORM(
    "niagara8",
    [](const Options& options) -> StatusOr<arch::Platform> {
      OptionReader reader(options);
      arch::NiagaraConfig config;
      config.fmax_hz = util::mhz(
          reader.get_double("fmax-mhz", util::to_mhz(config.fmax_hz)));
      config.core_pmax_watts =
          reader.get_double("core-pmax", config.core_pmax_watts);
      config.other_power_fraction = reader.get_double(
          "other-power-fraction", config.other_power_fraction);
      config.background_activity_fraction = reader.get_double(
          "background-activity-fraction", config.background_activity_fraction);
      config.power_exponent =
          reader.get_double("power-exponent", config.power_exponent);
      config.idle_fraction =
          reader.get_double("idle-fraction", config.idle_fraction);
      config.ambient_celsius =
          reader.get_double("ambient", config.ambient_celsius);
      if (Status s = reader.finish(); !s.ok()) return s;
      return arch::make_niagara_platform(config);
    });

}  // namespace

}  // namespace protemp::api

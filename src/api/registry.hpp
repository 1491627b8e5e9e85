// String-keyed factories for policies and platforms.
//
// Examples, benches and scenario specs never name concrete classes: they ask
// the registry for "pro-temp" / "basic-dfs" / "coolest-first" / "niagara8"
// and pass a flat key/value Options map. Unknown names and malformed or
// unrecognized options surface as api::Status, never as crashes.
//
// Adding a policy is one line in a .cpp file:
//
//   PROTEMP_REGISTER_ASSIGNMENT_POLICY("my-policy", [](const Options& o)
//       -> StatusOr<std::unique_ptr<sim::AssignmentPolicy>> { ... });
//
// The built-in registrations live in registry.cpp (so they are always linked
// in, even from a static library); out-of-tree policies can self-register
// from any translation unit that is linked into the final binary.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "api/status.hpp"
#include "arch/platform.hpp"
#include "core/frequency_table.hpp"
#include "core/optimizer.hpp"
#include "sim/policies.hpp"
#include "util/thread_pool.hpp"

namespace protemp::store {
class TableStore;  // persistent tier (src/store/table_store.hpp)
}  // namespace protemp::store

namespace protemp::api {

/// Flat string→string option map. Numeric and boolean values are stored in
/// their text form and parsed by the consuming factory via OptionReader, so
/// options round-trip losslessly through scenario-spec files.
class Options {
 public:
  Options() = default;

  Options& set(const std::string& key, std::string value);
  Options& set(const std::string& key, const char* value);
  Options& set(const std::string& key, double value);
  Options& set(const std::string& key, bool value);

  bool contains(const std::string& key) const;
  bool empty() const noexcept { return values_.empty(); }
  std::size_t size() const noexcept { return values_.size(); }
  const std::map<std::string, std::string>& entries() const noexcept {
    return values_;
  }

  friend bool operator==(const Options&, const Options&) = default;

 private:
  std::map<std::string, std::string> values_;
};

/// Typed, consuming view over an Options map, mirroring util::CliArgs: each
/// get_* declares the key as known; finish() reports the first parse error
/// or any keys the factory never asked about (catches option typos).
class OptionReader {
 public:
  explicit OptionReader(const Options& options);

  std::string get_string(const std::string& key, std::string default_value);
  double get_double(const std::string& key, double default_value);
  long long get_int(const std::string& key, long long default_value);
  bool get_bool(const std::string& key, bool default_value);
  std::uint64_t get_seed(const std::string& key, std::uint64_t default_value);

  /// Ok iff every provided key was consumed and every value parsed.
  Status finish() const;

 private:
  const Options& options_;
  std::map<std::string, bool> consumed_;
  Status first_error_;
};

/// Shares Phase-1 frequency tables between scenarios: building one is a
/// full grid of barrier solves, so ScenarioRunner keys tables on (platform,
/// optimizer config, grid) and builds each distinct table exactly once even
/// when many worker threads request it concurrently. Builder exceptions
/// propagate to every waiter of that key; the failed entry is dropped so a
/// later request can retry.
///
/// Internally the key space is striped: each key hashes to one of `stripes`
/// independent (mutex, map) shards, so concurrent lookups of different keys
/// — a ShardedFleet bringing up hundreds of sessions, a batch runner's
/// worker threads — do not serialize on one cache-wide mutex. Requests for
/// the SAME key still coordinate exactly as before (one build, shared
/// future, poisoned entries dropped): striping changes contention, never
/// semantics.
class TableCache {
 public:
  using Builder = std::function<core::FrequencyTable()>;
  using Future =
      std::shared_future<std::shared_ptr<const core::FrequencyTable>>;

  /// `stripes` fixes the lock granularity for the cache's lifetime (at
  /// least 1; the default comfortably exceeds every in-tree shard count).
  explicit TableCache(std::size_t stripes = 16);

  /// Blocking path (the default everywhere): a miss builds on the calling
  /// thread; concurrent requests for the same key wait for that one build.
  std::shared_ptr<const core::FrequencyTable> get_or_build(
      const std::string& key, const Builder& builder);

  /// Non-blocking path: a miss dispatches `builder` to `pool` and returns
  /// the in-flight future immediately (`*dispatched = true` only for the
  /// caller that scheduled the build); a hit returns the existing —
  /// possibly already ready — future. `ready()` tells a control loop
  /// whether get() would block. The cache must outlive every pool job it
  /// dispatched: drain or destroy the pool before the cache.
  Future get_async(const std::string& key, Builder builder,
                   util::ThreadPool& pool, bool* dispatched = nullptr);
  static bool ready(const Future& future) {
    return future.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
  }

  /// Completed builds this cache ran (sync or async; failed builds
  /// excluded). A store hit is NOT a build — warm restarts from a
  /// populated store report builds_completed == 0.
  std::size_t builds_completed() const;

  /// Attaches a persistent tier: memory miss -> store lookup (a hit loads
  /// in milliseconds and counts under store_hits, not builds_completed);
  /// builds that do run are written through best-effort (store_writes).
  /// Both the sync and async paths consult the store, so an async session
  /// restarting against a populated store gets a ready future and serves
  /// zero fallback windows. Attach before the first lookup; the store
  /// must outlive the cache's last operation (a shared_ptr is held).
  void attach_store(std::shared_ptr<store::TableStore> store);
  std::shared_ptr<store::TableStore> store() const;
  std::size_t store_hits() const noexcept { return store_hits_; }
  std::size_t store_writes() const noexcept { return store_writes_; }

 private:
  /// One lock domain: every operation on a key touches exactly its
  /// stripe, and the per-stripe build counter is only ever mutated under
  /// that stripe's mutex (builds_completed() sums across stripes).
  struct Stripe {
    mutable std::mutex mu;
    std::map<std::string, Future> cache;
    std::size_t builds_completed = 0;
  };

  Stripe& stripe_of(const std::string& key);
  /// Store lookup + counters, shared by the sync and async miss paths;
  /// nullptr on miss or when no store is attached.
  std::shared_ptr<const core::FrequencyTable> try_store_load(
      const std::string& key);
  void store_write_through(const std::string& key,
                           const core::FrequencyTable& table);

  std::vector<std::unique_ptr<Stripe>> stripes_;
  mutable std::mutex store_mu_;  ///< guards store_ (counters are atomic)
  std::shared_ptr<store::TableStore> store_;
  std::atomic<std::size_t> store_hits_{0};
  std::atomic<std::size_t> store_writes_{0};
};

/// Describes one Phase-1 table build that actually ran (cache misses only;
/// a cache hit never re-builds and never reports).
struct TableBuildInfo {
  std::string cache_key;      ///< full identity of the built table
  double wall_seconds = 0.0;  ///< host time spent in the grid of solves
  std::size_t rows = 0;       ///< tstart grid points
  std::size_t cols = 0;       ///< ftarget grid points
};

/// What a non-blocking "pro-temp" session serves while its Phase-1 table
/// build is still in flight (the fallback contract of DESIGN.md §6c):
/// every core runs at fmax; a core observed at/above `trip_celsius` is
/// dropped to the platform floor (0 Hz unless sim.fmin raises it) and
/// latched there until the next window boundary re-reads it — the
/// Basic-DFS continuous-trip semantics, as a reactive governor. Thermally
/// safe, not workload-optimal: the point is that the control loop never
/// waits on the optimizer.
struct AsyncFallback {
  /// Trip threshold [degC]; unset -> ProTempConfig::tmax.
  std::optional<double> trip_celsius;
};

/// Everything a DfsPolicy factory may need beyond its options: the platform
/// being simulated and the Phase-1 optimizer configuration. `table_cache`
/// (optional) lets ScenarioRunner share identical Phase-1 tables across
/// scenarios instead of re-solving the grid per run.
struct PolicyContext {
  const arch::Platform* platform = nullptr;
  core::ProTempConfig optimizer;
  TableCache* table_cache = nullptr;
  /// Cache-key identity of `platform`. Must differ whenever the platform's
  /// physics differ — ScenarioRunner sets it to the registry name plus every
  /// factory option, so e.g. two niagara8 platforms with different ambients
  /// never share a Phase-1 table. Empty falls back to platform->name().
  std::string platform_key;
  /// Optional observer invoked (on the calling thread) after each Phase-1
  /// table build this construction triggered. ControlSession routes it to
  /// SessionObserver::on_table_build. In async mode (build_pool set) the
  /// report is deferred to the table hot-swap instead, so it still fires on
  /// the stepping thread — see api::AsyncTablePolicy.
  std::function<void(const TableBuildInfo&)> on_table_build;
  /// Non-null (together with table_cache) makes "pro-temp" construction
  /// non-blocking: a cache miss dispatches the Phase-1 build to this pool
  /// and the factory returns an api::AsyncTablePolicy that serves
  /// `async_fallback` until the table lands at a window boundary. Null (the
  /// default) keeps the synchronous build-in-ctor path, byte-identical to
  /// prior behavior.
  util::ThreadPool* build_pool = nullptr;
  AsyncFallback async_fallback;
  /// The serving layer's frequency quantum [Hz] (sim.frequency_quantum).
  /// Consumed by the "pro-temp" factory when opt.table_interp_stride > 1:
  /// the interpolated table's certified error bound must fit under one
  /// quantum, so decimation never changes a post-quantization command by
  /// more than one step. 0 (the default) means continuous frequencies —
  /// interpolated serving is rejected with a named error.
  double frequency_quantum = 0.0;
};

using DfsPolicyFactory =
    std::function<StatusOr<std::unique_ptr<sim::DfsPolicy>>(
        const PolicyContext&, const Options&)>;
using AssignmentPolicyFactory =
    std::function<StatusOr<std::unique_ptr<sim::AssignmentPolicy>>(
        const Options&)>;
using PlatformFactory =
    std::function<StatusOr<arch::Platform>(const Options&)>;
/// Factory of a *parametric* platform family: receives the full requested
/// name (e.g. "mesh:8x8") and parses its parameters from the suffix.
using PlatformFamilyFactory =
    std::function<StatusOr<arch::Platform>(const std::string& name,
                                           const Options&)>;

class PolicyRegistry {
 public:
  /// Process-wide registry instance (built-ins registered on first use).
  static PolicyRegistry& instance();

  Status register_dfs(const std::string& name, DfsPolicyFactory factory);
  Status register_assignment(const std::string& name,
                             AssignmentPolicyFactory factory);
  Status register_platform(const std::string& name, PlatformFactory factory);
  /// Registers a parametric family resolved by prefix: any requested name
  /// of the form "<prefix>:<params>" without an exact-name registration
  /// dispatches to `factory` with the full name. `name_template` is the
  /// human-facing placeholder listed next to the concrete platforms (e.g.
  /// "mesh:<rows>x<cols>"), so --list-policies and not-found messages
  /// advertise the family.
  Status register_platform_family(const std::string& prefix,
                                  std::string name_template,
                                  PlatformFamilyFactory factory);

  StatusOr<std::unique_ptr<sim::DfsPolicy>> make_dfs(
      const std::string& name, const PolicyContext& context,
      const Options& options = {}) const;
  StatusOr<std::unique_ptr<sim::AssignmentPolicy>> make_assignment(
      const std::string& name, const Options& options = {}) const;
  StatusOr<arch::Platform> make_platform(const std::string& name,
                                         const Options& options = {}) const;

  bool has_dfs(const std::string& name) const;
  bool has_assignment(const std::string& name) const;
  /// True for exact platform names and for "<prefix>:<...>" names whose
  /// prefix is a registered family (parameter validation happens at
  /// make_platform time, with a line-of-sight Status).
  bool has_platform(const std::string& name) const;

  /// Sorted names, for --list-policies and error messages. Platform names
  /// include each family's `name_template` placeholder.
  std::vector<std::string> dfs_names() const;
  std::vector<std::string> assignment_names() const;
  std::vector<std::string> platform_names() const;

 private:
  struct PlatformFamily {
    std::string name_template;
    PlatformFamilyFactory factory;
  };

  PolicyRegistry() = default;

  std::map<std::string, DfsPolicyFactory> dfs_;
  std::map<std::string, AssignmentPolicyFactory> assignment_;
  std::map<std::string, PlatformFactory> platforms_;
  std::map<std::string, PlatformFamily> platform_families_;  ///< by prefix
};

/// The Phase-1 grid the "pro-temp" factory derives from its options
/// (tstart-min/max/step, ftarget-min/max/step-mhz), exposed so
/// out-of-band builders (tools/tablectl) derive bit-identical grids —
/// and therefore bit-identical store keys — from the same option names.
struct TableGridSpec {
  std::vector<double> tstart;   ///< [degC]
  std::vector<double> ftarget;  ///< [Hz]
};
StatusOr<TableGridSpec> table_grid_from_options(const Options& options,
                                                const PolicyContext& context);

/// Cache/store identity of a Phase-1 table: platform key + every
/// ProTempConfig field + linalg backend + both grids at full precision.
/// TableCache keys its memory tier and store::TableStore keys its
/// artifacts with this exact string, which is what lets a tablectl-built
/// artifact satisfy a serving session's lookup.
std::string table_identity_key(const PolicyContext& context,
                               const TableGridSpec& grid);

/// Convenience wrappers over PolicyRegistry::instance().
StatusOr<std::unique_ptr<sim::DfsPolicy>> make_dfs_policy(
    const std::string& name, const PolicyContext& context,
    const Options& options = {});
StatusOr<std::unique_ptr<sim::AssignmentPolicy>> make_assignment_policy(
    const std::string& name, const Options& options = {});
StatusOr<arch::Platform> make_platform(const std::string& name,
                                       const Options& options = {});

/// Prints every registered policy and platform name (one block per kind);
/// examples expose this behind `--list-policies`.
void print_registered_policies(std::ostream& out);

namespace internal {
/// Runs a registration at static-initialization time; aborts the process on
/// a duplicate name (a programming error, not a runtime condition).
struct Registrar {
  explicit Registrar(Status status);
};
}  // namespace internal

#define PROTEMP_REGISTRY_CONCAT_INNER(a, b) a##b
#define PROTEMP_REGISTRY_CONCAT(a, b) PROTEMP_REGISTRY_CONCAT_INNER(a, b)

/// Self-registration macros: one line per policy, at namespace scope.
#define PROTEMP_REGISTER_DFS_POLICY(name, factory)                        \
  static const ::protemp::api::internal::Registrar                        \
      PROTEMP_REGISTRY_CONCAT(protemp_dfs_registrar_, __COUNTER__)(       \
          ::protemp::api::PolicyRegistry::instance().register_dfs(        \
              name, factory))
#define PROTEMP_REGISTER_ASSIGNMENT_POLICY(name, factory)                 \
  static const ::protemp::api::internal::Registrar                        \
      PROTEMP_REGISTRY_CONCAT(protemp_assign_registrar_, __COUNTER__)(    \
          ::protemp::api::PolicyRegistry::instance().register_assignment( \
              name, factory))
#define PROTEMP_REGISTER_PLATFORM(name, factory)                          \
  static const ::protemp::api::internal::Registrar                        \
      PROTEMP_REGISTRY_CONCAT(protemp_platform_registrar_, __COUNTER__)(  \
          ::protemp::api::PolicyRegistry::instance().register_platform(   \
              name, factory))
#define PROTEMP_REGISTER_PLATFORM_FAMILY(prefix, name_template, factory)  \
  static const ::protemp::api::internal::Registrar                        \
      PROTEMP_REGISTRY_CONCAT(protemp_platform_family_registrar_,         \
                              __COUNTER__)(                               \
          ::protemp::api::PolicyRegistry::instance()                      \
              .register_platform_family(prefix, name_template, factory))

}  // namespace protemp::api

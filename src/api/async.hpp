// Non-blocking Phase-1 table acquisition for the serving layer.
//
// The paper's controller precomputes its frequency table offline; the
// online loop must never pay that cost inside a control step. When a
// session is created in async mode (SessionConfig::build_pool set), the
// "pro-temp" factory dispatches the table build to the pool and returns an
// AsyncTablePolicy immediately. Until the build lands, every DFS window is
// served by the AsyncFallback governor (trip-at-fmax); the first window
// boundary at which the future is ready hot-swaps the real ProTempPolicy
// in and — if this policy's construction dispatched the build — reports
// it through the swap callback, which ControlSession routes to
// SessionObserver::on_table_build on the stepping thread (preserving the
// observer threading contract even though the build itself ran on a pool
// worker).
//
// The full fallback chain is cache -> store -> AsyncFallback: when the
// TableCache has a store::TableStore attached and the key is on disk,
// get_async returns an already-ready future (a mmap load, not a build),
// so the session swaps its real table in at the first window boundary and
// serves zero fallback windows — the warm-restart path. Only a true miss
// pays fallback windows while the grid of solves runs on the pool.
//
// Failure contract: if the builder threw, the swap attempt rethrows from
// on_window, so the owning session's step() returns a Status at that
// window boundary (and every later one — the shared future is latched).
// Siblings sharing the cache but not that key are unaffected;
// api::SessionFleet additionally latches the failed session so one bad
// build never stalls the fleet.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "core/policies.hpp"
#include "sim/policies.hpp"

namespace protemp::api {

class AsyncTablePolicy final : public sim::DfsPolicy {
 public:
  /// `future` resolves to the Phase-1 table (or the builder's exception).
  /// `trip_celsius` is the resolved AsyncFallback threshold. `build_info`
  /// is non-null iff this construction dispatched the build; the builder
  /// fills it before the future becomes ready (the promise publication
  /// orders the write), and the swap reports it through the swap callback.
  AsyncTablePolicy(TableCache::Future future, double trip_celsius,
                   std::shared_ptr<const TableBuildInfo> build_info);

  /// The policy *is* pro-temp; asynchronous acquisition is a serving
  /// detail, not a different control law.
  std::string name() const override { return "pro-temp"; }

  void reset() override;
  linalg::Vector on_window(const sim::ControllerView& view) override;
  bool on_sample(double time, const linalg::Vector& core_temps,
                 linalg::Vector& frequencies) override;
  std::any save_state() const override;
  void load_state(const std::any& state) override;

  /// True until the built table has been swapped in (stays true after a
  /// failed build — the failure surfaces through on_window instead).
  bool pending() const noexcept { return live_ == nullptr; }
  /// Windows served by the fallback so far (monotone; survives the swap).
  std::size_t fallback_windows() const noexcept { return fallback_windows_; }
  /// The swapped-in policy; nullptr while pending.
  const core::ProTempPolicy* live() const noexcept { return live_.get(); }

  /// Invoked (on the stepping thread, inside the swapping on_window) when
  /// the hot-swap lands *and* this policy dispatched the build.
  /// ControlSession points this at its observer list.
  void set_swap_callback(std::function<void(const TableBuildInfo&)> callback) {
    swap_callback_ = std::move(callback);
  }

  /// Blocks until the build future resolves, then swaps the table in.
  /// Rethrows the builder's exception if the build failed. Must be called
  /// on the stepping thread (the swap callback fires here, like it would
  /// from on_window). Intended for bring-up and migration, where the
  /// caller needs the policy live *now* rather than at the next window
  /// boundary — e.g. restoring a live-phase snapshot into a fresh session.
  void wait_ready_and_swap();

 private:
  /// Swaps the built table in if the future is ready; rethrows the
  /// builder's exception if the build failed.
  void try_swap();

  TableCache::Future future_;
  double trip_celsius_;
  std::shared_ptr<const TableBuildInfo> build_info_;
  std::function<void(const TableBuildInfo&)> swap_callback_;
  std::unique_ptr<core::ProTempPolicy> live_;
  std::size_t fallback_windows_ = 0;
  /// Per-core trip latches of the trip-at-fmax fallback, re-derived at
  /// every boundary (Basic-DFS semantics): a latched core stays at the
  /// floor for the rest of the window and does not re-report.
  std::vector<bool> tripped_;
};

}  // namespace protemp::api

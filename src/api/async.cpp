#include "api/async.hpp"

#include <stdexcept>
#include <utility>

namespace protemp::api {

AsyncTablePolicy::AsyncTablePolicy(
    TableCache::Future future, double trip_celsius,
    std::shared_ptr<const TableBuildInfo> build_info)
    : future_(std::move(future)),
      trip_celsius_(trip_celsius),
      build_info_(std::move(build_info)) {
  if (!future_.valid()) {
    throw std::invalid_argument("AsyncTablePolicy: invalid future");
  }
}

void AsyncTablePolicy::reset() {
  // A reset starts a fresh run, not a fresh build: a swapped-in table
  // stays swapped in.
  fallback_windows_ = 0;
  tripped_.clear();
  if (live_) live_->reset();
}

void AsyncTablePolicy::wait_ready_and_swap() {
  if (live_ != nullptr) return;
  future_.wait();
  try_swap();  // rethrows the builder's exception on a failed build
}

void AsyncTablePolicy::try_swap() {
  if (!TableCache::ready(future_)) return;
  // get() rethrows the builder's exception; the caller's step() turns it
  // into a Status and the session stays in fallback (pending) forever.
  const std::shared_ptr<const core::FrequencyTable> table = future_.get();
  live_ = std::make_unique<core::ProTempPolicy>(*table);
  if (build_info_ && swap_callback_) swap_callback_(*build_info_);
}

linalg::Vector AsyncTablePolicy::on_window(const sim::ControllerView& view) {
  if (live_ == nullptr) try_swap();  // hot-swap only at window boundaries
  if (live_ != nullptr) return live_->on_window(view);

  ++fallback_windows_;
  // Trip-at-fmax: full speed, except cores observed at/above the trip,
  // which latch shut for the window (the Basic-DFS continuous-trip
  // semantics; the latch — not the commanded value, which an fmin rail
  // may lift off 0 — is what keeps a persistently hot core from
  // re-reporting a trip every sample).
  tripped_.assign(view.num_cores, false);
  linalg::Vector frequencies(view.num_cores);
  for (std::size_t c = 0; c < view.num_cores; ++c) {
    tripped_[c] = view.core_temps[c] >= trip_celsius_;
    frequencies[c] = tripped_[c] ? 0.0 : view.fmax;
  }
  return frequencies;
}

bool AsyncTablePolicy::on_sample(double time,
                                 const linalg::Vector& core_temps,
                                 linalg::Vector& frequencies) {
  if (live_ != nullptr) return live_->on_sample(time, core_temps, frequencies);
  // Continuous trip protection while serving the fmax fallback: the table
  // whose guarantee would make this unnecessary is exactly what is still
  // being built. Only newly tripped cores count as an intervention.
  if (tripped_.size() < core_temps.size()) {
    tripped_.resize(core_temps.size(), false);
  }
  bool intervened = false;
  for (std::size_t c = 0; c < core_temps.size() && c < frequencies.size();
       ++c) {
    if (!tripped_[c] && core_temps[c] >= trip_celsius_) {
      tripped_[c] = true;
      frequencies[c] = 0.0;
      intervened = true;
    }
  }
  return intervened;
}

namespace {
struct AsyncSnapshot {
  bool live = false;
  std::any inner;  ///< live policy state
  std::size_t fallback_windows = 0;
  std::vector<bool> tripped;  ///< fallback trip latches
};
}  // namespace

std::any AsyncTablePolicy::save_state() const {
  AsyncSnapshot snapshot;
  snapshot.live = live_ != nullptr;
  if (live_) snapshot.inner = live_->save_state();
  snapshot.fallback_windows = fallback_windows_;
  snapshot.tripped = tripped_;
  return snapshot;
}

void AsyncTablePolicy::load_state(const std::any& state) {
  const auto& snapshot =
      sim::policy_state_as<AsyncSnapshot>(state, "AsyncTablePolicy");
  // Liveness must match: a snapshot taken while pending has no table state
  // to restore into a live policy (and vice versa).
  if (snapshot.live != (live_ != nullptr)) {
    throw std::invalid_argument(
        "AsyncTablePolicy: snapshot build phase (pending/live) does not "
        "match this session's");
  }
  if (live_) live_->load_state(snapshot.inner);
  fallback_windows_ = snapshot.fallback_windows;
  tripped_ = snapshot.tripped;
}

}  // namespace protemp::api

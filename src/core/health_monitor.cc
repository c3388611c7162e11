#include "core/health_monitor.h"

#include <algorithm>

namespace mercury::core {

namespace {
/// Queue depth above this requests rejuvenation.
constexpr double kQueueLimit = 1000.0;
/// How often deferred requests are re-checked against the maintenance
/// window.
constexpr util::Duration kRetryPeriod = util::Duration::seconds(10.0);
}  // namespace

HealthMonitor::HealthMonitor(sim::Simulator& sim, bus::MessageBus& bus,
                             std::string endpoint, HealthPolicy policy)
    : sim_(sim), bus_(bus), endpoint_(std::move(endpoint)), policy_(policy) {}

HealthMonitor::~HealthMonitor() = default;

void HealthMonitor::start() {
  reattach();
  retry_task_ = std::make_unique<sim::PeriodicTask>(
      sim_, "hm.retry", kRetryPeriod, [this] { drain_pending(); });
  retry_task_->start();
}

void HealthMonitor::reattach() {
  bus_.attach(endpoint_,
              [this](const msg::Message& message) { on_message(message); });
}

void HealthMonitor::set_rejuvenator(
    std::function<bool(const std::string&)> rejuvenator) {
  rejuvenator_ = std::move(rejuvenator);
}

void HealthMonitor::set_maintenance_window(std::function<bool()> window_open) {
  window_open_ = std::move(window_open);
}

void HealthMonitor::set_hard_failure_handler(
    std::function<void(const std::string&)> handler) {
  hard_handler_ = std::move(handler);
}

std::optional<HealthBeacon> HealthMonitor::latest(
    const std::string& component) const {
  const auto it = components_.find(component);
  if (it == components_.end()) return std::nullopt;
  return it->second.latest;
}

void HealthMonitor::on_message(const msg::Message& message) {
  auto beacon = decode_beacon(message);
  if (!beacon.ok()) return;  // not a beacon (or malformed): ignore
  ++beacons_received_;

  ComponentState& state = components_[beacon.value().component];
  if (beacon.value().warnings.empty()) {
    state.consecutive_warning_beacons = 0;
  } else {
    ++state.consecutive_warning_beacons;
  }
  state.latest = std::move(beacon).value();
  evaluate(state.latest->component, state);
}

void HealthMonitor::evaluate(const std::string& component, ComponentState& state) {
  const HealthBeacon& beacon = *state.latest;

  if (beacon.hard_failure_suspected) {
    // Restarting cannot recover from a hard failure in hardware (§7):
    // surface it to the operator path instead of rejuvenating.
    if (std::find(hard_reports_.begin(), hard_reports_.end(), component) ==
        hard_reports_.end()) {
      hard_reports_.push_back(component);
      if (hard_handler_) hard_handler_(component);
    }
    return;
  }

  const bool degraded =
      beacon.memory_mb > policy_.memory_limit_mb ||
      beacon.queue_depth > kQueueLimit ||
      // A failed connectivity/consistency self-check acts immediately.
      !beacon.connectivity_ok || !beacon.consistency_ok ||
      state.consecutive_warning_beacons >= policy_.warning_beacons_before_action;
  if (!degraded) return;

  if (sim_.now() - state.last_rejuvenation < policy_.min_spacing) return;
  request(component, state);
}

void HealthMonitor::request(const std::string& component, ComponentState& state) {
  if (!window_open_()) {
    if (!state.pending) {
      state.pending = true;
      ++deferred_;
    }
    return;
  }
  if (rejuvenator_ && !rejuvenator_(component)) {
    // Recoverer busy with reactive work; retry shortly.
    state.pending = true;
    return;
  }
  state.pending = false;
  state.last_rejuvenation = sim_.now();
  ++rejuvenations_;
}

void HealthMonitor::drain_pending() {
  if (!window_open_()) return;
  for (auto& [component, state] : components_) {
    if (state.pending && sim_.now() - state.last_rejuvenation >= policy_.min_spacing) {
      request(component, state);
    }
  }
}

}  // namespace mercury::core

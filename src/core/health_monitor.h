// HealthMonitor: turns beacon streams into proactive rejuvenation.
//
// Reactive restarts (FD -> REC) cure failures after they happen; the
// monitor watches the §7 health beacons for components *about to* fail —
// leaking memory, deepening queues, repeated warnings — and requests a
// planned restart first. Planned downtime is cheaper (§5.2): no detection
// latency, and the restart can wait for a maintenance window (e.g. between
// satellite passes).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bus/message_bus.h"
#include "core/health.h"
#include "sim/simulator.h"
#include "util/time.h"

namespace mercury::core {

struct HealthPolicy {
  /// Memory above this requests rejuvenation.
  double memory_limit_mb = 256.0;
  /// Consecutive beacons carrying warnings before acting.
  int warning_beacons_before_action = 3;
  /// Minimum spacing between rejuvenations of the same component.
  util::Duration min_spacing = util::Duration::minutes(5.0);
};

class HealthMonitor {
 public:
  /// `endpoint` is the monitor's mbus name (beacons are addressed to it).
  HealthMonitor(sim::Simulator& sim, bus::MessageBus& bus, std::string endpoint,
                HealthPolicy policy);
  ~HealthMonitor();

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Attach to the bus and begin consuming beacons.
  void start();
  /// Re-attach after a bus restart.
  void reattach();

  /// Action to take when a component needs rejuvenation (typically
  /// Recoverer::planned_restart). Returns whether the restart was accepted;
  /// a refusal (recovery already in progress) is retried on the next
  /// retry tick (every 10 s).
  void set_rejuvenator(std::function<bool(const std::string&)> rejuvenator);

  /// Gate: planned restarts only run when this returns true (e.g. "no
  /// satellite pass in the next two minutes"). Default: always open.
  void set_maintenance_window(std::function<bool()> window_open);

  /// Hard-failure escalations (beacon reported unrecoverable hardware) go
  /// here instead of the rejuvenator; default logs only.
  void set_hard_failure_handler(std::function<void(const std::string&)> handler);

  // --- Introspection ------------------------------------------------------
  std::optional<HealthBeacon> latest(const std::string& component) const;
  std::uint64_t beacons_received() const { return beacons_received_; }
  std::uint64_t rejuvenations_requested() const { return rejuvenations_; }
  std::uint64_t rejuvenations_deferred() const { return deferred_; }
  const std::vector<std::string>& hard_failure_reports() const {
    return hard_reports_;
  }

 private:
  struct ComponentState {
    std::optional<HealthBeacon> latest;
    int consecutive_warning_beacons = 0;
    util::TimePoint last_rejuvenation =
        util::TimePoint::origin() - util::Duration::hours(1.0);
    bool pending = false;  ///< wants rejuvenation, waiting for the window
  };

  void on_message(const msg::Message& message);
  void evaluate(const std::string& component, ComponentState& state);
  void request(const std::string& component, ComponentState& state);
  void drain_pending();

  sim::Simulator& sim_;
  bus::MessageBus& bus_;
  std::string endpoint_;
  HealthPolicy policy_;
  std::function<bool(const std::string&)> rejuvenator_;
  std::function<bool()> window_open_ = [] { return true; };
  std::function<void(const std::string&)> hard_handler_;
  std::map<std::string, ComponentState> components_;
  std::unique_ptr<sim::PeriodicTask> retry_task_;
  std::uint64_t beacons_received_ = 0;
  std::uint64_t rejuvenations_ = 0;
  std::uint64_t deferred_ = 0;
  std::vector<std::string> hard_reports_;
};

}  // namespace mercury::core

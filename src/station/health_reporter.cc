#include "station/health_reporter.h"

#include "core/health.h"
#include "core/mercury_trees.h"
#include "util/strings.h"

namespace mercury::station {

namespace names = core::component_names;

StationHealthReporter::StationHealthReporter(Station& station,
                                             std::string monitor_endpoint,
                                             util::Duration period)
    : station_(station),
      monitor_endpoint_(std::move(monitor_endpoint)),
      period_(period),
      rng_(station.sim().rng().fork("health-reporter")) {
  // Defaults: the failure-prone translator leaks hard; the serial proxy
  // ages slowly; the rest are well behaved.
  ResourceModel leaky;
  leaky.leak_mb_per_minute = 8.0;
  models_[names::kFedr] = leaky;
  models_[names::kFedrcom] = leaky;

  ResourceModel aging;
  aging.leak_mb_per_minute = 1.0;
  models_[names::kPbcom] = aging;
}

StationHealthReporter::~StationHealthReporter() = default;

void StationHealthReporter::start() {
  task_ = std::make_unique<sim::PeriodicTask>(station_.sim(), "health.emit",
                                              period_, [this] { emit_all(); });
  task_->start();
}

void StationHealthReporter::set_model(const std::string& component,
                                      ResourceModel model) {
  models_[component] = model;
}

const ResourceModel& StationHealthReporter::model(
    const std::string& component) const {
  static const ResourceModel kDefault;
  const auto it = models_.find(component);
  return it != models_.end() ? it->second : kDefault;
}

void StationHealthReporter::flag_hard_failure(const std::string& component,
                                              bool flagged) {
  hard_flags_[component] = flagged;
}

double StationHealthReporter::current_memory_mb(
    const std::string& component) const {
  const Component* c = station_.component(component);
  if (c == nullptr || !c->up()) return 0.0;
  const ResourceModel& m = model(component);
  const double uptime_min =
      (station_.sim().now() - c->last_start_time()).to_seconds() / 60.0;
  return m.base_mb + m.leak_mb_per_minute * uptime_min;
}

void StationHealthReporter::emit_all() {
  for (const auto& name : station_.component_names()) {
    const Component* component = station_.component(name);
    // Fail-silent components emit no beacons; the beacon stream itself is
    // a liveness signal.
    if (!component->responsive()) continue;

    const ResourceModel& m = model(name);
    core::HealthBeacon beacon;
    beacon.component = name;
    beacon.seq = ++seqs_[name];
    beacon.uptime_s =
        (station_.sim().now() - component->last_start_time()).to_seconds();
    beacon.memory_mb = m.base_mb + m.leak_mb_per_minute * beacon.uptime_s / 60.0 +
                       rng_.normal(0.0, 0.5);
    beacon.queue_depth = std::max(0.0, m.queue_base + rng_.normal(0.0, 1.0));
    beacon.internal_latency_ms =
        std::max(0.1, m.latency_base_ms + rng_.normal(0.0, 0.3));

    // Connectivity checks reflect the real coordination state.
    beacon.connectivity_ok = true;
    if (name == names::kFedr && station_.config().split_fedrcom) {
      beacon.connectivity_ok = station_.fedr_pbcom_link().connected();
    } else if (name == names::kSes || name == names::kStr) {
      beacon.connectivity_ok = station_.ses_str_sync().synced(name);
    } else if (name == names::kPbcom || name == names::kFedrcom) {
      beacon.connectivity_ok = station_.serial_port().is_open();
    }
    beacon.consistency_ok = true;

    if (beacon.memory_mb > m.warn_mb) {
      beacon.warnings.push_back("memory above warn level (" +
                                util::format_fixed(beacon.memory_mb, 1) + " MB)");
    }
    const auto hard = hard_flags_.find(name);
    beacon.hard_failure_suspected = hard != hard_flags_.end() && hard->second;

    station_.bus().send(core::encode_beacon(beacon, monitor_endpoint_));
  }
}

}  // namespace mercury::station

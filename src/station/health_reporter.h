// StationHealthReporter: emits §7 health beacons for every component.
//
// Models the internal metrics a real component would digest into a beacon:
//
//   * memory grows linearly with uptime at a per-component leak rate —
//     "pbcom ages" (§4.2) and the buggy translator (fedr/fedrcom) leaks
//     fastest; a restart resets it (the heart of software rejuvenation);
//   * queue depth and internal latency wobble around a baseline;
//   * connectivity checks come from the real coordination state (fedr's
//     TCP link, ses/str sync, pbcom's serial port);
//   * warnings fire when memory crosses the component's warn level;
//   * a hard-failure flag can be raised for a component (tests and the
//     radio-hardware scenario).
//
// Crashed or restarting components emit nothing — beacons are a liveness
// signal too.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "sim/simulator.h"
#include "station/station.h"
#include "util/rng.h"
#include "util/time.h"

namespace mercury::station {

struct ResourceModel {
  double base_mb = 48.0;
  double leak_mb_per_minute = 0.2;
  double warn_mb = 200.0;
  double queue_base = 4.0;
  double latency_base_ms = 2.0;
};

class StationHealthReporter {
 public:
  StationHealthReporter(Station& station, std::string monitor_endpoint,
                        util::Duration period = util::Duration::seconds(5.0));
  ~StationHealthReporter();

  StationHealthReporter(const StationHealthReporter&) = delete;
  StationHealthReporter& operator=(const StationHealthReporter&) = delete;

  void start();

  /// Override the resource model for one component.
  void set_model(const std::string& component, ResourceModel model);
  const ResourceModel& model(const std::string& component) const;

  /// Raise/clear the hard-failure flag in a component's beacons.
  void flag_hard_failure(const std::string& component, bool flagged = true);

  /// The memory figure the next beacon would carry (for tests).
  double current_memory_mb(const std::string& component) const;

 private:
  void emit_all();

  Station& station_;
  std::string monitor_endpoint_;
  util::Duration period_;
  util::Rng rng_;
  std::map<std::string, ResourceModel> models_;
  std::map<std::string, bool> hard_flags_;
  std::map<std::string, std::uint64_t> seqs_;
  std::unique_ptr<sim::PeriodicTask> task_;
};

}  // namespace mercury::station

// Station: the assembled Mercury ground station (paper Fig. 1).
//
// Owns the bus, the failure board, the components (fused or split fedrcom
// per configuration), the hardware models (antenna, radio, serial port),
// the coordination objects (ses/str sync, fedr/pbcom link) and the process
// manager. The failure detector and recoverer (core/) attach from outside,
// exactly as FD and REC were added to the existing Mercury (§2.2).
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bus/message_bus.h"
#include "core/checkpoint.h"
#include "core/failure_board.h"
#include "orbit/ground_station.h"
#include "orbit/propagator.h"
#include "sim/simulator.h"
#include "station/antenna.h"
#include "station/calibration.h"
#include "station/component.h"
#include "station/components.h"
#include "station/fedr_pbcom_link.h"
#include "station/process_manager.h"
#include "station/radio.h"
#include "station/sync_coordinator.h"

namespace mercury::station {

struct StationConfig {
  /// false: fused fedrcom (trees I, II); true: split fedr + pbcom.
  bool split_fedrcom = true;
  /// Domain chatter (ephemerides, pointing, tuning). Disable for very long
  /// fault-injection runs where only the recovery machinery matters.
  bool enable_domain_behavior = true;
  Calibration cal = default_calibration();
  bus::BusConfig bus;
  /// Checkpointed warm restarts (ISSUE 3), tiered L0/L1/L2 (ISSUE 7).
  /// Disabled by default: legacy configurations reproduce the seed's
  /// cold-path numbers bit-for-bit.
  core::CheckpointPolicy checkpoints;
};

class Station {
 public:
  Station(sim::Simulator& sim, StationConfig config);

  Station(const Station&) = delete;
  Station& operator=(const Station&) = delete;

  // --- Wiring ------------------------------------------------------------
  sim::Simulator& sim() { return sim_; }
  bus::MessageBus& bus() { return *bus_; }
  core::FailureBoard& board() { return board_; }
  core::TieredCheckpointStore& checkpoints() { return checkpoints_; }
  const core::TieredCheckpointStore& checkpoints() const { return checkpoints_; }
  ProcessManager& process_manager() { return *process_manager_; }
  const StationConfig& config() const { return config_; }
  const Calibration& cal() const { return config_.cal; }

  Antenna& antenna() { return antenna_; }
  Radio& radio() { return radio_; }
  SerialPort& serial_port() { return serial_port_; }
  const orbit::Propagator& satellite() const { return satellite_; }
  const orbit::GroundStation& site() const { return site_; }
  SyncCoordinator& ses_str_sync() { return *sync_; }
  FedrPbcomLink& fedr_pbcom_link();

  Component* component(const std::string& name);
  const Component* component(const std::string& name) const;
  std::vector<std::string> component_names() const;

  /// Name of the component that owns the radio front end ("fedr" when
  /// split, "fedrcom" when fused) — where rtu sends tune commands.
  const std::string& radio_frontend_name() const { return radio_frontend_; }

  // --- Lifecycle ---------------------------------------------------------
  /// Boot directly into the steady state: all components up, attached,
  /// synced/connected; bus online. No startup transient is simulated.
  void boot_instant();

  /// Re-attach every up component to the bus (called after a bus restart;
  /// models TCP auto-reconnect).
  void reattach_all();

  /// Register a callback run whenever the bus comes back after a restart
  /// (the failure detector uses this to re-attach its own endpoint).
  void add_bus_restart_listener(std::function<void()> listener);
  void notify_bus_restarted();

  /// Register a callback run whenever a component completes a restart
  /// (the background fault injector resamples rejuvenated lifetimes here).
  void add_restart_listener(
      std::function<void(const std::string&, util::TimePoint)> listener);
  void notify_component_restarted(const std::string& name);

  // --- Health ------------------------------------------------------------
  /// Ground truth for the experiment harness: bus online, every component
  /// functional, no active failures, no restart in flight.
  bool all_functional() const;

  /// Degraded-operation ground truth (ISSUE 2): like all_functional, but
  /// components in `excluded` (typically REC's parked set) are ignored —
  /// their manifesting failures, their down/restarting state. A station
  /// that is functional_except its parked cells is operating degraded,
  /// not broken. Note an excluded mbus still fails this check: nothing
  /// works without the bus.
  bool functional_except(const std::set<std::string>& excluded) const;

  /// Convenience fault injection.
  core::FailureId inject_crash(const std::string& component);
  core::FailureId inject_joint_fedr_pbcom();
  /// Soft-curable transient (§7): the component's bus attachment goes
  /// stale — it stops answering until a soft recovery (or restart).
  core::FailureId inject_stale_attachment(const std::string& component);

  /// Install (or clear, with an inactive spec) restart-time faults for
  /// `component`: each startup attempt may hang or crash per the spec
  /// (ISSUE 2). Forwards to the failure board; the process manager consults
  /// it on every attempt.
  void set_restart_faults(const std::string& component,
                          core::RestartFaultSpec spec);

  /// Save `component`'s soft-state snapshot (no-op unless the checkpoint
  /// policy is enabled — legacy configurations stay checkpoint-free).
  void save_checkpoint(const std::string& component,
                       std::vector<std::pair<std::string, std::string>> payload);

 private:
  sim::Simulator& sim_;
  StationConfig config_;
  core::FailureBoard board_;
  core::TieredCheckpointStore checkpoints_;
  std::unique_ptr<bus::MessageBus> bus_;
  Radio radio_;
  SerialPort serial_port_;
  Antenna antenna_;
  /// The satellite tracked (a Sapphire-like circular LEO) and the site
  /// tracking it.
  orbit::Propagator satellite_{orbit::KeplerianElements::circular_leo(800.0, 60.0)};
  orbit::GroundStation site_ = orbit::GroundStation::stanford();
  std::unique_ptr<SyncCoordinator> sync_;
  std::unique_ptr<FedrPbcomLink> link_;
  std::unique_ptr<ProcessManager> process_manager_;
  std::map<std::string, std::unique_ptr<Component>> components_;
  std::vector<std::function<void()>> bus_restart_listeners_;
  std::vector<std::function<void(const std::string&, util::TimePoint)>>
      restart_listeners_;
  std::string radio_frontend_;
};

}  // namespace mercury::station

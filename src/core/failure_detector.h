// FD — the failure detector (paper §2.2).
//
// "FD continuously performs liveness pings on Mercury components, with a
// period of 1 second... When FD detects a failure, it tells REC which
// component(s) appear to have failed, and continues its failure detection."
//
// Mechanics:
//   * one staggered ping loop per monitored component, over mbus;
//   * a ping unanswered within `timeout` raises suspicion;
//   * because a dead mbus silences *everyone*, a non-mbus timeout first
//     verifies mbus with an immediate probe: if the probe also times out,
//     FD attributes the silence to mbus and reports only mbus (the bus is
//     "monitored as well");
//   * REC masks the components it is currently restarting ("mask"/"unmask"
//     commands over the dedicated link), so in-flight restarts are not
//     re-reported; a persisting failure is re-detected by the first ping
//     after the unmask, which is what drives escalation;
//   * FD answers REC's liveness pings over the link and can itself be
//     crashed/restarted (the §2.2 mutual-recovery special cases).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bus/dedicated_link.h"
#include "bus/message_bus.h"
#include "sim/simulator.h"
#include "util/time.h"

namespace mercury::core {

using util::Duration;

struct FdConfig {
  Duration ping_period = Duration::seconds(1.0);
  Duration ping_timeout = Duration::millis(150.0);
  /// Timeout of the mbus verification probe.
  Duration mbus_verify_timeout = Duration::millis(150.0);
  /// Consecutive missed pings before a component is reported. The paper's
  /// FD reports on the first miss (1) — sound over a lossless TCP bus, but
  /// every lost message becomes a spurious restart; 2-3 trades ~one extra
  /// ping period of detection latency for loss tolerance (see the
  /// detection-robustness ablation).
  int misses_before_report = 1;
};

class FailureDetector {
 public:
  FailureDetector(sim::Simulator& sim, bus::MessageBus& bus,
                  bus::DedicatedLink& link, std::vector<std::string> targets,
                  FdConfig config);
  ~FailureDetector();

  FailureDetector(const FailureDetector&) = delete;
  FailureDetector& operator=(const FailureDetector&) = delete;

  /// Attach to the bus/link and begin the staggered ping loops.
  void start();

  /// Re-attach the bus endpoint (after an mbus restart).
  void reattach();

  // --- FD as a process (mutual-recovery scenarios) -----------------------
  bool alive() const { return alive_; }
  /// Fail-silent crash: loops keep firing but do nothing.
  void crash();
  /// Restart finished: resume with clean per-target state.
  void restart_complete();

  /// Hook invoked when FD decides REC is dead (FD "initiates REC's
  /// recovery" — the procedural knowledge is a single hardwired action).
  void set_rec_restarter(std::function<void()> restarter);
  /// Enable FD's liveness monitoring of REC over the link.
  void monitor_rec();

  // --- Introspection ------------------------------------------------------
  std::uint64_t pings_sent() const { return pings_sent_; }
  std::uint64_t pongs_received() const { return pongs_received_; }
  std::uint64_t failures_reported() const { return failures_reported_; }
  bool is_masked(const std::string& target) const;

 private:
  struct TargetState {
    std::string name;
    std::unique_ptr<sim::PeriodicTask> loop;
    std::uint64_t outstanding_seq = 0;  // 0 = none
    sim::EventId timeout_event;
    int consecutive_misses = 0;
    util::TimePoint last_report = util::TimePoint::origin() -
                                  util::Duration::hours(1.0);
    bool reported_since_mask = false;
  };

  void ping(TargetState& target);
  void on_ping_timeout(TargetState& target);
  void on_bus_message(const msg::Message& message);
  void on_link_message(const msg::Message& message);
  void report(const std::string& component);
  void begin_mbus_verification(const std::string& pending);
  void finish_mbus_verification(bool mbus_alive);
  void apply_mask(const std::vector<std::string>& components, bool masked);
  void ping_rec();
  void on_rec_timeout();

  sim::Simulator& sim_;
  bus::MessageBus& bus_;
  bus::DedicatedLink& link_;
  FdConfig config_;
  bool alive_ = true;
  std::uint64_t seq_ = 1;
  std::map<std::string, TargetState> targets_;
  std::set<std::string> masked_;

  // mbus verification state.
  bool verifying_mbus_ = false;
  std::uint64_t verify_seq_ = 0;
  std::uint64_t verify_span_ = 0;  // open obs span for the verification
  sim::EventId verify_timeout_;
  std::vector<std::string> pending_reports_;

  // REC monitoring.
  std::function<void()> rec_restarter_;
  std::unique_ptr<sim::PeriodicTask> rec_loop_;
  std::uint64_t rec_outstanding_seq_ = 0;
  sim::EventId rec_timeout_;
  bool rec_restart_in_flight_ = false;

  std::uint64_t pings_sent_ = 0;
  std::uint64_t pongs_received_ = 0;
  std::uint64_t failures_reported_ = 0;
};

}  // namespace mercury::core

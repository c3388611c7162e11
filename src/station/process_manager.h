// ProcessManager: the station's implementation of core::ProcessControl.
//
// Restarting a group kills every member, then schedules each member's
// startup completion after its calibrated duration, inflated by the
// contention factor 1 + slope * max(0, concurrent - 2) (§4.1: "a whole
// system restart causes contention for resources that is not present when
// restarting just one component"). On each completion the FailureBoard is
// told, which is what cures failures whose cure sets are now satisfied.
//
// The restart path is itself a fault domain (ISSUE 2): each startup attempt
// consults the board's RestartFaultSpec for the component and may *hang*
// (the completion never fires) or *crash* (the attempt ends with the
// component still down). Neither completes the member's group, so a hardened
// recoverer must notice via its per-restart deadline. A later restart_group
// naming an in-flight component SUPERSEDES the stale attempt: the component
// is re-killed and re-started fresh, and the abandoned group completes (its
// initiator guards against stale completions). This replaces the old
// fold-into-existing-group behavior, which would chain a retry onto exactly
// the attempt that hung.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/process_control.h"
#include "util/rng.h"
#include "util/time.h"

namespace mercury::station {

class Station;

class ProcessManager : public core::ProcessControl {
 public:
  explicit ProcessManager(Station& station);

  std::vector<std::string> component_names() const override;
  void restart_group(const std::vector<std::string>& names,
                     std::function<void()> on_complete) override;
  bool restart_in_progress() const override { return restarting_count_ > 0; }
  std::vector<std::string> restarting_now() const override;

  bool supports_soft_recovery() const override { return true; }
  void soft_recover(const std::string& component,
                    std::function<void()> on_complete) override;
  void discard_checkpoints(const std::vector<std::string>& names) override;
  void note_parked(const std::vector<std::string>& names) override;

  /// Startup attempts begun (successful or not; includes hung/crashed ones).
  std::uint64_t restarts_performed() const { return restarts_performed_; }

  // --- Checkpointed warm restarts (ISSUE 3) -------------------------------
  /// Startup attempts begun warm (valid checkpoint offered back).
  std::uint64_t warm_restarts() const { return warm_restarts_; }
  /// Attempts where the component has a warm path but validation (or fault
  /// suspicion) forced the cold path. Only counted while the policy is on.
  std::uint64_t cold_fallbacks() const { return cold_fallbacks_; }
  /// Warm attempts that died mid-startup on undetectably poisoned state.
  std::uint64_t checkpoint_crashes() const { return checkpoint_crashes_; }

 private:
  struct Group {
    std::size_t remaining = 0;
    std::function<void()> on_complete;
  };
  /// Per-component process bookkeeping across restart attempts.
  struct Proc {
    bool restarting = false;
    /// Bumped on every (re-)kill; scheduled completion/crash events carry
    /// the epoch they belong to and no-op once superseded.
    std::uint64_t epoch = 0;
    /// Startup attempts since the last successful start (drives the
    /// deterministic first-k restart faults).
    int attempts = 0;
    /// Group currently owning this component's restart (0 = none).
    std::uint64_t group = 0;
    /// Open obs span for the in-flight attempt (0 = none).
    std::uint64_t span = 0;
  };

  /// Kill + schedule one startup attempt of `name` under `contention`,
  /// applying the board's restart-fault spec.
  void begin_attempt(const std::string& name, double contention);
  /// Remove `name` from its owning group's accounting (supersession); fires
  /// the group's on_complete if it drains.
  void detach_from_group(Proc& proc);
  void finish_group_member(std::uint64_t group_id);

  Station& station_;
  util::Rng rng_;
  std::map<std::string, Proc> procs_;
  int restarting_count_ = 0;
  std::uint64_t restarts_performed_ = 0;
  std::uint64_t warm_restarts_ = 0;
  std::uint64_t cold_fallbacks_ = 0;
  std::uint64_t checkpoint_crashes_ = 0;
  std::uint64_t next_group_ = 1;
  std::map<std::uint64_t, Group> groups_;
};

}  // namespace mercury::station

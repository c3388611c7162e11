// PosixSupervisor: the restart tree driving real OS processes.
//
// The simulator proves the paper's numbers; this backend proves the
// mechanism is not a simulation artifact. It is a thin adaptor that runs the
// unmodified core::Recoverer (REC) over real children, in one
// single-threaded poll() loop:
//
//   * timer heap — a private sim::Simulator, advanced to wall-clock
//     seconds since process start before any input reaches REC, holds REC's
//     timers (restart deadlines, backoff, lazy drain, oracle feedback); the
//     poll() timeout is capped by its next event;
//   * failure detector — each worker is pinged over its stdin/stdout pipes
//     ("PING n"/"PONG n"); a missed pong, or a startup that outlives REC's
//     restart_deadline outside any action, is sent to REC as report-failure
//     over a zero-latency bus::DedicatedLink, and REC's mask/unmask commands
//     on the same link silence detection of groups it is restarting;
//   * process control — core::ProcessControl::restart_group SIGKILLs and
//     respawns the group (through the checkpoint gate) and completes once
//     every member has printed READY.
//
// Every recovery decision — oracle choice, escalation, pacing, attempt
// budgets, hard-failure parking, DAG dispatch, traffic-driven queueing — is
// REC's, so both backends share one policy by construction.
//
// Timings here are real milliseconds, so tests keep startup delays small.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bus/dedicated_link.h"
#include "core/oracle.h"
#include "core/process_control.h"
#include "core/recoverer.h"
#include "core/restart_tree.h"
#include "posix/child_process.h"
#include "sim/simulator.h"
#include "util/result.h"

namespace mercury::posix {

using Clock = std::chrono::steady_clock;
using Millis = std::chrono::milliseconds;

struct WorkerSpec {
  std::string name;
  /// argv[0] = binary path. The supervisor appends nothing; encode worker
  /// options (--name, --startup-ms, ...) here.
  std::vector<std::string> argv;
  /// Checkpoint state file, empty = no checkpointing. Must match the
  /// worker's --checkpoint-file. The supervisor validates the file's
  /// checksum before every spawn and deletes it when invalid, so the worker
  /// never warm-starts from garbage.
  std::string checkpoint_file;
};

/// REC's policy knobs (escalation window, root/attempt budgets, backoff,
/// dispatch mode, traffic-driven queueing, restart deadline) come from the
/// RecConfig base; the fields below belong to the pipe detector and the §7
/// health policy.
struct SupervisorConfig : core::RecConfig {
  /// The one startup deadline: REC abandons a restart action after it, and
  /// the detector reports a worker still starting after it outside any
  /// action (a hung start_all).
  SupervisorConfig() { restart_deadline = Millis{2000}; }

  Millis ping_period{100};
  Millis ping_timeout{80};
  /// §7 health beacons over the pipes: when a worker's reported memory
  /// ("HEALTH <name> mem=<MB>" lines) exceeds this, it is proactively
  /// restarted through Recoverer::planned_restart. 0 disables the policy.
  double memory_limit_mb = 0.0;
  /// Minimum spacing between proactive restarts of the same worker.
  Millis rejuvenation_spacing{2'000};
};

struct PosixRecoveryRecord {
  std::string reported_worker;
  core::NodeId node = core::kInvalidNode;
  std::vector<std::string> restarted;
  int escalation_level = 0;
  Millis downtime{0};  ///< failure report -> group READY
};

class PosixSupervisor : private core::ProcessControl {
 public:
  /// The tree's components must exactly match the worker names.
  PosixSupervisor(core::RestartTree tree, std::vector<WorkerSpec> workers,
                  SupervisorConfig config);
  ~PosixSupervisor() override;

  PosixSupervisor(const PosixSupervisor&) = delete;
  PosixSupervisor& operator=(const PosixSupervisor&) = delete;

  /// Spawn every worker and wait for all READYs. A startup that hangs past
  /// restart_deadline is reported and recovered like any other failure.
  util::Status start_all();

  /// Run the supervision loop for a wall-clock duration.
  void run_for(Millis duration);

  /// Run until `predicate()` is true or `timeout` elapses; returns whether
  /// the predicate was met. The loop keeps supervising while waiting.
  bool run_until(const std::function<bool()>& predicate, Millis timeout);

  // --- Introspection / fault injection for tests --------------------------
  bool worker_up(const std::string& name) const;
  bool all_up() const;
  /// SIGKILL a worker out-of-band (external fault injection). Returns false
  /// (and logs) for a name the supervisor does not manage.
  bool kill_worker(const std::string& name);
  /// Make a worker fail-silent without killing its process. Returns false
  /// (and logs) for a name the supervisor does not manage.
  bool wedge_worker(const std::string& name);

  const std::vector<PosixRecoveryRecord>& history() const { return history_; }
  const std::vector<std::string>& hard_failures() const {
    return rec_.hard_failures();
  }
  const core::RestartTree& tree() const { return rec_.tree(); }
  std::uint64_t pings_sent() const { return pings_sent_; }
  std::uint64_t pongs_received() const { return pongs_received_; }
  std::uint64_t backoffs_applied() const { return rec_.backoffs_applied(); }
  /// Startups abandoned by restart_deadline: REC's timed-out actions plus
  /// hung startups the detector reported outside any action.
  std::uint64_t restart_timeouts() const {
    return rec_.restart_timeouts() + startup_timeouts_;
  }
  std::size_t restarts_in_flight() const { return rec_.restarts_in_flight(); }
  std::uint64_t absorbed_restarts() const { return rec_.absorbed_restarts(); }
  /// Latest memory figure a worker's HEALTH beacon reported, if any.
  std::optional<double> latest_memory_mb(const std::string& name) const;
  std::uint64_t rejuvenations() const { return rejuvenations_; }
  /// Checkpoint files found valid at spawn (the worker will warm-start).
  std::uint64_t checkpoints_validated() const { return checkpoints_validated_; }
  /// Invalid checkpoint files deleted before a spawn (cold start enforced).
  std::uint64_t checkpoints_deleted() const { return checkpoints_deleted_; }
  /// Checkpoint files rewritten from the supervisor's partner copy after
  /// the on-disk tier was lost.
  std::uint64_t partner_restores() const { return partner_restores_; }

  // --- Traffic-driven on-demand recovery ----------------------------------
  /// Client-request touch: Recoverer::touch on `name`.
  core::TouchResult touch_worker(const std::string& name);
  std::uint64_t touch_promotions() const { return rec_.touch_promotions(); }
  std::uint64_t lazy_drains() const { return rec_.lazy_drains(); }
  /// Reported failures no restart action has taken up yet (queued in REC).
  std::size_t queued_failures() const { return reported_.size(); }

 private:
  enum class WorkerState { kStarting, kUp, kDown };

  struct Worker {
    WorkerSpec spec;
    std::optional<ChildProcess> process;
    WorkerState state = WorkerState::kDown;
    Clock::time_point next_ping;
    std::uint64_t outstanding_seq = 0;
    Clock::time_point ping_deadline;
    Clock::time_point ready_deadline;
    std::optional<double> memory_mb;  // latest HEALTH beacon figure
    Clock::time_point last_rejuvenation{};
    std::uint64_t restart_span = 0;  // open obs span: spawn -> READY
    /// Partner replica: the last checkpoint payload that passed the
    /// spawn-time gate, held supervisor-side on the worker's behalf.
    std::optional<std::string> replica_payload;
  };

  /// A restart_group call waiting for its members' READY lines.
  struct PendingGroup {
    std::vector<std::string> members;
    std::function<void()> on_complete;
  };

  // --- core::ProcessControl -----------------------------------------------
  std::vector<std::string> component_names() const override;
  void restart_group(const std::vector<std::string>& names,
                     std::function<void()> on_complete) override;
  bool restart_in_progress() const override { return !groups_.empty(); }
  std::vector<std::string> restarting_now() const override;

  void pump(Millis max_wait);
  /// Advance the timer heap to wall-clock now (firing due REC timers and
  /// link deliveries) and mirror new REC history records.
  void sync();
  void drain_worker(Worker& worker);
  void complete_groups();
  void detect();
  void report(Worker& worker, const char* cause);
  void on_link_message(const msg::Message& message);
  void check_health_policy();
  void spawn_worker(Worker& worker);

  SupervisorConfig config_;
  sim::Simulator sim_{0};  // timer heap only
  bus::DedicatedLink link_;
  core::HeuristicOracle oracle_;
  std::map<std::string, Worker> workers_;
  std::vector<PendingGroup> groups_;
  /// Detector view of REC's mask: workers it must not report.
  std::set<std::string> masked_;
  /// Reported workers REC has not masked (taken up) yet.
  std::set<std::string> reported_;
  std::vector<PosixRecoveryRecord> history_;
  std::uint64_t seq_ = 1;  // pings and link messages
  std::uint64_t pings_sent_ = 0;
  std::uint64_t pongs_received_ = 0;
  std::uint64_t rejuvenations_ = 0;
  std::uint64_t startup_timeouts_ = 0;
  std::uint64_t checkpoints_validated_ = 0;
  std::uint64_t checkpoints_deleted_ = 0;
  std::uint64_t partner_restores_ = 0;
  core::Recoverer rec_;  // last: its constructor takes the members above
};

}  // namespace mercury::posix

// REC — the recoverer (paper §2.2, §3.3).
//
// "REC uses a restart tree data structure and a simple policy to choose
// which module(s) to restart upon being notified of a failure. The policy
// also keeps track of past restarts to prevent infinite restarts of 'hard'
// failures."
//
// On a failure report from FD (over the dedicated link) REC:
//   1. consults the oracle for a cell of the restart tree — or, if the same
//      component failed again right after a restart that covered it,
//      escalates to the parent cell (§3.3);
//   2. masks the cell's restart group in FD, restarts the group through
//      ProcessControl, and unmasks on completion;
//   3. schedules recovery actions under the configured DispatchMode:
//      *serial* (legacy) runs one action at a time and queues everything
//      else; *dag* dispatches a report immediately when its cell is
//      disjoint from every in-flight action's cell (the restart tree's
//      nested-or-disjoint group property makes sibling subtrees safe to
//      overlap) and queues FIFO behind a conflict; *on-demand* additionally
//      scans the queue out of order so any entry whose conflict has cleared
//      dispatches. In every mode ancestor/descendant cells never restart
//      concurrently: an escalation whose chosen cell contains an in-flight
//      action's cell absorbs that action (the wider restart supersedes it);
//   4. gives up on a chain that keeps failing after `max_root_restarts`
//      full-system restarts, parking it as a hard failure for the operator.
//
// The restart path is itself a fault domain (ISSUE 2), so REC is hardened
// against its own cure failing:
//
//   * a per-restart deadline (sized by the harness from the calibration's
//     worst-case contended startup plus margin) aborts a hung restart —
//     ProcessControl implementations supersede the stale attempt on the next
//     restart_group — and escalates it like a persisting failure;
//   * exponential backoff (a configured base, doubling up to a fixed cap,
//     with gradual decay) paces successive restart attempts of the same
//     cell, so a crash-looping startup cannot become a restart storm;
//   * an attempt budget per failure chain feeds the existing hard-failure
//     parking, and parked components are masked in FD *permanently*, so the
//     station keeps operating degraded instead of detect/restart-looping.
//
// All hardening knobs apply *per in-flight action*: each action carries its
// own deadline event, chain attempt count, and chain attribution, keyed by
// action id, so concurrent chains park, back off, and escalate
// independently. Queued reports are keyed by (component, failure epoch) —
// the epoch counts completed restarts covering the component — so a report
// queued after a covering restart completed is never dropped against that
// stale completion. Completions are guarded by the action id so a hung
// restart that finishes late, or a superseded group draining, can never be
// mistaken for a live action.
//
// REC also answers FD's pings and monitors FD in return (§2.2's two special
// cases); the FD restart action is injected by the harness.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bus/dedicated_link.h"
#include "core/oracle.h"
#include "core/process_control.h"
#include "core/restart_tree.h"
#include "sim/simulator.h"
#include "util/time.h"

namespace mercury::core {

/// How REC schedules non-interfering recovery actions.
enum class DispatchMode {
  /// One action at a time; every other report queues (legacy behavior).
  kSerial,
  /// Disjoint cells dispatch immediately; a conflicting report queues FIFO
  /// and blocks the queue head (DAG partial order over the restart tree).
  kDag,
  /// Like kDag, but the queue is scanned out of order at every drain: any
  /// entry whose conflict has cleared dispatches, regardless of position.
  kOnDemand,
};

const char* to_string(DispatchMode mode);

struct RecConfig {
  /// A report for a component covered by the previous restart, arriving
  /// within this window of the restart's completion, is treated as "the
  /// failure still manifests" and escalates (§3.3). Sized just above the
  /// worst-case re-detection latency (ping period + timeout + link), so an
  /// unrelated fresh failure rarely masquerades as a persisting one.
  util::Duration escalation_window = util::Duration::seconds(2.5);
  /// Recursive recovery (§7): try the failed component's *soft* recovery
  /// procedure before any restart. Cheap when the failure is soft-curable
  /// (a reconnect beats a 20 s restart); costs one soft-procedure-plus-
  /// redetect round when it is not. Requires ProcessControl support.
  bool enable_soft_recovery = false;
  /// Full-system restarts tolerated per recurring component failure before
  /// declaring a hard failure. Uncured root restarts of a component count
  /// toward it while each follows the previous one within 90 s.
  int max_root_restarts = 2;

  /// Restart-DAG scheduling of non-interfering cells. kSerial reproduces
  /// the paper's one-chain-at-a-time recoverer exactly; the DAG modes
  /// overlap sibling subtrees while keeping ancestor/descendant pairs
  /// strictly ordered (absorb-on-escalation).
  DispatchMode dispatch = DispatchMode::kSerial;

  // --- Restart-path hardening (ISSUE 2) -----------------------------------
  // Knobs because the two callers differ: the simulated rig runs all three;
  // the POSIX supervisor runs a 2 s deadline only (see SupervisorConfig).
  /// Deadline for one restart action (kill -> every group member ready). A
  /// restart still in flight when it expires is abandoned and escalated like
  /// a persisting failure; the superseding restart re-kills the stragglers.
  /// Size it above the worst-case contended startup (the experiment rig uses
  /// the calibration's slowest component x full contention x margin). Zero
  /// disables: trust on_complete unconditionally.
  util::Duration restart_deadline = util::Duration::zero();
  /// Exponential backoff between successive restart attempts of the same
  /// cell: attempt n of a streak starts no earlier than min(backoff_base *
  /// 2^(n-1), 30 s) after attempt n-1 began; each full quiet minute forgets
  /// one streak step. Zero base disables.
  util::Duration backoff_base = util::Duration::zero();
  /// Restart attempts tolerated per failure chain (reactive actions only,
  /// timed-out attempts included) before the chain is parked as a hard
  /// failure. Zero disables (only max_root_restarts parks).
  int max_attempts_per_chain = 0;

  // --- Traffic-driven on-demand recovery (ISSUE 9) ------------------------
  /// Only meaningful under DispatchMode::kOnDemand. The first report (the
  /// minimal phase restoring the serving core) dispatches immediately;
  /// every report arriving while any action is in flight queues lazily —
  /// even when its cell is disjoint — so service reopens before the full
  /// tree is back. Queued cells restart when a client request first touches
  /// them (touch() promotes the entry to the DAG front and dispatches it as
  /// soon as no in-flight conflict remains); untouched cells drain in the
  /// background, one per lazy_drain_interval.
  ///
  /// Off by default because it is an experiment axis, not a compatibility
  /// gate: bench_parallel_recovery measures plain on-demand dispatch with
  /// it off, bench_availability_traffic measures traffic-driven recovery
  /// with it on.
  bool traffic_driven = false;
  util::Duration lazy_drain_interval = util::Duration::millis(500.0);
};

/// What Recoverer::touch found for the touched component.
enum class TouchResult {
  kIdle,        ///< nothing queued or in flight for this component
  kRestarting,  ///< an in-flight action already covers it
  kPromoted,    ///< a queued entry was promoted (dispatched, or moved to the
                ///< queue front when an in-flight conflict still blocks it)
  kParked,      ///< hard-failed: requests get a clean rejection, no restart
};

/// One completed recovery action, for logs and experiment audits.
struct RecoveryRecord {
  std::string reported_component;
  NodeId node = kInvalidNode;
  std::vector<std::string> restarted;
  int escalation_level = 0;
  /// Proactive rejuvenation (health monitor) rather than reactive recovery.
  bool planned = false;
  /// Soft recovery procedure (§7 recursive recovery) rather than a restart.
  bool soft = false;
  util::TimePoint report_time;
  util::TimePoint complete_time;
};

class Recoverer {
 public:
  Recoverer(sim::Simulator& sim, bus::DedicatedLink& link, RestartTree tree,
            Oracle& oracle, ProcessControl& process_control, RecConfig config);
  ~Recoverer();

  Recoverer(const Recoverer&) = delete;
  Recoverer& operator=(const Recoverer&) = delete;

  /// Bind the link endpoint and begin answering/monitoring FD.
  void start();

  /// Proactive (planned) restart of the component's own cell — the §7
  /// rejuvenation path, driven by the health monitor. Declined (returns
  /// false) while reactive recovery that could interfere is in flight (any
  /// action at all under kSerial; a conflicting one under the DAG modes);
  /// accepted restarts flow through the same mask/restart/unmask machinery
  /// and count toward the escalation context like any other restart.
  bool planned_restart(const std::string& component);

  /// Traffic-driven on-demand recovery (ISSUE 9): a client request just
  /// touched `component`. If a queued restart is waiting for it, the entry
  /// is promoted — dispatched immediately when no in-flight conflict
  /// remains, else moved to the queue front so it dispatches at the next
  /// drain. No-op (kIdle) outside traffic-driven on-demand mode.
  TouchResult touch(const std::string& component);

  const RestartTree& tree() const { return tree_; }

  // --- REC as a process ---------------------------------------------------
  bool alive() const { return alive_; }
  void crash();
  void restart_complete();

  /// Hook invoked when REC decides FD is dead ("we wrote REC to issue
  /// liveness pings to FD and detect its failure, after which it can
  /// initiate FD recovery").
  void set_fd_restarter(std::function<void()> restarter);
  void monitor_fd();

  // --- Introspection ------------------------------------------------------
  const std::vector<RecoveryRecord>& history() const { return history_; }
  std::uint64_t restarts_executed() const { return history_.size(); }
  std::uint64_t escalations() const { return escalations_; }
  std::uint64_t planned_restarts() const { return planned_restarts_; }
  std::uint64_t soft_recoveries() const { return soft_recoveries_; }
  bool restart_in_progress() const { return !actions_.empty(); }
  /// Recovery actions currently in flight (dispatched or backoff-pending).
  std::size_t restarts_in_flight() const { return actions_.size(); }
  /// High-water mark of concurrent in-flight actions (1 under kSerial).
  std::size_t max_concurrent_restarts() const { return max_concurrent_; }
  /// In-flight actions superseded by an escalation to a containing cell.
  std::uint64_t absorbed_restarts() const { return absorbed_actions_; }
  /// Chains declared unrecoverable-by-restart.
  const std::vector<std::string>& hard_failures() const { return hard_failures_; }
  /// Components permanently masked in FD by hard-failure parking: the
  /// station operates degraded without them until an operator intervenes.
  const std::set<std::string>& parked() const { return parked_; }
  /// Restart actions abandoned by the per-restart deadline.
  std::uint64_t restart_timeouts() const { return restart_timeouts_; }
  /// Restart attempts delayed by the same-cell backoff policy.
  std::uint64_t backoffs_applied() const { return backoffs_applied_; }
  /// Queued restarts promoted by a client-request touch (traffic-driven).
  std::uint64_t touch_promotions() const { return touch_promotions_; }
  /// Queued restarts dispatched by the background lazy drain.
  std::uint64_t lazy_drains() const { return lazy_drains_; }

 private:
  /// One in-flight recovery action. Deadline, backoff streak, attempt
  /// budget, and chain attribution all live here (keyed by action_id), so
  /// concurrent actions harden independently.
  struct Action {
    std::string reported_component;
    NodeId node = kInvalidNode;
    std::vector<std::string> components;  // sorted restart group
    int escalation_level = 0;
    bool planned = false;
    bool soft = false;
    util::TimePoint report_time;
    std::uint64_t trace_span = 0;  // open obs span once dispatched
    std::uint64_t action_id = 0;   // stale-completion guard
    sim::EventId deadline_event;   // pending restart_deadline, if any
    bool dispatched = false;       // false while waiting out a backoff delay
    /// Component that opened this failure chain (oracle feedback subject).
    std::string chain_component;
    /// Reactive attempts the chain has consumed, this action included.
    int chain_attempts = 0;
    /// Every component a timed-out attempt of this chain left restarting;
    /// parking the chain sweeps exactly these stragglers, never another
    /// chain's live restart.
    std::set<std::string> chain_touched;
  };
  /// A recently completed action, kept for the escalation window: the §3.3
  /// "failure still manifests" check, negative/positive oracle feedback, and
  /// chain inheritance all key off these. kSerial keeps exactly one (the
  /// legacy `last restart`); the DAG modes keep one per concurrent chain and
  /// prune records once the window passes and feedback is settled.
  struct CompletionRecord {
    std::uint64_t id = 0;  // completing action's id (unique)
    NodeId node = kInvalidNode;
    std::vector<std::string> components;
    int escalation_level = 0;
    bool soft = false;
    util::TimePoint complete_time;
    std::string chain_component;
    int chain_attempts = 0;
    bool feedback_sent = false;
  };
  /// A deferred failure report. The epoch pins which completed-restart
  /// generation the report belongs to, so drain drops it only against a
  /// restart that completed *after* it was queued.
  struct QueuedReport {
    std::string component;
    std::uint64_t epoch = 0;
    /// Traffic-driven mode: a client request touched this component while it
    /// waited — it dispatches at the next drain instead of waiting for the
    /// background lazy drain.
    bool touched = false;
  };
  /// Per-component record of recent root-level restarts triggered by that
  /// component's failures, for the hard-failure give-up. Keyed by the
  /// *reported* component so an unrelated crash landing right after a full
  /// reboot cannot get an innocent component parked.
  struct RootRestartHistory {
    int count = 0;
    util::TimePoint last = util::TimePoint::origin() - util::Duration::hours(1.0);
  };
  /// Same-cell restart pacing (crash loops must not become restart storms).
  struct CellBackoff {
    int streak = 0;
    util::TimePoint last = util::TimePoint::origin() - util::Duration::hours(1.0);
  };

  void on_link_message(const msg::Message& message);
  void handle_report(const std::string& component);
  /// The decision tail of handle_report (escalation context, oracle choose,
  /// execute) — the part that commits to acting on the report. Promotion
  /// paths (touch, lazy drain) call this directly so a promoted entry cannot
  /// re-enter the traffic-driven lazy queue.
  void dispatch_report(const std::string& component);
  /// Lazy queueing is active: on-demand dispatch with traffic_driven set.
  bool traffic_active() const;
  /// Arm the background drain timer (one untouched entry per interval).
  void schedule_lazy_drain();
  void lazy_drain_tick();
  void execute(Action restart);
  void execute_soft(Action restart);
  /// Open the trace span, mask the group, start the deadline and hand the
  /// group to ProcessControl (execute() after any backoff delay). The action
  /// must already be in actions_; a missing id means it was absorbed.
  void dispatch(std::uint64_t action_id);
  void on_restart_complete(std::uint64_t action_id);
  void on_restart_timeout(std::uint64_t action_id);
  /// True when the chain's attempt budget is exhausted; parks and returns
  /// true, or returns false to keep going.
  bool budget_exhausted_then_park(const Action& restart);
  /// Root-level give-up accounting shared by the persisting-failure and
  /// restart-timeout escalation paths; returns true when it parked.
  bool note_root_restart_then_maybe_park(const std::string& component,
                                         const std::set<std::string>* chain_touched);
  /// Declare `component`'s chain a hard failure. Permanently masks it in FD,
  /// along with any straggler the chain's abandoned restarts left in flight
  /// (chain_touched ∩ restarting_now — never another chain's live restart).
  /// Healthy components left masked by abandoned actions are unmasked — they
  /// return to service.
  void park(const std::string& component, const std::string& reason,
            const std::set<std::string>* chain_touched);
  bool is_parked(const std::string& component) const;
  /// True when any in-flight action's group already covers the component.
  bool component_in_flight(const std::string& component) const;
  /// True when restarting `cell` would overlap an in-flight action's cell
  /// (ancestor/descendant — the unsafe overlap the DAG must serialize).
  bool conflicts_with_in_flight(NodeId cell) const;
  /// Supersede-and-absorb every in-flight action whose cell the absorber's
  /// chosen cell contains (escalation ordering: the wider restart re-kills
  /// the members, so the narrower action is redundant).
  void absorb_conflicting(const Action& absorber);
  /// Latest completion record covering `component` inside the escalation
  /// window, or nullptr (the §3.3 "failure still manifests" probe).
  CompletionRecord* covering_recent(const std::string& component);
  void prune_recent();
  void enqueue_report(const std::string& component);
  /// Stale or parked queue entry — drop without dispatching.
  bool should_drop(const QueuedReport& entry) const;
  /// Entry cannot dispatch yet (mode-dependent conflict with in-flight work).
  bool blocked_in_queue(const QueuedReport& entry) const;
  void note_in_flight_peak();
  void send_mask(const std::vector<std::string>& components, bool mask);
  void drain_queue();
  void ping_fd();
  void on_fd_timeout();

  sim::Simulator& sim_;
  bus::DedicatedLink& link_;
  RestartTree tree_;
  Oracle& oracle_;
  ProcessControl& process_control_;
  RecConfig config_;
  bool alive_ = true;
  std::uint64_t seq_ = 1;

  /// Every in-flight action (dispatched or backoff-pending), by action id.
  std::map<std::uint64_t, Action> actions_;
  std::vector<CompletionRecord> recent_;
  /// Completed-restart generation per component: bumped once for every
  /// component of every completed action. Queue entries carry the epoch they
  /// were born in; drain drops an entry only when its component's epoch has
  /// advanced past it (a covering restart completed after it queued).
  std::map<std::string, std::uint64_t> completion_epoch_;
  std::map<std::string, RootRestartHistory> root_history_;
  std::map<NodeId, CellBackoff> backoff_;
  std::deque<QueuedReport> queue_;
  std::vector<RecoveryRecord> history_;
  std::vector<std::string> hard_failures_;
  std::set<std::string> parked_;
  /// Components currently masked in FD by us (mask sent, unmask not yet).
  /// Lets park() tell stragglers (masked + still restarting) from healthy
  /// components abandoned actions left masked.
  std::set<std::string> masked_;
  std::uint64_t next_action_id_ = 1;
  std::size_t max_concurrent_ = 0;
  std::uint64_t escalations_ = 0;
  std::uint64_t planned_restarts_ = 0;
  std::uint64_t soft_recoveries_ = 0;
  std::uint64_t restart_timeouts_ = 0;
  std::uint64_t backoffs_applied_ = 0;
  std::uint64_t absorbed_actions_ = 0;
  std::uint64_t touch_promotions_ = 0;
  std::uint64_t lazy_drains_ = 0;
  sim::EventId lazy_drain_event_;

  // FD monitoring.
  std::function<void()> fd_restarter_;
  std::unique_ptr<sim::PeriodicTask> fd_loop_;
  std::uint64_t fd_outstanding_seq_ = 0;
  sim::EventId fd_timeout_;
  bool fd_restart_in_flight_ = false;
};

}  // namespace mercury::core

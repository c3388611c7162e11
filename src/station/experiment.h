// Experiment harness: the paper's §4 methodology, automated.
//
// "To measure the effect this transformation has on system recovery time,
// we cause the failure of each component (using a SIGKILL signal) and
// measure how long the system takes to recover. We log the time when the
// signal is sent; once the component determines it is functionally ready,
// it logs a timestamped message. The difference between these two times is
// what we consider to be the recovery time." (§4.1; 100 trials per cell.)
//
// MercuryRig assembles a complete system — station + FD + REC + oracle —
// for one (tree, oracle) configuration; run_trial injects one failure at a
// uniformly random ping phase and runs the simulation until the station is
// fully functional again.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bus/dedicated_link.h"
#include "obs/trace.h"
#include "core/availability.h"
#include "core/failure.h"
#include "core/failure_detector.h"
#include "core/mercury_trees.h"
#include "core/oracle.h"
#include "core/recoverer.h"
#include "sim/simulator.h"
#include "station/station.h"
#include "util/stats.h"
#include "util/time.h"
#include "workload/workload.h"

namespace mercury::station {

enum class OracleKind {
  kHeuristic,       ///< leaf-first + escalation (no failure-model knowledge)
  kPerfect,         ///< minimal restart policy (A_oracle)
  kFaultyPerfect,   ///< perfect + guess-too-low/high mistakes (§4.4)
  kLearning,        ///< online f_ci estimation (§7)
};

std::string to_string(OracleKind kind);

enum class FailureMode {
  kCrash,              ///< fail-silent crash of `fail_component` (SIGKILL)
  kJointFedrPbcom,     ///< manifests in pbcom, curable only by {fedr,pbcom}
  kStaleAttachment,    ///< soft-curable transient at `fail_component` (§7)
};

struct TrialSpec {
  core::MercuryTree tree = core::MercuryTree::kTreeIV;
  OracleKind oracle = OracleKind::kPerfect;
  double faulty_p_low = 0.3;
  std::string fail_component;
  FailureMode mode = FailureMode::kCrash;
  std::uint64_t seed = 1;
  Calibration cal = default_calibration();
  util::Duration warmup = util::Duration::seconds(3.0);
  util::Duration timeout = util::Duration::seconds(180.0);
  /// Domain chatter (ephemerides/tuning) is off in timing trials: it does
  /// not affect recovery and costs events.
  bool enable_domain_behavior = false;
  /// Recursive recovery (§7): REC tries the component's soft procedure
  /// before any restart.
  bool enable_soft_recovery = false;
  /// FD suspicion threshold (consecutive missed pings before reporting).
  int fd_misses_before_report = 1;
  /// Per-delivery mbus loss probability (robustness ablation).
  double bus_loss_probability = 0.0;
  /// Persist an oracle across trials (e.g. LearningOracle). Non-owning;
  /// must outlive the trial and match the tree.
  core::Oracle* oracle_override = nullptr;

  // --- Restart-path hardening & faults (ISSUE 2) --------------------------
  // Every trial runs REC's hardened restart path: a per-restart deadline
  // (hardened_restart_deadline), same-cell backoff from a 0.5 s base, and
  // the attempt budget below. On a clean trial none of them acts.
  /// Restarts per failure chain before REC parks it as a hard failure.
  int max_attempts_per_chain = 8;
  /// Restart-time faults installed on the board before the trial: each
  /// startup attempt of a listed component may hang or crash per its spec.
  std::map<std::string, core::RestartFaultSpec> restart_faults;

  // --- Checkpointed warm restarts (ISSUE 3) -------------------------------
  /// Enable the station's checkpoint policy: components snapshot soft state
  /// and restarts offer valid snapshots back as warm starts. Off by default
  /// so legacy trials reproduce the seed's cold-path numbers bit-for-bit.
  bool enable_checkpoints = false;
  util::Duration checkpoint_ttl = util::Duration::minutes(10.0);
  /// Damage applied to the failed component's checkpoint at injection time
  /// (kPoison: the warm attempt crashes and only the restart deadline
  /// notices; kKill drops the tier's copy outright).
  enum class CheckpointDamage { kNone, kCorrupt, kPoison, kStale, kKill };
  /// Targets the victim's *local* (L0) snapshot.
  CheckpointDamage checkpoint_damage = CheckpointDamage::kNone;

  // --- Tiered checkpoint storage (ISSUE 7) --------------------------------
  /// Enable the partner-replica (L1) tier: each component's snapshot is
  /// also held in a buddy chosen from the restart tree
  /// (core::choose_partners), and survives the victim's own crash.
  bool checkpoint_l1 = false;
  /// Enable the stable file-backed (L2) tier.
  bool checkpoint_l2 = false;
  /// Correlated failure: the injected fault also crashes the victim's L1
  /// replica host (whole-group / coupled-component loss) — the replica dies
  /// with its host, leaving only L2 between the victim and a cold start.
  bool fail_partner_too = false;

  // --- Parallel recovery (ISSUE 8) ----------------------------------------
  /// REC dispatch policy: serial (legacy, one action at a time), DAG
  /// (disjoint cells restart concurrently, FIFO queue), or on-demand
  /// (out-of-order queue scan). Always plumbed through; the default
  /// reproduces legacy behaviour bit-for-bit.
  core::DispatchMode dispatch = core::DispatchMode::kSerial;
  /// Additional crashes after the primary injection: `component` is felled
  /// `delay` after the primary instant. Multi-fault scenarios are what give
  /// the parallel scheduler disjoint cells to work concurrently.
  struct ExtraFault {
    std::string component;
    util::Duration delay = util::Duration::zero();
  };
  std::vector<ExtraFault> extra_faults;

  // --- Client traffic & availability (ISSUE 9) ----------------------------
  /// Continuous client workload riding through the trial: sessions attach to
  /// mbus at boot, issue open-loop requests across the failure, and resolve
  /// every request as served or lost (workload::WorkloadDriver). Enabling it
  /// also turns on the bus's typed mid-restart nacks, so clients get fast
  /// "restarting" rejections instead of silent drops.
  struct Traffic {
    bool enabled = false;
    int command_sessions = 8;
    int telemetry_sessions = 4;
    util::Duration mean_interarrival = util::Duration::millis(200.0);
    /// Emit per-request "traffic.request" spans (checker-gated trials).
    bool trace_requests = false;
    /// Render the deterministic per-request outcome log onto the result
    /// (byte-identity tests). The log is rendered from the traffic
    /// account's records at trial end, only when this asks for it.
    bool keep_outcome_log = false;
  };
  Traffic traffic;
  /// Traffic-driven on-demand recovery (requires dispatch == kOnDemand):
  /// after the minimal phase restores the serving core, remaining cells
  /// restart lazily — a client request touching a queued cell promotes its
  /// restart to the DAG front; untouched cells drain in the background.
  bool traffic_driven = false;
};

/// Deadline for one restart action in a trial: the calibration's worst
/// component startup (mean + 3 sigma) under full-system contention, with a
/// 1.5x margin. A correct restart essentially never trips it; a hung one
/// always does.
util::Duration hardened_restart_deadline(const Calibration& cal,
                                         const std::vector<std::string>& components);

struct TrialResult {
  util::Duration recovery = util::Duration::zero();
  int restarts = 0;
  int escalations = 0;
  bool hard_failure = false;
  bool timed_out = false;
  /// Restart actions abandoned by the per-restart deadline.
  int restart_timeouts = 0;
  /// Restart attempts delayed by same-cell backoff.
  int backoffs = 0;
  /// Components REC parked and permanently masked; non-empty implies
  /// hard_failure and the station ended the trial operating degraded.
  std::vector<std::string> parked;
  /// After parking, did everything outside the parked set come back up
  /// (Station::functional_except)? Degraded-but-operating, per ISSUE 2's
  /// availability accounting. Always false when nothing was parked, and
  /// when the parked set includes mbus (nothing works without the bus).
  bool degraded_functional = false;
  /// Startup attempts begun warm / forced cold despite a warm path / died
  /// on poisoned checkpoint state (checkpointed trials only; see
  /// ProcessManager's counters).
  int warm_restarts = 0;
  int cold_fallbacks = 0;
  int checkpoint_crashes = 0;
  /// Warm starts served per tier (L0 local / L1 partner / L2 stable) and
  /// tier copies repopulated after warm recovery (ISSUE 7).
  int warm_hits_l0 = 0;
  int warm_hits_l1 = 0;
  int warm_hits_l2 = 0;
  int tier_rebuilds = 0;
  /// Peak simultaneously in-flight restart actions (always <= 1 under
  /// serial dispatch) and actions absorbed by a covering escalation
  /// (ISSUE 8).
  int max_concurrent_restarts = 0;
  int absorbed_restarts = 0;
  /// Client-traffic availability figures (traffic-enabled trials only):
  /// counts, latency percentiles, goodput dip, per-route reopen latency.
  core::TrafficSummary traffic;
  /// Queued restarts promoted by a client-request touch / dispatched by the
  /// background lazy drain (traffic-driven on-demand trials).
  int touch_promotions = 0;
  int lazy_drains = 0;
  /// Deterministic per-request outcome log (traffic.keep_outcome_log only).
  std::string traffic_outcome_log;
};

/// Client routes the workload polls under `tree`: the command (radio) chain
/// and the telemetry (data) chain, tree-aware (fedrcom vs fedr+pbcom).
std::vector<std::string> command_routes(core::MercuryTree tree);
std::vector<std::string> telemetry_routes(core::MercuryTree tree);

/// A fully wired Mercury system. Exposes the pieces for tests and examples.
class MercuryRig {
 public:
  MercuryRig(sim::Simulator& sim, const TrialSpec& spec);

  Station& station() { return *station_; }
  core::FailureDetector& fd() { return *fd_; }
  core::Recoverer& rec() { return *rec_; }
  core::Oracle& oracle() { return *active_oracle_; }
  bus::DedicatedLink& link() { return *link_; }
  /// The client workload, present when spec.traffic.enabled (not started;
  /// run_trial starts it with the station).
  workload::WorkloadDriver* workload() { return workload_.get(); }

  /// boot_instant + start FD/REC + mutual monitoring.
  void start();

 private:
  sim::Simulator& sim_;
  std::unique_ptr<Station> station_;
  std::unique_ptr<bus::DedicatedLink> link_;
  std::unique_ptr<core::PerfectOracle> perfect_oracle_;
  std::unique_ptr<core::Oracle> owned_oracle_;
  core::Oracle* active_oracle_ = nullptr;
  std::unique_ptr<core::FailureDetector> fd_;
  std::unique_ptr<core::Recoverer> rec_;
  std::unique_ptr<workload::WorkloadDriver> workload_;
  Calibration cal_;
};

/// One §4 measurement: inject, recover, report.
TrialResult run_trial(const TrialSpec& spec);

/// run_trial under a private TraceRecorder (the calling thread's ambient
/// recorder, if any, is shelved for the duration): returns the result plus
/// exactly this trial's events. For determinism comparisons and
/// trace-invariant tests; the ambient trace is left untouched.
struct TracedTrial {
  TrialResult result;
  std::vector<obs::TraceEvent> events;
};
TracedTrial run_trial_traced(const TrialSpec& spec);

/// One trial per spec, executed on the parallel experiment runner
/// (exp::ExperimentRunner, jobs from $MERCURY_JOBS). Results are returned
/// in spec order and traces are merged into the calling thread's recorder
/// in spec order, so the output is byte-identical to a serial loop of
/// run_trial calls regardless of the job count. Specs carry their own
/// seeds; the runner adds no seed derivation here. If any spec has an
/// oracle_override the whole batch runs serially in order on the calling
/// thread — a persistent oracle is order-dependent mutable state shared
/// across trials.
std::vector<TrialResult> run_trial_batch(const std::vector<TrialSpec>& specs);

/// `trials` measurements with seeds spec.seed, spec.seed+1, ...; returns
/// recovery times in seconds. Timed-out or hard-failed trials are counted
/// at the timeout value (and are a red flag — tests assert they don't
/// happen). Runs on the parallel experiment runner via run_trial_batch
/// (same numbers and traces as the historical serial loop, any job count).
util::SampleStats run_trials(TrialSpec spec, int trials);

/// run_trials over a whole grid of cells at once: for each spec, `trials`
/// measurements with seeds spec.seed + i. The specs × trials matrix is
/// flattened spec-major into one run_trial_batch call, so a multi-cell
/// bench sweep keeps every core busy instead of parallelising only within
/// one cell. Returns one SampleStats per spec, in spec order.
std::vector<util::SampleStats> run_trials_grid(const std::vector<TrialSpec>& specs,
                                               int trials);

}  // namespace mercury::station

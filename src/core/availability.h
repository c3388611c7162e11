// Availability algebra (paper §3.2, §4.1) and an analytic MTTR model.
//
// "Availability is generally thought of as the ratio MTTF/(MTTF + MTTR)."
// For a restart group G with components c_i:
//
//     MTTF_G <= min(MTTF_ci)          (any member failing fails the group)
//     MTTR_G >= max(MTTR_ci)          (the group recovers when its slowest
//                                      member has)
//     MTTR_G^II <= sum f_ci MTTR_ci   (§4.1: with per-component cells and a
//                                      perfect oracle, recovery costs only
//                                      the failed member's MTTR, weighted by
//                                      the probability the failure is
//                                      minimally c_i-curable)
//
// The analytic model mirrors the simulator's recovery path (detection +
// contended restart + coupling epilogues + oracle-mistake rounds) closely
// enough to rank trees; the tree optimizer (optimizer.h) searches with it.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/restart_tree.h"

namespace mercury::core {

// --- §3.2 bounds -----------------------------------------------------------

/// min over components; empty input -> +infinity.
double group_mttf_upper_bound(const std::vector<double>& component_mttfs);

/// max over components; empty input -> 0.
double group_mttr_lower_bound(const std::vector<double>& component_mttrs);

/// §4.1: expected group MTTR under per-component cells and a perfect
/// oracle: sum_i f_i * mttr_i. Requires f to sum to ~1 (A_cure).
double expected_group_mttr(const std::vector<double>& f,
                           const std::vector<double>& mttr);

/// MTTF / (MTTF + MTTR).
double availability(double mttf, double mttr);

/// Downtime fraction over a horizon given a failure rate (1/MTTF) and MTTR.
double downtime_fraction(double mttf, double mttr);

// --- Analytic recovery model -------------------------------------------------

/// One class of failures the system experiences.
struct FailureClassModel {
  std::string manifest;
  std::vector<std::string> cure_set;
  /// Relative rate (occurrences per unit time; only ratios matter for the
  /// system MTTR, absolute values matter for availability).
  double rate = 1.0;
};

/// Symmetric startup coupling between two components (ses/str): restarting
/// one forces a detect+restart round for the other unless both restart in
/// the same group.
struct CoupledPairModel {
  std::string a;
  std::string b;
  /// Extra handshake when both restart together (collide negotiation).
  double together_epilogue_s = 0.0;
  /// Extra handshake when the second restarts into a waiting first.
  double sequential_epilogue_s = 0.0;
};

struct SystemModel {
  /// Typical restart duration per component, seconds.
  std::map<std::string, double> restart_duration_s;
  /// Mean failure-detection latency, seconds.
  double detection_latency_s = 0.66;
  /// Contention: durations scale by 1 + slope * max(0, group size - 2).
  double contention_slope = 0.0628;
  std::vector<FailureClassModel> failure_classes;
  std::vector<CoupledPairModel> coupled_pairs;
  /// Probability the oracle guesses too low on a fresh failure.
  double oracle_p_low = 0.0;
  /// Extra readiness epilogue per component (e.g. fedr reconnect when pbcom
  /// restarts under it), seconds.
  std::map<std::string, double> dependent_reconnect_s;
};

/// Contended duration of restarting `group` concurrently: the slowest
/// member's duration times the contention factor.
double group_restart_duration(const SystemModel& model,
                              const std::vector<std::string>& group);

/// Predicted mean recovery time for one failure class under `tree`.
/// Follows the minimal policy, oracle mistakes, escalation, and coupling.
double predicted_recovery_time(const RestartTree& tree, const SystemModel& model,
                               const FailureClassModel& failure);

/// Rate-weighted mean recovery time across all failure classes.
double predicted_system_mttr(const RestartTree& tree, const SystemModel& model);

/// Predicted steady-state availability given absolute class rates
/// (failures per second).
double predicted_availability(const RestartTree& tree, const SystemModel& model);

/// The Mercury system model with the paper's calibrated numbers (Table 1
/// rates, Table 2 restart durations, §4 couplings), for the split-fedrcom
/// configuration. `joint_fraction` is the share of pbcom-manifesting
/// failures that need a joint {fedr,pbcom} cure (§4.4).
SystemModel mercury_system_model(bool split_fedrcom, double oracle_p_low = 0.0,
                                 double joint_fraction = 0.25);

// --- Client-traffic availability accounting (ISSUE 9) ----------------------
//
// The paper's availability is station MTTR; what a user sees is goodput:
// requests served, lost, and retried *through* failures and recoveries.
// TrafficAccount collects one RequestRecord per resolved client request and
// summarizes them against the trial's injection instant — latency
// percentiles over served requests, a binned goodput timeline, and the
// goodput dip (depth / width / end) relative to the pre-injection baseline.

/// How a client request resolved: served, or lost for one of three reasons.
enum class RequestOutcome : std::uint8_t {
  kServed,
  kTimeout,             ///< the last attempt's response deadline passed
  kRejectedRestarting,  ///< the last attempt drew a typed "restarting" nack
  kRejectedParked,      ///< the route was parked: rejected locally
};

/// Loss reason as text: "" (served) | "timeout" | "rejected-restarting" |
/// "rejected-parked" — the outcome log's and request span's `detail`.
std::string_view to_string(RequestOutcome outcome);

/// One client request, resolved. Every issued request resolves exactly once
/// (served, or lost after its retry budget) — the workload driver enforces
/// this, and benches assert issued == served + lost. A plain 24-byte record:
/// the session and route names live in the driver's session table.
struct RequestRecord {
  double sent_t = 0.0;  ///< first-attempt issue time, seconds
  double done_t = 0.0;  ///< resolution time, seconds
  /// Route id: the driver numbers each distinct session target.
  std::uint16_t route = 0;
  std::uint16_t session = 0;  ///< index of the issuing session
  std::uint8_t attempts = 1;  ///< send attempts consumed (> 1 means retried)
  /// Typed "restarting" rejections this request saw (fast-retry signal).
  std::uint8_t restarting_nacks = 0;
  RequestOutcome outcome = RequestOutcome::kServed;

  bool served() const { return outcome == RequestOutcome::kServed; }
};
static_assert(sizeof(RequestRecord) <= 24,
              "one RequestRecord per client request: keep it at 24 bytes");

/// Aggregate availability figures for one trial's traffic.
struct TrafficSummary {
  std::uint64_t issued = 0;
  std::uint64_t served = 0;
  std::uint64_t lost = 0;
  std::uint64_t retried = 0;  ///< requests that needed more than one attempt
  std::uint64_t restarting_rejections = 0;  ///< typed mid-restart nacks seen
  std::uint64_t parked_rejections = 0;      ///< clean rejections at parked routes
  /// Served-request latency percentiles, milliseconds.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  /// Served requests per second before the injection instant.
  double baseline_rps = 0.0;
  /// Goodput dip vs baseline over full bins in (inject, end): depth is
  /// 1 - min_bin_rate/baseline (clamped to [0,1]); width is total time below
  /// the 95%-of-baseline threshold; end is the time from injection until the
  /// last below-threshold bin closes (0 = goodput never dipped).
  double dip_depth = 0.0;
  double dip_width_s = 0.0;
  double dip_end_s = 0.0;
  /// Slowest impacted route's service-reopen latency: over routes that lost
  /// at least one post-injection request, the max time from injection to the
  /// route's first served request (window end if it never served again).
  double worst_route_reopen_s = 0.0;

  bool operator==(const TrafficSummary&) const = default;
};

class TrafficAccount {
 public:
  void record(const RequestRecord& record);

  const std::vector<RequestRecord>& records() const { return records_; }
  std::uint64_t issued() const { return records_.size(); }

  /// Summarize against the trial's injection instant. Goodput bins of
  /// `bin_s` seconds are evaluated only where complete inside
  /// [inject_t, end_t) — `end_t` should be the workload quiesce time, so a
  /// draining tail is never mistaken for a dip. inject_t <= 0 disables the
  /// dip/baseline figures (counts and percentiles still fill in).
  TrafficSummary summarize(double inject_t, double end_t,
                           double bin_s = 0.5) const;

 private:
  std::vector<RequestRecord> records_;
};

}  // namespace mercury::core

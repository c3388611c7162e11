// Deterministic client workload (ISSUE 9).
//
// The paper measures availability as station MTTR; what a ground-station
// user experiences is *goodput*: commands and telemetry polls served, lost,
// and retried through failures and recoveries. This driver attaches a fleet
// of client sessions ("cli.<i>") to mbus and issues open-loop requests —
// arrivals follow a Poisson process clocked from the trial's SplitMix64 seed
// stream, so load never adapts to server slowness and the goodput dip is
// visible rather than absorbed by backpressure.
//
// Each request is an application-level ping at a fixed target route (command
// sessions poll the radio chain, telemetry sessions the data chain) with a
// per-request retry/timeout state machine:
//
//   * a pong resolves the request as served;
//   * a typed "restarting" nack (bus::MessageBus::note_restarting) is a
//     fast failure: the session touches the route (traffic-driven recovery)
//     and retries after a 100 ms backoff;
//   * a timeout (400 ms per attempt: crashed-but-attached components are
//     fail-silent) touches the route and retries likewise;
//   * a parked route answers immediately with a clean local rejection;
//   * max_attempts exhausted resolves the request as lost.
//
// Every issued request resolves exactly once — benches and tests assert
// issued == served + lost. Each resolution appends one 24-byte
// core::RequestRecord to a core::TrafficAccount (latency percentiles, goodput
// dip, per-route reopen latency); nothing else is kept per request. The text
// outcome log the byte-identity tests compare is rendered from those records
// on demand (outcome_text()): the same seed must produce the same log at any
// MERCURY_JOBS.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bus/message_bus.h"
#include "core/availability.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/time.h"

namespace mercury::workload {

struct WorkloadConfig {
  /// Session counts; session i draws its Rng from
  /// exp::SeedStream(seed).trial_seed(i), so adding sessions never perturbs
  /// existing ones.
  int command_sessions = 8;
  int telemetry_sessions = 4;
  /// Open-loop Poisson arrivals per session.
  util::Duration mean_interarrival = util::Duration::millis(200.0);
  /// Send attempts per request before it resolves as lost (at most 255:
  /// the per-request record counts attempts in a byte).
  int max_attempts = 4;
  std::uint64_t seed = 1;
  /// Emit one "traffic.request" span per request (category "traffic").
  /// Heavy: off by default, enabled for the checker-gated trace trials.
  bool trace_requests = false;
  /// Dispatch-mode annotation carried on request spans; the phantom-goodput
  /// trace invariant exempts mode "ondemand" (requests legally race lazy
  /// restarts there).
  std::string mode_label = "serial";
};

/// Aggregate counters, derived from the account (convenience for tests).
struct WorkloadStats {
  std::uint64_t issued = 0;
  std::uint64_t served = 0;
  std::uint64_t lost = 0;
  std::uint64_t retried = 0;
  std::uint64_t restarting_nacks = 0;
  std::uint64_t parked_rejections = 0;
  std::uint64_t timeouts = 0;
};

class WorkloadDriver {
 public:
  /// Sessions are split round-robin over the target lists: command session i
  /// polls command_targets[i % size], telemetry likewise. Throws
  /// std::invalid_argument for more than 65535 sessions or max_attempts
  /// above 255, which the per-request record could not count.
  WorkloadDriver(sim::Simulator& sim, bus::MessageBus& bus,
                 std::vector<std::string> command_targets,
                 std::vector<std::string> telemetry_targets,
                 WorkloadConfig config);
  ~WorkloadDriver();

  WorkloadDriver(const WorkloadDriver&) = delete;
  WorkloadDriver& operator=(const WorkloadDriver&) = delete;

  /// Attach the sessions and begin issuing.
  void start();
  /// Stop issuing new requests; in-flight ones keep resolving (bounded by
  /// max_attempts * (400 ms timeout + 100 ms backoff)).
  void quiesce();
  /// Quiesce instant in seconds (0 while still running) — the `end_t` for
  /// core::TrafficAccount::summarize, so the draining tail after the
  /// measurement window never reads as a goodput dip.
  double quiesce_time() const { return quiesce_t_; }

  /// Traffic-driven recovery hook: fired with the route name when a request
  /// times out or is nacked "restarting" (i.e. client evidence the route is
  /// down). The rig forwards it to Recoverer::touch.
  using TouchCallback = std::function<void(const std::string& target)>;
  void set_touch_callback(TouchCallback callback);
  /// Parked-route probe: a request to a parked route resolves immediately as
  /// a clean local rejection instead of burning its retry budget.
  using ParkedQuery = std::function<bool(const std::string& target)>;
  void set_parked_query(ParkedQuery query);

  const core::TrafficAccount& account() const { return account_; }
  WorkloadStats stats() const;
  /// One line per resolved request, in resolution order, rendered from the
  /// account's records. Deterministic in the seed: the byte-identity
  /// contract for MERCURY_JOBS sweeps.
  std::string outcome_text() const;

 private:
  struct Session {
    std::string name;    // bus endpoint, "cli.<i>"
    std::string target;  // fixed route this session polls
    std::uint16_t route = 0;  // id shared by every session with this target
    util::Rng rng;
    sim::EventId next_arrival;
  };
  /// One in-flight request (keyed by the seq of its *current* attempt; a
  /// retry re-keys it, so a straggler pong from a superseded attempt cannot
  /// resolve the request twice).
  struct Request {
    std::size_t session = 0;
    util::TimePoint first_sent;
    int attempts = 0;
    int restarting_nacks = 0;
    bool timed_out_once = false;
    std::uint64_t trace_span = 0;
    sim::EventId timeout_event;
  };

  void schedule_arrival(std::size_t session_index);
  void issue(std::size_t session_index);
  /// Send one attempt of `request` (assigns a fresh seq and arms the
  /// timeout), or resolve it immediately when the route is parked.
  void send_attempt(Request request);
  void on_receive(std::size_t session_index, const msg::Message& message);
  void on_timeout(std::uint64_t seq);
  /// Retry after backoff, or resolve as lost when the budget is gone.
  void retry_or_lose(Request request, core::RequestOutcome lost_outcome);
  void resolve(Request request, core::RequestOutcome outcome);

  sim::Simulator& sim_;
  bus::MessageBus& bus_;
  std::vector<std::string> command_targets_;
  std::vector<std::string> telemetry_targets_;
  WorkloadConfig config_;
  TouchCallback touch_;
  ParkedQuery parked_;
  std::vector<Session> sessions_;
  std::map<std::uint64_t, Request> in_flight_;  // by current-attempt seq
  core::TrafficAccount account_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t issued_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t restarting_nacks_ = 0;
  bool started_ = false;
  bool quiesced_ = false;
  double quiesce_t_ = 0.0;
};

}  // namespace mercury::workload

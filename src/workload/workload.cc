#include "workload/workload.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "exp/seed_stream.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace mercury::workload {

using util::Duration;

WorkloadDriver::WorkloadDriver(sim::Simulator& sim, bus::MessageBus& bus,
                               std::vector<std::string> command_targets,
                               std::vector<std::string> telemetry_targets,
                               WorkloadConfig config)
    : sim_(sim),
      bus_(bus),
      command_targets_(std::move(command_targets)),
      telemetry_targets_(std::move(telemetry_targets)),
      config_(std::move(config)) {
  assert(!command_targets_.empty() || config_.command_sessions == 0);
  assert(!telemetry_targets_.empty() || config_.telemetry_sessions == 0);
  const exp::SeedStream seeds(config_.seed);
  const int total = config_.command_sessions + config_.telemetry_sessions;
  sessions_.reserve(static_cast<std::size_t>(std::max(0, total)));
  for (int i = 0; i < total; ++i) {
    const bool command = i < config_.command_sessions;
    const auto& targets = command ? command_targets_ : telemetry_targets_;
    const int lane = command ? i : i - config_.command_sessions;
    sessions_.push_back(Session{
        "cli." + std::to_string(i),
        targets[static_cast<std::size_t>(lane) % targets.size()],
        util::Rng(seeds.trial_seed(static_cast<std::uint64_t>(i))),
        sim::EventId{}});
  }
}

WorkloadDriver::~WorkloadDriver() = default;

void WorkloadDriver::set_touch_callback(TouchCallback callback) {
  touch_ = std::move(callback);
}

void WorkloadDriver::set_parked_query(ParkedQuery query) {
  parked_ = std::move(query);
}

void WorkloadDriver::start() {
  if (started_) return;
  started_ = true;
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    bus_.attach(sessions_[i].name, [this, i](const msg::Message& message) {
      on_receive(i, message);
    });
    schedule_arrival(i);
  }
}

void WorkloadDriver::quiesce() {
  if (!started_ || quiesced_) return;
  quiesced_ = true;
  quiesce_t_ = sim_.now().to_seconds();
  for (Session& session : sessions_) {
    if (session.next_arrival.valid()) {
      sim_.cancel(session.next_arrival);
      session.next_arrival = sim::EventId{};
    }
  }
}

void WorkloadDriver::schedule_arrival(std::size_t session_index) {
  if (quiesced_) return;
  Session& session = sessions_[session_index];
  const Duration gap = session.rng.exponential(config_.mean_interarrival);
  session.next_arrival =
      sim_.schedule_after(gap, session.name + ".arrival", [this, session_index] {
        sessions_[session_index].next_arrival = sim::EventId{};
        issue(session_index);
        schedule_arrival(session_index);
      });
}

void WorkloadDriver::issue(std::size_t session_index) {
  const Session& session = sessions_[session_index];
  ++issued_;
  Request request;
  request.session = session_index;
  request.first_sent = sim_.now();
  if (config_.trace_requests) {
    request.trace_span =
        obs::begin_span(sim_.now(), "traffic", "traffic.request", session.name,
                        {{"target", session.target},
                         {"session", session.name},
                         {"mode", config_.mode_label}});
  }
  send_attempt(std::move(request));
}

void WorkloadDriver::send_attempt(Request request) {
  const Session& session = sessions_[request.session];
  // Parked route: the operator-facing hard-failure state. Reject locally and
  // immediately — burning the retry budget against a route that will not
  // come back only inflates latency tails.
  if (parked_ && parked_(session.target)) {
    resolve(std::move(request), /*served=*/false, "rejected-parked");
    return;
  }
  const std::uint64_t seq = next_seq_++;
  ++request.attempts;
  request.timeout_event = sim_.schedule_after(
      config_.request_timeout, session.name + ".timeout",
      [this, seq] { on_timeout(seq); });
  bus_.send(msg::make_ping(session.name, session.target, seq));
  in_flight_.emplace(seq, std::move(request));
}

void WorkloadDriver::on_receive(std::size_t session_index,
                                const msg::Message& message) {
  if (message.kind != msg::Kind::kPong && message.kind != msg::Kind::kNack) {
    return;  // broadcasts and strays
  }
  const auto it = in_flight_.find(message.seq);
  if (it == in_flight_.end() || it->second.session != session_index) return;
  auto node = in_flight_.extract(it);
  Request request = std::move(node.mapped());
  if (request.timeout_event.valid()) {
    sim_.cancel(request.timeout_event);
    request.timeout_event = sim::EventId{};
  }
  if (message.kind == msg::Kind::kPong) {
    resolve(std::move(request), /*served=*/true, "");
    return;
  }
  // Typed mid-restart rejection from the bus: fast, actionable failure — the
  // route is down *because it is restarting*. Touch it (traffic-driven
  // promotion) and retry without waiting out the timeout.
  ++restarting_nacks_;
  ++request.restarting_nacks;
  if (touch_) touch_(sessions_[session_index].target);
  retry_or_lose(std::move(request), "rejected-restarting");
}

void WorkloadDriver::on_timeout(std::uint64_t seq) {
  const auto it = in_flight_.find(seq);
  if (it == in_flight_.end()) return;
  auto node = in_flight_.extract(it);
  Request request = std::move(node.mapped());
  request.timeout_event = sim::EventId{};
  request.timed_out_once = true;
  ++timeouts_;
  obs::incr("traffic.timeouts");
  // Crashed-but-attached components are fail-silent: the timeout is the
  // client's only evidence the route is down. Touch it anyway — touch is a
  // no-op unless a restart is actually queued for the route.
  if (touch_) touch_(sessions_[request.session].target);
  retry_or_lose(std::move(request), "timeout");
}

void WorkloadDriver::retry_or_lose(Request request,
                                   const std::string& lost_detail) {
  if (request.attempts >= config_.max_attempts) {
    resolve(std::move(request), /*served=*/false, lost_detail);
    return;
  }
  const std::string label = sessions_[request.session].name + ".retry";
  sim_.schedule_after(config_.retry_backoff, label,
                      [this, request = std::move(request)]() mutable {
                        send_attempt(std::move(request));
                      });
}

void WorkloadDriver::resolve(Request request, bool served,
                             const std::string& detail) {
  const Session& session = sessions_[request.session];
  const double done_t = sim_.now().to_seconds();

  core::RequestRecord record;
  record.sent_t = request.first_sent.to_seconds();
  record.done_t = done_t;
  record.attempts = std::max(1, request.attempts);
  record.served = served;
  record.target = session.target;
  record.restarting_nacks = request.restarting_nacks;
  record.detail = served ? "" : detail;
  account_.record(record);

  obs::incr(served ? "traffic.served" : "traffic.lost");
  if (record.attempts > 1) obs::incr("traffic.retried");
  if (request.trace_span != 0) {
    obs::end_span(sim_.now(), request.trace_span,
                  {{"outcome", served ? "served" : "lost"},
                   {"attempts", record.attempts},
                   {"detail", record.detail}});
  }

  std::string line = util::format_fixed(done_t, 6) + " " + session.name + " " +
                     session.target + (served ? " served" : " lost") +
                     " attempts=" + std::to_string(record.attempts) +
                     " nacks=" + std::to_string(record.restarting_nacks);
  if (!record.detail.empty()) line += " detail=" + record.detail;
  outcome_log_.push_back(std::move(line));
}

WorkloadStats WorkloadDriver::stats() const {
  WorkloadStats stats;
  stats.issued = issued_;
  stats.restarting_nacks = restarting_nacks_;
  stats.timeouts = timeouts_;
  for (const core::RequestRecord& record : account_.records()) {
    if (record.served) {
      ++stats.served;
    } else {
      ++stats.lost;
    }
    if (record.attempts > 1) ++stats.retried;
    if (record.detail == "rejected-parked") ++stats.parked_rejections;
  }
  return stats;
}

std::string WorkloadDriver::outcome_text() const {
  std::string text;
  for (const std::string& line : outcome_log_) {
    text += line;
    text += '\n';
  }
  return text;
}

}  // namespace mercury::workload

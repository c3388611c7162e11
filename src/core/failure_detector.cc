#include "core/failure_detector.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"
#include "util/log.h"
#include "util/strings.h"

namespace mercury::core {

using util::LogLevel;
using util::LogLine;

FailureDetector::FailureDetector(sim::Simulator& sim, bus::MessageBus& bus,
                                 bus::DedicatedLink& link,
                                 std::vector<std::string> targets, FdConfig config)
    : sim_(sim), bus_(bus), link_(link), config_(std::move(config)) {
  for (auto& name : targets) {
    TargetState state;
    state.name = name;
    targets_.emplace(std::move(name), std::move(state));
  }
}

FailureDetector::~FailureDetector() = default;

void FailureDetector::start() {
  reattach();
  link_.bind(config_.fd_name,
             [this](const msg::Message& message) { on_link_message(message); });

  // Stagger the ping loops evenly across the period so detection latency is
  // uniform regardless of which component fails.
  const std::size_t n = targets_.size();
  std::size_t index = 0;
  for (auto& [name, target] : targets_) {
    target.loop = std::make_unique<sim::PeriodicTask>(
        sim_, "fd.ping:" + name, config_.ping_period,
        [this, &target] { ping(target); });
    const Duration phase =
        config_.ping_period * (static_cast<double>(index + 1) / static_cast<double>(n));
    target.loop->start_with_phase(phase);
    ++index;
  }
}

void FailureDetector::reattach() {
  bus_.attach(config_.fd_name,
              [this](const msg::Message& message) { on_bus_message(message); });
}

void FailureDetector::crash() {
  alive_ = false;
  obs::instant(sim_.now(), "proc", "fd.crash", "fd");
  LogLine(LogLevel::kInfo, sim_.now(), "fd") << "crashed (fail-silent)";
}

void FailureDetector::restart_complete() {
  alive_ = true;
  reattach();
  // Fresh start state: forget outstanding probes and verification.
  for (auto& [name, target] : targets_) {
    if (target.timeout_event.valid()) sim_.cancel(target.timeout_event);
    target.outstanding_seq = 0;
    target.consecutive_misses = 0;
    target.timeout_event = sim::EventId{};
  }
  if (verify_timeout_.valid()) sim_.cancel(verify_timeout_);
  verifying_mbus_ = false;
  pending_reports_.clear();
  obs::instant(sim_.now(), "proc", "fd.restarted", "fd");
  LogLine(LogLevel::kInfo, sim_.now(), "fd") << "restarted";
}

bool FailureDetector::is_masked(const std::string& target) const {
  return masked_.contains(target);
}

void FailureDetector::ping(TargetState& target) {
  if (!alive_) return;
  if (masked_.contains(target.name)) return;
  // While mbus is being restarted nothing is reachable; pinging would only
  // produce a storm of vacuous timeouts.
  if (masked_.contains(config_.mbus_name)) return;
  if (target.outstanding_seq != 0) return;  // previous probe still pending

  const std::uint64_t seq = seq_++;
  target.outstanding_seq = seq;
  bus_.send(msg::make_ping(config_.fd_name, target.name, seq));
  ++pings_sent_;
  target.timeout_event = sim_.schedule_after(
      config_.ping_timeout, "fd.timeout:" + target.name, [this, &target, seq] {
        if (target.outstanding_seq == seq) on_ping_timeout(target);
      });
}

void FailureDetector::on_ping_timeout(TargetState& target) {
  target.outstanding_seq = 0;
  if (!alive_) return;
  if (masked_.contains(target.name)) return;
  // The bus itself is being restarted: universal silence is expected.
  if (masked_.contains(config_.mbus_name)) return;

  // k-of-n suspicion: tolerate transient message loss by requiring
  // consecutive misses before accusing anyone (the next periodic ping is
  // the retry).
  ++target.consecutive_misses;
  obs::instant(sim_.now(), "detect", "fd.suspect", "fd",
               {{"component", target.name},
                {"misses", target.consecutive_misses}});
  obs::incr("fd.suspicions");
  if (target.consecutive_misses < config_.misses_before_report) return;

  if (target.name == config_.mbus_name) {
    report(config_.mbus_name);
    return;
  }
  // The silence may be the bus, not the component (§2.2: "mbus itself is
  // monitored as well"). Verify before accusing the component.
  begin_mbus_verification(target.name);
}

void FailureDetector::begin_mbus_verification(const std::string& pending) {
  if (std::find(pending_reports_.begin(), pending_reports_.end(), pending) ==
      pending_reports_.end()) {
    pending_reports_.push_back(pending);
  }
  if (verifying_mbus_) return;  // probe already in flight; ride along
  verifying_mbus_ = true;
  verify_span_ = obs::begin_span(sim_.now(), "detect", "fd.verify-mbus", "fd",
                                 {{"pending", pending}});
  const std::uint64_t seq = seq_++;
  verify_seq_ = seq;
  bus_.send(msg::make_ping(config_.fd_name, config_.mbus_name, seq));
  ++pings_sent_;
  verify_timeout_ =
      sim_.schedule_after(config_.mbus_verify_timeout, "fd.verify-mbus",
                          [this, seq] {
                            if (verifying_mbus_ && verify_seq_ == seq) {
                              finish_mbus_verification(/*mbus_alive=*/false);
                            }
                          });
}

void FailureDetector::finish_mbus_verification(bool mbus_alive) {
  verifying_mbus_ = false;
  verify_seq_ = 0;
  obs::end_span(sim_.now(), verify_span_,
                {{"mbus_alive", mbus_alive ? "1" : "0"}});
  verify_span_ = 0;
  if (verify_timeout_.valid()) {
    sim_.cancel(verify_timeout_);
    verify_timeout_ = sim::EventId{};
  }
  auto pending = std::move(pending_reports_);
  pending_reports_.clear();
  if (!alive_) return;
  if (!mbus_alive) {
    // All the pending silences are explained by the dead bus.
    report(config_.mbus_name);
    return;
  }
  for (const auto& component : pending) report(component);
}

void FailureDetector::on_bus_message(const msg::Message& message) {
  if (!alive_) return;
  if (message.kind != msg::Kind::kPong) return;
  ++pongs_received_;

  if (verifying_mbus_ && message.from == config_.mbus_name &&
      message.seq == verify_seq_) {
    finish_mbus_verification(/*mbus_alive=*/true);
    return;
  }
  const auto it = targets_.find(message.from);
  if (it == targets_.end()) return;
  TargetState& target = it->second;
  if (target.outstanding_seq == message.seq) {
    target.outstanding_seq = 0;
    target.consecutive_misses = 0;
    if (target.timeout_event.valid()) {
      sim_.cancel(target.timeout_event);
      target.timeout_event = sim::EventId{};
    }
  }
}

void FailureDetector::report(const std::string& component) {
  if (masked_.contains(component)) return;  // REC is already on it
  auto it = targets_.find(component);
  if (it != targets_.end()) {
    TargetState& target = it->second;
    if (sim_.now() - target.last_report < config_.report_cooldown) return;
    target.last_report = sim_.now();
  }
  ++failures_reported_;
  obs::instant(sim_.now(), "detect", "fd.report", "fd",
               {{"component", component}});
  obs::incr("fd.reports");
  LogLine(LogLevel::kInfo, sim_.now(), "fd")
      << "detected failure of " << component << "; notifying rec";
  msg::Message report = msg::make_command(config_.fd_name, config_.rec_name,
                                          seq_++, "report-failure");
  report.body.set_attr("component", component);
  link_.send(report);
}

void FailureDetector::on_link_message(const msg::Message& message) {
  // REC pings FD even while FD is crashed — that is how the crash is
  // noticed, so the alive check must precede everything.
  if (message.kind == msg::Kind::kPing) {
    if (alive_) link_.send(msg::make_pong(message, config_.fd_name));
    return;
  }
  if (message.kind == msg::Kind::kPong) {
    if (alive_ && message.from == config_.rec_name &&
        message.seq == rec_outstanding_seq_) {
      rec_outstanding_seq_ = 0;
      if (rec_timeout_.valid()) {
        sim_.cancel(rec_timeout_);
        rec_timeout_ = sim::EventId{};
      }
    }
    return;
  }
  if (!alive_) return;
  if (message.kind != msg::Kind::kCommand) return;
  const auto components =
      util::split(message.body.attr_or("components", ""), ',');
  if (message.verb == "mask") {
    apply_mask(components, true);
  } else if (message.verb == "unmask") {
    apply_mask(components, false);
  }
}

void FailureDetector::apply_mask(const std::vector<std::string>& components,
                                 bool masked) {
  for (const auto& component : components) {
    if (component.empty()) continue;
    if (masked) {
      masked_.insert(component);
      // Cancel any in-flight suspicion of a component REC is handling.
      const auto it = targets_.find(component);
      if (it != targets_.end()) {
        it->second.outstanding_seq = 0;
        it->second.consecutive_misses = 0;
        if (it->second.timeout_event.valid()) {
          sim_.cancel(it->second.timeout_event);
          it->second.timeout_event = sim::EventId{};
        }
      }
      std::erase(pending_reports_, component);
    } else {
      masked_.erase(component);
    }
  }
}

void FailureDetector::set_rec_restarter(std::function<void()> restarter) {
  rec_restarter_ = std::move(restarter);
}

void FailureDetector::monitor_rec() {
  rec_loop_ = std::make_unique<sim::PeriodicTask>(
      sim_, "fd.ping-rec", config_.ping_period, [this] { ping_rec(); });
  rec_loop_->start_with_phase(config_.ping_period * 0.5);
}

void FailureDetector::ping_rec() {
  if (!alive_) return;
  if (rec_restart_in_flight_) return;
  if (rec_outstanding_seq_ != 0) return;
  const std::uint64_t seq = seq_++;
  rec_outstanding_seq_ = seq;
  link_.send(msg::make_ping(config_.fd_name, config_.rec_name, seq));
  rec_timeout_ = sim_.schedule_after(config_.ping_timeout, "fd.rec-timeout",
                                     [this, seq] {
                                       if (rec_outstanding_seq_ == seq) {
                                         rec_outstanding_seq_ = 0;
                                         on_rec_timeout();
                                       }
                                     });
}

void FailureDetector::on_rec_timeout() {
  if (!alive_ || !rec_restarter_) return;
  obs::instant(sim_.now(), "detect", "fd.rec-unresponsive", "fd");
  obs::incr("fd.rec_restarts");
  LogLine(LogLevel::kWarn, sim_.now(), "fd")
      << "rec unresponsive; initiating rec recovery";
  rec_restart_in_flight_ = true;
  rec_restarter_();
  // Allow renewed monitoring once REC had a chance to come back; the
  // restarter is responsible for the actual restart duration. Re-arm after
  // a grace period of a few ping periods.
  sim_.schedule_after(config_.ping_period * 5.0, "fd.rec-grace",
                      [this] { rec_restart_in_flight_ = false; });
}

}  // namespace mercury::core

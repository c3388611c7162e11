#include "core/recoverer.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/trace.h"
#include "util/log.h"
#include "util/strings.h"

namespace mercury::core {

using util::Duration;
using util::LogLevel;
using util::LogLine;

const char* to_string(DispatchMode mode) {
  switch (mode) {
    case DispatchMode::kSerial: return "serial";
    case DispatchMode::kDag: return "dag";
    case DispatchMode::kOnDemand: return "on-demand";
  }
  return "?";
}

Recoverer::Recoverer(sim::Simulator& sim, bus::DedicatedLink& link,
                     RestartTree tree, Oracle& oracle,
                     ProcessControl& process_control, RecConfig config)
    : sim_(sim),
      link_(link),
      tree_(std::move(tree)),
      oracle_(oracle),
      process_control_(process_control),
      config_(std::move(config)) {
  assert(tree_.validate().ok());
}

Recoverer::~Recoverer() = default;

void Recoverer::start() {
  link_.bind(config_.rec_name,
             [this](const msg::Message& message) { on_link_message(message); });
}

void Recoverer::crash() {
  alive_ = false;
  obs::instant(sim_.now(), "proc", "rec.crash", "rec");
  LogLine(LogLevel::kInfo, sim_.now(), "rec") << "crashed (fail-silent)";
}

void Recoverer::restart_complete() {
  alive_ = true;
  // The generalized procedural knowledge survives in the restart tree file;
  // in-memory chain state (queue, escalation context, backoff streaks,
  // failure epochs) is process state and is lost. Parked hard failures
  // survive: they are the operator-facing record.
  queue_.clear();
  recent_.clear();
  backoff_.clear();
  completion_epoch_.clear();
  obs::instant(sim_.now(), "proc", "rec.restarted", "rec");
  LogLine(LogLevel::kInfo, sim_.now(), "rec") << "restarted";
}

void Recoverer::on_link_message(const msg::Message& message) {
  if (message.kind == msg::Kind::kPing) {
    if (alive_) link_.send(msg::make_pong(message, config_.rec_name));
    return;
  }
  if (message.kind == msg::Kind::kPong) {
    if (alive_ && message.from == config_.fd_name &&
        message.seq == fd_outstanding_seq_) {
      fd_outstanding_seq_ = 0;
      if (fd_timeout_.valid()) {
        sim_.cancel(fd_timeout_);
        fd_timeout_ = sim::EventId{};
      }
    }
    return;
  }
  if (!alive_) return;
  if (message.kind == msg::Kind::kCommand && message.verb == "report-failure") {
    const std::string component = message.body.attr_or("component", "");
    if (!component.empty()) handle_report(component);
  }
}

bool Recoverer::is_parked(const std::string& component) const {
  return parked_.contains(component) ||
         std::find(hard_failures_.begin(), hard_failures_.end(), component) !=
             hard_failures_.end();
}

bool Recoverer::component_in_flight(const std::string& component) const {
  for (const auto& [id, action] : actions_) {
    if (std::binary_search(action.components.begin(), action.components.end(),
                           component)) {
      return true;
    }
  }
  return false;
}

bool Recoverer::conflicts_with_in_flight(NodeId cell) const {
  for (const auto& [id, action] : actions_) {
    if (tree_.conflicts(cell, action.node)) return true;
  }
  return false;
}

void Recoverer::note_in_flight_peak() {
  max_concurrent_ = std::max(max_concurrent_, actions_.size());
}

bool Recoverer::traffic_active() const {
  return config_.traffic_driven && config_.dispatch == DispatchMode::kOnDemand;
}

TouchResult Recoverer::touch(const std::string& component) {
  if (!alive_ || !traffic_active()) return TouchResult::kIdle;
  if (is_parked(component)) return TouchResult::kParked;
  if (component_in_flight(component)) return TouchResult::kRestarting;
  const auto it =
      std::find_if(queue_.begin(), queue_.end(), [&](const QueuedReport& entry) {
        return entry.component == component;
      });
  if (it == queue_.end()) return TouchResult::kIdle;
  QueuedReport entry = *it;
  queue_.erase(it);
  if (should_drop(entry)) return TouchResult::kIdle;
  entry.touched = true;
  ++touch_promotions_;
  obs::instant(sim_.now(), "recover", "rec.touch", "rec",
               {{"component", component}});
  obs::incr("rec.touch_promotions");
  LogLine(LogLevel::kInfo, sim_.now(), "rec")
      << "client request touched " << component << "; promoting its restart";
  if (blocked_in_queue(entry)) {
    // An in-flight ancestor/descendant still conflicts: promoted to the DAG
    // front, dispatches at the first drain once the conflict clears.
    queue_.push_front(entry);
    return TouchResult::kPromoted;
  }
  dispatch_report(entry.component);
  return TouchResult::kPromoted;
}

void Recoverer::schedule_lazy_drain() {
  if (lazy_drain_event_.valid()) return;
  lazy_drain_event_ = sim_.schedule_after(
      config_.lazy_drain_interval, "rec.lazy-drain", [this] {
        lazy_drain_event_ = sim::EventId{};
        lazy_drain_tick();
      });
}

void Recoverer::lazy_drain_tick() {
  if (!alive_ || !traffic_active()) return;
  // Background drain of untouched cells: dispatch the oldest unblocked
  // entry, one per interval, so lazy restarts trickle along behind the
  // traffic-promoted ones without re-contending the whole tree at once.
  std::deque<QueuedReport> pending = std::move(queue_);
  queue_.clear();
  bool dispatched = false;
  while (!pending.empty()) {
    QueuedReport entry = pending.front();
    pending.pop_front();
    if (should_drop(entry)) continue;
    if (dispatched || blocked_in_queue(entry)) {
      queue_.push_back(entry);
      continue;
    }
    ++lazy_drains_;
    obs::incr("rec.lazy_drains");
    dispatch_report(entry.component);
    dispatched = true;
  }
  if (!queue_.empty()) schedule_lazy_drain();
}

void Recoverer::handle_report(const std::string& component) {
  obs::instant(sim_.now(), "recover", "rec.report-received", "rec",
               {{"component", component}});
  // A hard failure is parked for the operator; restarting it forever is
  // exactly what the paper's policy must prevent.
  if (is_parked(component)) return;

  // Already covered by an in-flight action (dispatched or backoff-pending):
  // that restart kills and revives it anyway; if the failure persists, FD
  // re-detects it after completion and the escalation logic takes over.
  if (component_in_flight(component)) return;

  if (!actions_.empty()) {
    bool conflict = config_.dispatch == DispatchMode::kSerial;
    if (!conflict && traffic_active()) {
      // Traffic-driven on-demand: while any action is in flight — the
      // minimal phase restoring the serving core — every further report
      // queues lazily, disjoint cell or not. Service reopens first; the
      // queued cell restarts when a client request touches it, or when the
      // background lazy drain reaches it.
      conflict = true;
    }
    if (!conflict) {
      // DAG modes: only a report whose cell overlaps an in-flight action's
      // cell must wait. Membership was ruled out above, so the only possible
      // overlap is this cell strictly containing an in-flight cell — and
      // restarting an ancestor while its descendant restarts is the one
      // unsafe overlap. Disjoint (sibling-subtree) cells dispatch now.
      const auto cell = tree_.lowest_cell_covering(component);
      conflict = !cell || conflicts_with_in_flight(*cell);
    }
    if (conflict) {
      enqueue_report(component);
      if (traffic_active()) schedule_lazy_drain();
      return;
    }
  }

  dispatch_report(component);
}

void Recoverer::dispatch_report(const std::string& component) {
  Action restart;
  restart.reported_component = component;
  restart.report_time = sim_.now();

  // Escalation (§3.3): the failure survived a restart that covered this
  // component and has resurfaced promptly.
  CompletionRecord* recent = covering_recent(component);

  if (recent != nullptr && recent->soft) {
    // The soft procedure (§7's cheapest rung) did not cure it: climb to the
    // restart ladder. The oracle has not guessed yet, so this is a fresh
    // choose, not a tree escalation.
    restart.escalation_level = 1;
    restart.chain_component = recent->chain_component;
    restart.chain_attempts = recent->chain_attempts;
    ++escalations_;
    obs::instant(sim_.now(), "recover", "rec.escalate", "rec",
                 {{"component", component}, {"level", 1}, {"from", "soft"}});
    obs::incr("rec.escalations");
    OracleQuery query;
    query.tree = &tree_;
    query.failed_component = component;
    query.trace_now = sim_.now().to_seconds();
    restart.node = oracle_.choose(query);
    execute(std::move(restart));
    return;
  }

  if (recent != nullptr) {
    restart.escalation_level = recent->escalation_level + 1;
    restart.chain_component = recent->chain_component;
    restart.chain_attempts = recent->chain_attempts;
    ++escalations_;
    obs::instant(sim_.now(), "recover", "rec.escalate", "rec",
                 {{"component", component},
                  {"level", restart.escalation_level}});
    obs::incr("rec.escalations");
    if (!recent->feedback_sent) {
      obs::instant(sim_.now(), "oracle", "oracle.feedback", "rec",
                   {{"component", recent->chain_component},
                    {"cell", tree_.cell(recent->node).label},
                    {"cured", "0"}});
      oracle_.feedback(recent->chain_component, recent->node, /*cured=*/false);
      recent->feedback_sent = true;
    }
    if (recent->node == tree_.root() &&
        note_root_restart_then_maybe_park(component, nullptr)) {
      return;
    }
    OracleQuery query;
    query.tree = &tree_;
    query.failed_component = component;
    query.escalation_level = restart.escalation_level;
    query.previous_node = recent->node;
    query.trace_now = sim_.now().to_seconds();
    restart.node = oracle_.choose(query);
  } else {
    // Fresh failure: a new chain begins; the attempt budget starts over.
    restart.chain_component = component;
    restart.chain_attempts = 0;
    // With recursive recovery enabled, the first rung is the component's own
    // soft procedure; the restart tree is the ladder above.
    if (config_.enable_soft_recovery &&
        process_control_.supports_soft_recovery()) {
      execute_soft(std::move(restart));
      return;
    }
    OracleQuery query;
    query.tree = &tree_;
    query.failed_component = component;
    query.trace_now = sim_.now().to_seconds();
    restart.node = oracle_.choose(query);
  }

  execute(std::move(restart));
}

Recoverer::CompletionRecord* Recoverer::covering_recent(
    const std::string& component) {
  CompletionRecord* best = nullptr;
  for (auto& record : recent_) {
    if ((sim_.now() - record.complete_time) >= config_.escalation_window) continue;
    if (!std::binary_search(record.components.begin(), record.components.end(),
                            component)) {
      continue;
    }
    if (best == nullptr || record.complete_time > best->complete_time) {
      best = &record;
    }
  }
  return best;
}

void Recoverer::prune_recent() {
  // A record past the escalation window can no longer match a "failure still
  // manifests" probe, and once feedback is settled nothing else reads it.
  std::erase_if(recent_, [this](const CompletionRecord& record) {
    return record.feedback_sent &&
           (sim_.now() - record.complete_time) >= config_.escalation_window;
  });
}

bool Recoverer::note_root_restart_then_maybe_park(
    const std::string& component, const std::set<std::string>* chain_touched) {
  // The whole system was already restarted and this component promptly
  // failed again. Count uncured root restarts *per component*: a fresh,
  // unrelated crash landing just after a reboot must not get an innocent
  // component parked (it merely rides the escalation).
  RootRestartHistory& history = root_history_[component];
  if (sim_.now() - history.last < config_.root_retry_window) {
    ++history.count;
  } else {
    history.count = 1;
  }
  history.last = sim_.now();
  if (history.count < config_.max_root_restarts) return false;
  LogLine(LogLevel::kError, sim_.now(), "rec")
      << "hard failure: " << component << " persists after " << history.count
      << " full restarts; giving up";
  obs::instant(sim_.now(), "recover", "rec.hard-failure", "rec",
               {{"component", component},
                {"root_restarts", history.count}});
  obs::incr("rec.hard_failures");
  park(component, "root-restarts-exhausted", chain_touched);
  return true;
}

void Recoverer::park(const std::string& component, const std::string& reason,
                     const std::set<std::string>* chain_touched) {
  hard_failures_.push_back(component);
  std::vector<std::string> to_mask = {component};
  // Stragglers: processes still restarting from this chain's abandoned
  // attempts are in unknown startup state — parked along with the reported
  // component. Under DAG dispatch other chains' restarts may be live too, so
  // only members this chain actually touched are swept; healthy components
  // abandoned actions left masked go back into service.
  for (const auto& name : process_control_.restarting_now()) {
    if (name == component) continue;
    if (chain_touched == nullptr || !chain_touched->contains(name)) continue;
    to_mask.push_back(name);
  }
  for (const auto& name : to_mask) parked_.insert(name);
  std::set<std::string> live;
  for (const auto& [id, action] : actions_) {
    live.insert(action.components.begin(), action.components.end());
  }
  std::vector<std::string> to_unmask;
  for (const auto& name : masked_) {
    if (!parked_.contains(name) && !live.contains(name)) to_unmask.push_back(name);
  }
  if (obs::enabled()) {
    obs::instant(sim_.now(), "recover", "rec.parked", "rec",
                 {{"component", component},
                  {"reason", reason},
                  {"masked", util::join(to_mask, ",")}});
  }
  obs::incr("rec.parked");
  LogLine(LogLevel::kError, sim_.now(), "rec")
      << "parked " << util::join(to_mask, ",") << " (" << reason
      << "); operating degraded until operator intervention";
  // Permanent FD mask: the station keeps running without the parked cell
  // instead of detect/restart-looping it. send_mask never unmasks parked
  // components again.
  send_mask(to_mask, true);
  if (!to_unmask.empty()) send_mask(to_unmask, false);
  // Parked hosts never come back: checkpoint replicas they host must be
  // reassigned (a parked partner is as gone as a killed one).
  process_control_.note_parked(to_mask);
  drain_queue();
}

bool Recoverer::budget_exhausted_then_park(const Action& restart) {
  if (restart.planned || config_.max_attempts_per_chain <= 0) return false;
  if (restart.chain_attempts < config_.max_attempts_per_chain) return false;
  LogLine(LogLevel::kError, sim_.now(), "rec")
      << "hard failure: chain for " << restart.reported_component
      << " exhausted its budget of " << config_.max_attempts_per_chain
      << " restart attempts; giving up";
  obs::instant(sim_.now(), "recover", "rec.hard-failure", "rec",
               {{"component", restart.reported_component},
                {"attempts", restart.chain_attempts}});
  obs::incr("rec.hard_failures");
  park(restart.reported_component, "attempt-budget-exhausted",
       &restart.chain_touched);
  return true;
}

void Recoverer::execute_soft(Action restart) {
  restart.soft = true;
  restart.components = {restart.reported_component};
  const auto cell = tree_.lowest_cell_covering(restart.reported_component);
  restart.node = cell ? *cell : tree_.root();
  restart.action_id = next_action_id_++;
  ++soft_recoveries_;
  restart.trace_span = obs::begin_span(
      sim_.now(), "recover", "rec.soft", "rec",
      {{"component", restart.reported_component},
       {"cell", tree_.cell(restart.node).label}});
  obs::incr("rec.soft_recoveries");
  LogLine(LogLevel::kInfo, sim_.now(), "rec")
      << "soft recovery of " << restart.reported_component
      << " (recursive-recovery rung 0)";
  send_mask(restart.components, true);
  restart.dispatched = true;
  const std::string component = restart.reported_component;
  const std::uint64_t action_id = restart.action_id;
  actions_.emplace(action_id, std::move(restart));
  note_in_flight_peak();
  process_control_.soft_recover(
      component, [this, action_id] { on_restart_complete(action_id); });
}

bool Recoverer::planned_restart(const std::string& component) {
  if (!alive_) return false;
  if (is_parked(component)) return false;
  const auto cell = tree_.lowest_cell_covering(component);
  if (!cell) return false;
  // Reactive work has priority: declined while any action that could
  // interfere is in flight.
  if (config_.dispatch == DispatchMode::kSerial) {
    if (!actions_.empty()) return false;
  } else if (component_in_flight(component) || conflicts_with_in_flight(*cell)) {
    return false;
  }
  Action restart;
  restart.reported_component = component;
  restart.node = *cell;
  restart.planned = true;
  restart.report_time = sim_.now();
  restart.chain_component = component;
  ++planned_restarts_;
  execute(std::move(restart));
  return true;
}

void Recoverer::execute(Action restart) {
  restart.components = tree_.group_components(restart.node);
  assert(!restart.components.empty());
  restart.action_id = next_action_id_++;

  // Attempt budget: a chain that keeps consuming restarts — whether the
  // failure persists or the restarts themselves keep timing out — is parked
  // rather than retried forever.
  if (budget_exhausted_then_park(restart)) return;
  if (!restart.planned) ++restart.chain_attempts;

  // Escalation ordering (DAG modes): a chosen cell that contains an
  // in-flight descendant absorbs that action before anything else happens —
  // the wider restart re-kills its members, so the narrower action is
  // redundant and must never overlap it.
  absorb_conflicting(restart);

  // Backoff (crash-loop pacing): successive attempts on the same cell are
  // spaced out exponentially. The action claims its cell immediately (it
  // enters actions_, so conflicting reports queue), but the kill/start
  // itself waits.
  Duration delay = Duration::zero();
  if (config_.backoff_base > Duration::zero()) {
    CellBackoff& backoff = backoff_[restart.node];
    // Gradual decay: each full quiet backoff_decay forgets one streak step,
    // so a long-idle cell climbs back down instead of snapping to zero.
    if (backoff.streak > 0 && config_.backoff_decay > Duration::zero()) {
      const int steps = static_cast<int>((sim_.now() - backoff.last).to_seconds() /
                                         config_.backoff_decay.to_seconds());
      backoff.streak = std::max(0, backoff.streak - steps);
    }
    if (backoff.streak > 0) {
      // Clamped to [base, cap] on every path: neither decay nor a sub-unity
      // factor may pace attempts tighter than base.
      const double wait_s =
          std::clamp(config_.backoff_base.to_seconds() *
                         std::pow(config_.backoff_factor, backoff.streak - 1),
                     config_.backoff_base.to_seconds(),
                     config_.backoff_cap.to_seconds());
      const util::TimePoint allowed = backoff.last + Duration::seconds(wait_s);
      if (allowed > sim_.now()) delay = allowed - sim_.now();
    }
  }

  const std::uint64_t action_id = restart.action_id;
  if (delay > Duration::zero()) {
    ++backoffs_applied_;
    obs::instant(sim_.now(), "recover", "rec.backoff", "rec",
                 {{"component", restart.reported_component},
                  {"cell", tree_.cell(restart.node).label},
                  {"delay_s", obs::Fixed{delay.to_seconds(), 3}}});
    obs::incr("rec.backoffs");
    LogLine(LogLevel::kInfo, sim_.now(), "rec")
        << "backing off " << util::format_fixed(delay.to_seconds(), 3)
        << " s before restarting cell " << tree_.cell(restart.node).label;
    actions_.emplace(action_id, std::move(restart));
    note_in_flight_peak();
    sim_.schedule_after(delay, "rec.backoff", [this, action_id] {
      // A vanished id means an escalation absorbed this action meanwhile.
      dispatch(action_id);
    });
    return;
  }

  actions_.emplace(action_id, std::move(restart));
  note_in_flight_peak();
  dispatch(action_id);
}

void Recoverer::absorb_conflicting(const Action& absorber) {
  if (config_.dispatch == DispatchMode::kSerial) return;  // nothing concurrent
  // The nested-or-disjoint group property plus the up-front membership drop
  // leave exactly one overlap shape here: the absorber's cell strictly
  // contains the victim's.
  std::vector<std::uint64_t> victims;
  for (const auto& [id, action] : actions_) {
    if (action.node != absorber.node &&
        tree_.is_ancestor(absorber.node, action.node)) {
      victims.push_back(id);
    }
  }
  for (const std::uint64_t id : victims) {
    const auto it = actions_.find(id);
    Action& victim = it->second;
    ++absorbed_actions_;
    obs::instant(sim_.now(), "recover", "rec.absorb", "rec",
                 {{"component", victim.reported_component},
                  {"cell", tree_.cell(victim.node).label},
                  {"into", tree_.cell(absorber.node).label}});
    obs::incr("rec.absorbed");
    LogLine(LogLevel::kInfo, sim_.now(), "rec")
        << "restart of cell " << tree_.cell(victim.node).label
        << " absorbed by escalation to " << tree_.cell(absorber.node).label;
    if (victim.deadline_event.valid()) sim_.cancel(victim.deadline_event);
    if (victim.dispatched) {
      // Members stay masked: the absorber covers a superset and re-masks at
      // dispatch; its restart_group supersedes the in-flight kill.
      obs::end_span(sim_.now(), victim.trace_span, {{"outcome", "absorbed"}});
    }
    actions_.erase(it);
  }
}

void Recoverer::dispatch(std::uint64_t action_id) {
  const auto it = actions_.find(action_id);
  if (it == actions_.end()) return;
  Action& restart = it->second;
  restart.dispatched = true;
  LogLine(LogLevel::kInfo, sim_.now(), "rec")
      << "restarting cell " << tree_.cell(restart.node).label << " ("
      << util::join(restart.components, ",") << ") for failure of "
      << restart.reported_component
      << (restart.escalation_level > 0
              ? " [escalation level " + std::to_string(restart.escalation_level) + "]"
              : "");

  restart.trace_span =
      obs::enabled()
          ? obs::begin_span(sim_.now(), "recover", "rec.restart", "rec",
                            {{"component", restart.reported_component},
                             {"cell", tree_.cell(restart.node).label},
                             {"group", util::join(restart.components, ",")},
                             {"escalation", restart.escalation_level},
                             {"planned", restart.planned ? "1" : "0"}})
          : 0;
  send_mask(restart.components, true);

  if (config_.backoff_base > Duration::zero()) {
    CellBackoff& backoff = backoff_[restart.node];
    ++backoff.streak;
    backoff.last = sim_.now();
  }

  // Deadline before dispatch: ProcessControl may complete synchronously.
  if (config_.restart_deadline > Duration::zero()) {
    restart.deadline_event =
        sim_.schedule_after(config_.restart_deadline, "rec.restart-deadline",
                            [this, action_id] { on_restart_timeout(action_id); });
  }
  const std::vector<std::string> components = restart.components;
  process_control_.restart_group(
      components, [this, action_id] { on_restart_complete(action_id); });
}

void Recoverer::on_restart_timeout(std::uint64_t action_id) {
  const auto it = actions_.find(action_id);
  if (it == actions_.end()) return;
  const Action failed = it->second;
  actions_.erase(it);

  ++restart_timeouts_;
  obs::end_span(sim_.now(), failed.trace_span, {{"outcome", "timeout"}});
  obs::instant(sim_.now(), "restart", "restart.timeout", "rec",
               {{"component", failed.reported_component},
                {"cell", tree_.cell(failed.node).label},
                {"escalation", failed.escalation_level}});
  obs::incr("rec.restart_timeouts");
  LogLine(LogLevel::kWarn, sim_.now(), "rec")
      << "restart of cell " << tree_.cell(failed.node).label << " for "
      << failed.reported_component << " exceeded its deadline; escalating";

  // Whatever checkpointed state the failed attempt may have warm-started
  // from is now fault-suspected (ISSUE 3 — bad state is exactly what a
  // restart is meant to shed). The shed is tier-aware (ISSUE 7): the
  // implementation condemns only the local snapshots that could have fed
  // the failed attempt; partner replicas and stable copies survive, so the
  // superseding attempt may still warm-start from an unsuspected tier.
  process_control_.discard_checkpoints(failed.components);

  // The hung group's members stay masked; the superseding restart below
  // covers a superset and re-kills the stragglers. No oracle feedback: a
  // restart that never finished says nothing about cure sets.
  Action retry;
  retry.reported_component = failed.reported_component;
  retry.report_time = failed.report_time;
  retry.escalation_level = failed.escalation_level + 1;
  retry.chain_component = failed.chain_component;
  // A timed-out rejuvenation turns reactive: the cell is now genuinely
  // broken. Treat it as a fresh chain on the reported component.
  retry.chain_attempts = failed.planned ? 0 : failed.chain_attempts;
  retry.chain_touched = failed.chain_touched;
  retry.chain_touched.insert(failed.components.begin(), failed.components.end());
  ++escalations_;
  obs::instant(sim_.now(), "recover", "rec.escalate", "rec",
               {{"component", failed.reported_component},
                {"level", retry.escalation_level},
                {"from", "timeout"}});
  obs::incr("rec.escalations");

  if (failed.node == tree_.root()) {
    // Even the full-system restart hangs: after the tolerated number of
    // root-level rounds this chain is unrecoverable by restart. park()
    // sweeps up the hung stragglers and frees the healthy members.
    if (note_root_restart_then_maybe_park(failed.reported_component,
                                          &retry.chain_touched)) {
      return;
    }
  }

  OracleQuery query;
  query.tree = &tree_;
  query.failed_component = failed.reported_component;
  query.escalation_level = retry.escalation_level;
  query.previous_node = failed.node;
  query.trace_now = sim_.now().to_seconds();
  retry.node = oracle_.choose(query);
  execute(std::move(retry));
}

void Recoverer::on_restart_complete(std::uint64_t action_id) {
  // Stale completions are real under restart-time faults: a hung restart
  // that finishes after its deadline fired, a superseded group draining, or
  // an action an escalation absorbed.
  const auto it = actions_.find(action_id);
  if (it == actions_.end()) return;
  const Action finished = it->second;
  if (finished.deadline_event.valid()) sim_.cancel(finished.deadline_event);
  actions_.erase(it);

  obs::end_span(sim_.now(), finished.trace_span);
  obs::incr(finished.soft ? "rec.soft_completed" : "rec.restarts");
  if (obs::enabled()) obs::incr("restarts.cell." + tree_.cell(finished.node).label);
  obs::observe("recovery.action_seconds",
               (sim_.now() - finished.report_time).to_seconds());

  send_mask(finished.components, false);

  RecoveryRecord record;
  record.reported_component = finished.reported_component;
  record.node = finished.node;
  record.restarted = finished.components;
  record.escalation_level = finished.escalation_level;
  record.planned = finished.planned;
  record.soft = finished.soft;
  record.report_time = finished.report_time;
  record.complete_time = sim_.now();
  history_.push_back(record);

  // kSerial keeps exactly one completion record (the legacy "last restart"
  // escalation context); the DAG modes keep one per live chain.
  if (config_.dispatch == DispatchMode::kSerial) recent_.clear();
  prune_recent();
  CompletionRecord completion;
  completion.id = finished.action_id;
  completion.node = finished.node;
  completion.components = finished.components;
  completion.escalation_level = finished.escalation_level;
  completion.soft = finished.soft;
  completion.complete_time = sim_.now();
  completion.chain_component = finished.chain_component;
  completion.chain_attempts = finished.chain_attempts;
  // Soft actions carry no oracle recommendation; never feed the oracle
  // about a node it did not choose.
  completion.feedback_sent = finished.soft;
  recent_.push_back(completion);

  for (const auto& name : finished.components) ++completion_epoch_[name];

  // Positive feedback once the escalation window passes without recurrence
  // (an escalation meanwhile removes or settles the record).
  const std::uint64_t record_id = completion.id;
  sim_.schedule_after(config_.escalation_window, "rec.feedback",
                      [this, record_id] {
                        for (auto& rec : recent_) {
                          if (rec.id != record_id) continue;
                          if (!rec.feedback_sent) {
                            obs::instant(sim_.now(), "oracle", "oracle.feedback",
                                         "rec",
                                         {{"component", rec.chain_component},
                                          {"cell", tree_.cell(rec.node).label},
                                          {"cured", "1"}});
                            oracle_.feedback(rec.chain_component, rec.node,
                                             /*cured=*/true);
                            rec.feedback_sent = true;
                          }
                          break;
                        }
                      });

  drain_queue();
}

void Recoverer::enqueue_report(const std::string& component) {
  const auto it = completion_epoch_.find(component);
  const std::uint64_t epoch = it == completion_epoch_.end() ? 0 : it->second;
  // Dedup on (component, epoch): a queued report from an older failure epoch
  // is already doomed to drop at drain, and a fresh-epoch report is new
  // evidence that must survive it — deduplicating on the name alone would
  // let the stale entry swallow the new failure.
  for (const auto& entry : queue_) {
    if (entry.component == component && entry.epoch == epoch) return;
  }
  queue_.push_back({component, epoch});
}

bool Recoverer::should_drop(const QueuedReport& entry) const {
  if (is_parked(entry.component)) return true;
  const auto it = completion_epoch_.find(entry.component);
  const std::uint64_t epoch = it == completion_epoch_.end() ? 0 : it->second;
  // A restart covering this component completed after the report queued: it
  // either cured the failure, or FD re-detects it and escalation takes over.
  // An entry from the *current* epoch saw no covering restart — it must
  // dispatch no matter what completed before it was queued.
  return entry.epoch < epoch;
}

bool Recoverer::blocked_in_queue(const QueuedReport& entry) const {
  if (config_.dispatch == DispatchMode::kSerial) return !actions_.empty();
  // In-flight membership is not a block: handle_report drops the entry.
  if (component_in_flight(entry.component)) return false;
  const auto cell = tree_.lowest_cell_covering(entry.component);
  return cell.has_value() && conflicts_with_in_flight(*cell);
}

void Recoverer::drain_queue() {
  if (traffic_active()) {
    // Touched (request-promoted) entries dispatch as soon as no in-flight
    // conflict remains; untouched entries keep waiting for the background
    // lazy drain — an action completing must not stampede the whole queue.
    std::deque<QueuedReport> pending = std::move(queue_);
    queue_.clear();
    while (!pending.empty()) {
      const QueuedReport entry = pending.front();
      pending.pop_front();
      if (should_drop(entry)) continue;
      if (!entry.touched || blocked_in_queue(entry)) {
        queue_.push_back(entry);
        continue;
      }
      dispatch_report(entry.component);
    }
    if (!queue_.empty()) schedule_lazy_drain();
    return;
  }
  if (config_.dispatch == DispatchMode::kOnDemand) {
    // Scan the whole queue: any entry whose conflict has cleared dispatches,
    // regardless of position; still-blocked entries keep their order.
    std::deque<QueuedReport> pending = std::move(queue_);
    queue_.clear();
    while (!pending.empty()) {
      const QueuedReport entry = pending.front();
      pending.pop_front();
      if (should_drop(entry)) continue;
      if (blocked_in_queue(entry)) {
        queue_.push_back(entry);
        continue;
      }
      handle_report(entry.component);
    }
    return;
  }
  // kSerial and kDag: FIFO with head-of-line blocking.
  while (!queue_.empty()) {
    const QueuedReport entry = queue_.front();
    if (should_drop(entry)) {
      queue_.pop_front();
      continue;
    }
    if (blocked_in_queue(entry)) break;
    queue_.pop_front();
    handle_report(entry.component);
  }
}

void Recoverer::send_mask(const std::vector<std::string>& components, bool mask) {
  std::vector<std::string> effective = components;
  if (!mask && !parked_.empty()) {
    // Parked components never come back off the mask: the station operates
    // degraded without them until an operator intervenes.
    effective.erase(std::remove_if(effective.begin(), effective.end(),
                                   [this](const std::string& name) {
                                     return parked_.contains(name);
                                   }),
                    effective.end());
    if (effective.empty()) return;
  }
  for (const auto& name : effective) {
    if (mask) {
      masked_.insert(name);
    } else {
      masked_.erase(name);
    }
  }
  const std::string joined = util::join(effective, ",");
  obs::instant(sim_.now(), "recover", mask ? "rec.mask" : "rec.unmask", "rec",
               {{"components", joined}});
  msg::Message command = msg::make_command(config_.rec_name, config_.fd_name,
                                           seq_++, mask ? "mask" : "unmask");
  command.body.set_attr("components", joined);
  link_.send(command);
}

void Recoverer::set_fd_restarter(std::function<void()> restarter) {
  fd_restarter_ = std::move(restarter);
}

void Recoverer::monitor_fd() {
  fd_loop_ = std::make_unique<sim::PeriodicTask>(
      sim_, "rec.ping-fd", config_.fd_ping_period, [this] { ping_fd(); });
  fd_loop_->start();
}

void Recoverer::ping_fd() {
  if (!alive_) return;
  if (fd_restart_in_flight_) return;
  if (fd_outstanding_seq_ != 0) return;
  const std::uint64_t seq = seq_++;
  fd_outstanding_seq_ = seq;
  link_.send(msg::make_ping(config_.rec_name, config_.fd_name, seq));
  fd_timeout_ = sim_.schedule_after(config_.fd_ping_timeout, "rec.fd-timeout",
                                    [this, seq] {
                                      if (fd_outstanding_seq_ == seq) {
                                        fd_outstanding_seq_ = 0;
                                        on_fd_timeout();
                                      }
                                    });
}

void Recoverer::on_fd_timeout() {
  if (!alive_ || !fd_restarter_) return;
  obs::instant(sim_.now(), "detect", "rec.fd-unresponsive", "rec");
  obs::incr("rec.fd_restarts");
  LogLine(LogLevel::kWarn, sim_.now(), "rec")
      << "fd unresponsive; initiating fd recovery";
  fd_restart_in_flight_ = true;
  fd_restarter_();
  sim_.schedule_after(config_.fd_ping_period * 5.0, "rec.fd-grace",
                      [this] { fd_restart_in_flight_ = false; });
}

}  // namespace mercury::core

#include "station/process_manager.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"
#include "station/station.h"
#include "util/log.h"
#include "util/strings.h"

namespace mercury::station {

using util::Duration;
using util::LogLevel;
using util::LogLine;

ProcessManager::ProcessManager(Station& station)
    : station_(station), rng_(station.sim().rng().fork("process-manager")) {}

std::vector<std::string> ProcessManager::component_names() const {
  return station_.component_names();
}

std::vector<std::string> ProcessManager::restarting_now() const {
  std::vector<std::string> names;
  for (const auto& [name, proc] : procs_) {
    if (proc.restarting) names.push_back(name);
  }
  return names;
}

void ProcessManager::soft_recover(const std::string& component,
                                  std::function<void()> on_complete) {
  assert(station_.component(component) != nullptr &&
         "soft_recover: unknown component");
  const std::string name = component;
  const std::uint64_t span =
      obs::enabled()
          ? obs::begin_span(station_.sim().now(), "restart", "soft:" + name, "pm")
          : 0;
  station_.sim().schedule_after(
      station_.cal().soft_recovery_duration, "soft-recover:" + name,
      [this, name, span, on_complete = std::move(on_complete)] {
        Component* target = station_.component(name);
        // A kill that raced in supersedes the soft procedure; the restart
        // path owns recovery now.
        if (target != nullptr && target->up() && !target->restarting()) {
          target->attach_to_bus();
          station_.board().on_soft_recovery_complete(name, station_.sim().now());
        }
        obs::end_span(station_.sim().now(), span);
        if (on_complete) on_complete();
      });
}

void ProcessManager::discard_checkpoints(const std::vector<std::string>& names) {
  // Tier-aware shed (ISSUE 7): fault suspicion condemns the *local* snapshot
  // — it may embody exactly the state that wedged the component — but not
  // the partner replica or stable copy, which did not feed the failed
  // attempt. The retry's tier walk still reaches them before going cold.
  for (const auto& name : names) {
    if (station_.checkpoints().suspect_discard(name)) {
      obs::incr("checkpoint.suspect_discards");
      LogLine(LogLevel::kWarn, station_.sim().now(), name)
          << "local checkpoint discarded (restart-path fault suspected)";
    }
  }
}

void ProcessManager::note_parked(const std::vector<std::string>& names) {
  // A parked host never restarts: replicas it hosted are unreachable, and
  // components it was replica host for must be re-partnered so their next
  // failure still warm-hits L1.
  for (const auto& name : names) {
    const std::size_t reassigned =
        station_.checkpoints().on_host_parked(name, station_.sim().now());
    if (reassigned > 0) {
      obs::incr("checkpoint.parked_reassigns", reassigned);
      LogLine(LogLevel::kWarn, station_.sim().now(), name)
          << "parked replica host: " << reassigned
          << " hosted checkpoint replica(s) reassigned";
    }
  }
}

void ProcessManager::detach_from_group(Proc& proc) {
  if (proc.group == 0) return;
  const std::uint64_t group_id = proc.group;
  proc.group = 0;
  finish_group_member(group_id);
}

void ProcessManager::finish_group_member(std::uint64_t group_id) {
  const auto it = groups_.find(group_id);
  assert(it != groups_.end());
  if (--it->second.remaining == 0) {
    auto on_complete = std::move(it->second.on_complete);
    groups_.erase(it);
    if (on_complete) on_complete();
  }
}

void ProcessManager::restart_group(const std::vector<std::string>& names,
                                   std::function<void()> on_complete) {
  assert(!names.empty());
  const std::uint64_t group_id = next_group_++;
  Group& group = groups_[group_id];
  group.on_complete = std::move(on_complete);
  group.remaining = names.size();
  ++groups_restarted_;

  // Kill phase: everything in the group dies first (REC kills the whole
  // subtree before bringing it back). A member already in flight from an
  // earlier group is superseded: its stale attempt (possibly hung or
  // crashed) is voided by the epoch bump and this group takes ownership —
  // the abandoned group drains and completes, which its initiator must
  // guard against (stale action ids in the recoverer).
  for (const auto& name : names) {
    Component* component = station_.component(name);
    assert(component != nullptr && "restart_group: unknown component");
    (void)component;
    Proc& proc = procs_[name];
    if (proc.restarting) {
      if (proc.span != 0) {
        obs::end_span(station_.sim().now(), proc.span,
                      {{"outcome", "superseded"}});
        proc.span = 0;
      }
      detach_from_group(proc);
    } else {
      proc.restarting = true;
      ++restarting_count_;
    }
    proc.group = group_id;
    ++proc.epoch;
    station_.component(name)->kill();
    // The kill detached the endpoint; mark it mid-restart on the bus so
    // deliveries can answer with a typed "restarting" error (and fire the
    // traffic touch listener) instead of vanishing. The mark clears itself
    // when the restarted component re-attaches.
    station_.bus().note_restarting(name, proc.epoch);
    // Partner replicas live in their host's memory: a group restart that
    // kills the host loses every L1 copy it held (the correlated-failure
    // case — a whole-group restart takes the buddy down too). The local
    // and stable tiers survive process death by construction.
    if (station_.config().checkpoints.enabled) {
      station_.checkpoints().on_host_down(name);
    }
  }

  // Contention (§4.1): concurrent restarts slow each other down. The factor
  // is computed once per group from the total number of in-flight restarts.
  const double contention =
      1.0 + station_.cal().contention_slope * std::max(0, restarting_count_ - 2);

  for (const auto& name : names) begin_attempt(name, contention);
}

void ProcessManager::begin_attempt(const std::string& name, double contention) {
  Component* component = station_.component(name);
  Proc& proc = procs_[name];
  const std::uint64_t epoch = proc.epoch;
  const int attempt = ++proc.attempts;
  ++restarts_performed_;

  // Restart-time faults (ISSUE 2). Deterministic first-k counters trump the
  // probabilistic draws; hang trumps crash. Draws only happen for components
  // with an active spec, so fault-free runs consume no extra randomness.
  const core::RestartFaultSpec& faults = station_.board().restart_faults(name);
  bool hang = false;
  bool crash = false;
  if (faults.active()) {
    if (attempt <= faults.hang_first_attempts) {
      hang = true;
    } else if (attempt - faults.hang_first_attempts <=
               faults.fail_first_attempts) {
      crash = true;
    } else {
      if (faults.hang_prob > 0.0 && rng_.chance(faults.hang_prob)) hang = true;
      if (!hang && faults.crash_prob > 0.0 && rng_.chance(faults.crash_prob)) {
        crash = true;
      }
    }
  }

  // Checkpoint offer (ISSUE 3, tiered by ISSUE 7): with the policy on, a
  // component that has a warm path walks the checkpoint tiers newest-first
  // (L0 local, L1 partner replica, L2 stable) and the first valid snapshot
  // starts it warm — the calibrated warm duration models respawn + reload,
  // scaled by the serving tier's reload factor, skipping the negotiation /
  // resync that dominates the cold mean. Cold fallbacks happen when the
  // whole walk misses:
  //   * attempt > 1 means a previous attempt of this chain already failed;
  //     the *local* snapshot is fault-suspected and shed unread, but the
  //     partner and stable tiers did not feed the failed attempt and are
  //     still consulted before conceding a cold start;
  //   * a corrupt or version-skewed tier copy is discarded as the walk
  //     passes it, never retried; the walk continues to the next tier;
  //   * a stale or missing copy simply yields the next tier (or cold).
  // An undetectably poisoned snapshot validates clean; the warm attempt
  // proceeds and crashes mid-startup, which the hardened recoverer's
  // deadline treats like any other restart-path fault.
  const core::CheckpointPolicy& policy = station_.config().checkpoints;
  const ComponentTiming& timing = component->timing();
  bool warm = false;
  bool poisoned = false;
  core::CheckpointTier warm_tier = core::CheckpointTier::kL0Local;
  std::string cold_reason = "policy-off";
  if (policy.enabled && !timing.has_warm_path()) {
    cold_reason = "no-warm-path";
  } else if (policy.enabled) {
    if (attempt > 1 && station_.checkpoints().suspect_discard(name)) {
      obs::incr("checkpoint.suspect_discards");
      LogLine(LogLevel::kWarn, station_.sim().now(), name)
          << "local checkpoint discarded (attempt " << attempt
          << " of this chain; state is fault-suspected)";
    }
    const core::TierLookup lookup =
        station_.checkpoints().lookup(name, station_.sim().now());
    for (const core::TierProbe& probe : lookup.probes) {
      if (!probe.discarded) continue;
      obs::incr("checkpoint.invalid_discards");
      LogLine(LogLevel::kWarn, station_.sim().now(), name)
          << core::to_string(probe.tier) << " checkpoint failed validation ("
          << core::to_string(probe.verdict) << "); deleted";
    }
    if (lookup.hit) {
      warm = true;
      warm_tier = lookup.tier;
      poisoned = lookup.checkpoint->poisoned;
      if (warm_tier != core::CheckpointTier::kL0Local) {
        obs::incr("checkpoint.replica_hits");
        LogLine(LogLevel::kInfo, station_.sim().now(), name)
            << "warm start served from " << core::to_string(warm_tier);
      }
    } else {
      // On a retry the legacy reason wins: the chain is fault-suspected no
      // matter which verdict the (now L0-less) walk reports.
      cold_reason = attempt > 1 ? "fault-suspect" : lookup.miss_reason();
    }
    if (warm) {
      ++warm_restarts_;
      obs::incr("pm.warm_restarts");
    } else if (timing.has_warm_path()) {
      ++cold_fallbacks_;
      obs::incr("pm.cold_fallbacks");
    }
  }

  const double mean = (warm ? timing.warm_startup_mean : timing.startup_mean)
                          .to_seconds();
  const double sd = (warm ? timing.warm_startup_stddev : timing.startup_stddev)
                        .to_seconds();
  const double base = rng_.normal_at_least(mean, sd, 0.5 * mean);
  // A replica or stable-storage reload costs a little more than the local
  // copy (the factor is 1.0 for L0 and for cold starts, so single-tier runs
  // reproduce ISSUE 3's timings bit-for-bit).
  const double reload = warm ? policy.reload_factor(warm_tier) : 1.0;
  const Duration startup = Duration::seconds(base * contention * reload);

  proc.span = 0;
  if (obs::enabled()) {
    // The epoch lets the trace checker prove supersede order: attempts of
    // one component must carry strictly increasing epochs within a run.
    std::vector<obs::Arg> span_args = {{"component", name},
                                       {"attempt", attempt},
                                       {"epoch", epoch},
                                       {"contention", obs::Fixed{contention, 3}}};
    if (policy.enabled) {
      // Warm/cold annotation only under the policy, so legacy traces stay
      // byte-identical to the seed's.
      span_args.push_back({"start", warm ? "warm" : "cold"});
      if (warm) {
        span_args.push_back({"warm_tier", core::to_string(warm_tier)});
      } else {
        span_args.push_back({"cold_reason", cold_reason});
      }
    }
    proc.span = obs::begin_span(station_.sim().now(), "restart", "restart:" + name,
                                "pm", span_args);
  }
  obs::incr("pm.restarts");

  if (hang) {
    // The startup never completes; nothing is scheduled. Only a superseding
    // restart (the recoverer's deadline path) moves this component again.
    station_.board().note_restart_hang(name, station_.sim().now());
    LogLine(LogLevel::kWarn, station_.sim().now(), name)
        << "startup hangs (restart-time fault, attempt " << attempt << ")";
    return;
  }

  if (crash) {
    // The startup runs its course, then dies: the component stays down, its
    // group stays incomplete, and the attempt counter advances.
    station_.sim().schedule_after(
        startup, "restart.crash:" + name, [this, name, epoch] {
          Proc& proc = procs_[name];
          if (proc.epoch != epoch) return;  // superseded meanwhile
          station_.board().note_restart_crash(name, station_.sim().now());
          if (proc.span != 0) {
            obs::end_span(station_.sim().now(), proc.span,
                          {{"outcome", "crashed"}});
            proc.span = 0;
          }
          LogLine(LogLevel::kWarn, station_.sim().now(), name)
              << "crashed during startup (restart-time fault)";
        });
    return;
  }

  if (warm && poisoned) {
    // The snapshot validated clean but its state is garbage (undetectable
    // corruption): the warm startup runs its course, then dies reloading it.
    // The component stays down and its group stays incomplete — only the
    // hardened recoverer's deadline moves it again, and that path discards
    // the poisoned snapshot so the retry runs cold.
    ++checkpoint_crashes_;
    station_.sim().schedule_after(
        startup, "restart.ckpt-poisoned:" + name,
        [this, name, epoch, warm_tier] {
          Proc& proc = procs_[name];
          if (proc.epoch != epoch) return;  // superseded meanwhile
          // Only the tier that served the garbage is condemned; a clean copy
          // in another tier may still warm the retry.
          station_.checkpoints().discard_tier(name, warm_tier);
          station_.board().note_restart_crash(name, station_.sim().now());
          obs::incr("checkpoint.poison_crashes");
          if (proc.span != 0) {
            obs::end_span(station_.sim().now(), proc.span,
                          {{"outcome", "corrupt-checkpoint"}});
            proc.span = 0;
          }
          LogLine(LogLevel::kWarn, station_.sim().now(), name)
              << "crashed during warm startup (poisoned checkpoint)";
        });
    return;
  }

  station_.sim().schedule_after(
      startup, "restart.complete:" + name, [this, name, epoch, warm] {
        Proc& proc = procs_[name];
        if (proc.epoch != epoch) return;  // superseded meanwhile
        Component* component = station_.component(name);
        assert(component != nullptr);
        proc.restarting = false;
        proc.attempts = 0;
        --restarting_count_;
        if (warm) {
          // Tier rebuild (ISSUE 7): before the component resumes (and
          // eventually refreshes its snapshot itself), re-replicate the
          // serving copy into the tiers the fault emptied, so a second
          // failure of the same cell arriving before the next natural save
          // still warm-hits instead of falling off the redundancy cliff.
          const std::size_t rebuilt =
              station_.checkpoints().rebuild(name, station_.sim().now());
          if (rebuilt > 0) {
            obs::incr("checkpoint.tier_rebuilds", rebuilt);
            LogLine(LogLevel::kInfo, station_.sim().now(), name)
                << "repopulated " << rebuilt << " checkpoint tier(s) after warm start";
          }
        }
        component->complete_start(warm);
        if (proc.span != 0) {
          obs::end_span(station_.sim().now(), proc.span, {{"outcome", "ready"}});
          proc.span = 0;
        }
        station_.board().on_restart_complete(name, station_.sim().now());
        station_.notify_component_restarted(name);
        const std::uint64_t group_id = proc.group;
        proc.group = 0;
        finish_group_member(group_id);
      });
}

}  // namespace mercury::station

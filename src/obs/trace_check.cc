#include "obs/trace_check.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "obs/phases.h"
#include "util/strings.h"

namespace mercury::obs {

namespace {

/// The labels the checker matches on, interned once.
struct Names {
  Label sim{"sim"}, trial_start{"trial.start"}, trial_recovered{"trial.recovered"};
  Label fault{"fault"}, fault_manifest{"fault.manifest"}, fault_cured{"fault.cured"};
  Label recover{"recover"}, rec_parked{"rec.parked"};
  Label rec_hard_failure{"rec.hard-failure"}, rec_restart{"rec.restart"};
  Label restart{"restart"}, traffic{"traffic"}, traffic_request{"traffic.request"};
  Label recovery{"recovery"}, id{"id"}, manifest{"manifest"}, component{"component"};
  Label cell{"cell"}, target{"target"}, mode{"mode"};
  Label epoch{"epoch"}, outcome{"outcome"}, served{"served"}, ondemand{"ondemand"};
};

const Names& names() {
  static const Names kNames;
  return kNames;
}

bool u64_arg(const TraceEvent& event, Label key, std::uint64_t& out) {
  const TraceArg* arg = event.find_arg(key);
  return arg != nullptr && arg->to_u64(out);
}

/// Component of a process-manager restart span ("restart:<name>").
Label restart_component(const TraceEvent& event) {
  const Label from_arg = event.text_arg(names().component);
  if (!from_arg.empty()) return from_arg;
  constexpr std::string_view kPrefix = "restart:";
  const std::string_view name = event.name;
  if (name.size() > kPrefix.size() && name.substr(0, kPrefix.size()) == kPrefix) {
    return Label(name.substr(kPrefix.size()));
  }
  return event.name;
}

bool is_restart_span_begin(const TraceEvent& event) {
  return event.kind == EventKind::kBegin && event.category == names().restart &&
         event.name.view().starts_with("restart:");
}

/// A recoverer action span ("rec.restart", sim and POSIX alike): one restart
/// of one cell's whole group, carrying the group membership as an arg.
bool is_action_span_begin(const TraceEvent& event) {
  return event.kind == EventKind::kBegin && event.category == names().recover &&
         event.name == names().rec_restart;
}

/// One open rec.restart action span, for the conflicting-restart check.
struct OpenAction {
  std::uint64_t run = 0;
  Label cell;
  std::vector<std::string> group;  // sorted member components
};

/// One open traffic.request span, for the phantom-goodput check.
struct OpenRequest {
  std::uint64_t run = 0;
  Label target;
  Label mode;
  double begin_t = 0.0;
};

bool is_request_span_begin(const TraceEvent& event) {
  return event.kind == EventKind::kBegin && event.category == names().traffic &&
         event.name == names().traffic_request;
}

bool groups_intersect(const std::vector<std::string>& a,
                      const std::vector<std::string>& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia == *ib) return true;
    if (*ia < *ib) {
      ++ia;
    } else {
      ++ib;
    }
  }
  return false;
}

/// Accumulated facts about one run (trial), filled in stream order.
struct RunFacts {
  bool has_trial_start = false;
  bool has_recovered = false;
  bool has_parked = false;
  bool has_hard_failure = false;
  double recovered_t = 0.0;
  std::optional<double> reported_recovery;  // trial.recovered "recovery" arg
  std::optional<double> first_manifest_t;
  /// Outstanding fault ids -> (manifest component, onset t); erased on cure.
  /// Only lost-kill reads it, and only for harness trials, so it is kept
  /// only in runs with a trial.start: a background campaign's ~10^5
  /// never-cured faults cost nothing here.
  std::map<std::uint64_t, std::pair<Label, double>> open_faults;
};

/// Shared body of both check_trace overloads; `Range` is any forward range
/// of TraceEvent (flat vector or chunked EventBuffer).
template <typename Range>
std::vector<TraceIssue> check_trace_impl(const Range& events,
                                         const CheckOptions& options) {
  const Names& n = names();
  std::vector<TraceIssue> issues;
  const auto flag = [&](std::string invariant, std::uint64_t run,
                        std::string component, double t, std::string detail) {
    issues.push_back(TraceIssue{std::move(invariant), run, std::move(component),
                                t, std::move(detail)});
  };

  using Key = std::pair<std::uint64_t, Label>;  // (run, component)
  // Ordered by component text, not label id, so issues come out in the
  // same order whatever order the labels were interned in.
  const auto key_less = [](const Key& a, const Key& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second != b.second && a.second.view() < b.second.view();
  };
  using KeyLess = decltype(key_less);
  /// Open restart span per component: span id -> key, plus reverse map.
  std::map<std::uint64_t, Key> span_owner;
  std::map<Key, std::uint64_t, KeyLess> open_restart(key_less);  // key -> open span id
  std::map<Key, double, KeyLess> open_restart_t(key_less);  // key -> begin time of that span
  std::map<Key, std::uint64_t, KeyLess> last_epoch(key_less);
  /// Open traffic.request spans (span id -> target + mode + begin time), for
  /// the phantom-goodput overlap check.
  std::map<std::uint64_t, OpenRequest> open_requests;
  /// Open rec.restart action spans (span id -> cell + group), for the
  /// conflicting-restart overlap check.
  std::map<std::uint64_t, OpenAction> open_actions;
  std::map<std::uint64_t, RunFacts> runs;
  // A first pass finds the harness trials, so the main pass knows whether
  // a run's faults need tracking before its trial.start goes by.
  for (const TraceEvent& event : events) {
    if (event.category == n.sim && event.name == n.trial_start) {
      runs[event.run].has_trial_start = true;
    }
  }
  // Events arrive grouped by run, so the last run's facts are usually the
  // ones wanted (map nodes never move).
  RunFacts* facts_of_last_run = nullptr;
  std::uint64_t last_run = 0;

  for (const TraceEvent& event : events) {
    if (facts_of_last_run == nullptr || event.run != last_run) {
      facts_of_last_run = &runs[event.run];
      last_run = event.run;
    }
    RunFacts& facts = *facts_of_last_run;

    if (event.category == n.sim && event.name == n.trial_recovered) {
      facts.has_recovered = true;
      facts.recovered_t = event.t;
      const TraceArg* recovery = event.find_arg(n.recovery);
      double seconds = 0.0;
      if (recovery != nullptr && recovery->to_double(seconds)) {
        facts.reported_recovery = seconds;
      }
    } else if (event.category == n.fault && event.name == n.fault_manifest) {
      if (!facts.first_manifest_t.has_value()) facts.first_manifest_t = event.t;
      std::uint64_t id = 0;
      if (facts.has_trial_start && u64_arg(event, n.id, id)) {
        facts.open_faults[id] = {event.text_arg(n.manifest), event.t};
      }
    } else if (event.category == n.fault && event.name == n.fault_cured) {
      std::uint64_t id = 0;
      if (u64_arg(event, n.id, id)) facts.open_faults.erase(id);
    } else if (event.category == n.recover && event.name == n.rec_parked) {
      facts.has_parked = true;
    } else if (event.category == n.recover && event.name == n.rec_hard_failure) {
      facts.has_hard_failure = true;
    }

    if (is_action_span_begin(event)) {
      // Conflicting-restart: two rec.restart actions may overlap in time
      // only when their restart groups are disjoint — i.e. their cells are
      // tree-siblings. An overlap with a shared member means an
      // ancestor/descendant pair restarted concurrently, which the DAG
      // scheduler (absorb-on-escalation, conflict queueing) must prevent.
      OpenAction action;
      action.run = event.run;
      action.cell = event.text_arg(n.cell);
      action.group = util::split(event.arg_or("group"), ',');
      std::sort(action.group.begin(), action.group.end());
      for (const auto& [span, other] : open_actions) {
        if (other.run != event.run) continue;
        if (groups_intersect(action.group, other.group)) {
          flag("conflicting-restart", event.run, event.arg_or("component"),
               event.t,
               "restart of cell " + action.cell.str() + " begins while span " +
                   std::to_string(span) + " (cell " + other.cell.str() +
                   ") holds an overlapping group");
        }
      }
      open_actions[event.span] = std::move(action);
    }

    if (is_request_span_begin(event)) {
      OpenRequest request;
      request.run = event.run;
      request.target = event.text_arg(n.target);
      request.mode = event.text_arg(n.mode);
      request.begin_t = event.t;
      open_requests[event.span] = std::move(request);
    }

    if (is_restart_span_begin(event)) {
      const Key key{event.run, restart_component(event)};

      const auto open = open_restart.find(key);
      if (open != open_restart.end()) {
        flag("overlapping-restart", event.run, key.second.str(), event.t,
             "restart begins while span " + std::to_string(open->second) +
                 " of the same component is still in flight");
      }
      open_restart[key] = event.span;
      open_restart_t[key] = event.t;
      span_owner[event.span] = key;

      std::uint64_t epoch = 0;
      if (u64_arg(event, n.epoch, epoch)) {
        const auto previous = last_epoch.find(key);
        if (previous != last_epoch.end() && epoch <= previous->second) {
          flag("epoch-regression", event.run, key.second.str(), event.t,
               "attempt epoch " + std::to_string(epoch) +
                   " not above previous " + std::to_string(previous->second));
        }
        last_epoch[key] = epoch;
      }
    } else if (event.kind == EventKind::kEnd) {
      open_actions.erase(event.span);
      const auto request = open_requests.find(event.span);
      if (request != open_requests.end()) {
        // Phantom-goodput: a request served while its target's restart has
        // been in flight since before the request began never reached a live
        // endpoint — unless on-demand mode, where the request itself revives
        // the target and is answered inside the same span.
        if (event.text_arg(n.outcome) == n.served &&
            request->second.mode != n.ondemand) {
          const Key key{request->second.run, request->second.target};
          const auto open = open_restart.find(key);
          if (open != open_restart.end()) {
            const auto begun = open_restart_t.find(key);
            if (begun != open_restart_t.end() &&
                begun->second <= request->second.begin_t) {
              flag("phantom-goodput", request->second.run,
                   request->second.target.str(), event.t,
                   "request served although restart span " +
                       std::to_string(open->second) +
                       " of its target opened at " +
                       util::format_fixed(begun->second, 6) +
                       " s, before the request began at " +
                       util::format_fixed(request->second.begin_t, 6) + " s");
            }
          }
        }
        open_requests.erase(request);
      }
      const auto owner = span_owner.find(event.span);
      if (owner != span_owner.end()) {
        const auto open = open_restart.find(owner->second);
        if (open != open_restart.end() && open->second == event.span) {
          open_restart.erase(open);
          open_restart_t.erase(owner->second);
        }
        span_owner.erase(owner);
      }
    }
  }

  // Restart spans still open at end of stream are legal only in runs that
  // did not recover (a hung startup under a parked chain stays open).
  for (const auto& [key, span] : open_restart) {
    const auto it = runs.find(key.first);
    if (it != runs.end() && it->second.has_recovered) {
      flag("open-restart", key.first, key.second.str(), 0.0,
           "span " + std::to_string(span) +
               " still open although the trial recovered");
    }
  }

  // Harness-trial accounting: every kill resolves, and for recovered runs
  // the phase decomposition accounts for the measured recovery time.
  std::map<std::uint64_t, std::vector<const RecoveryPhases*>> rows_by_run;
  const std::vector<RecoveryPhases> rows = recovery_phases(events);
  for (const RecoveryPhases& row : rows) rows_by_run[row.run].push_back(&row);

  for (const auto& [run, facts] : runs) {
    if (!facts.has_trial_start) continue;

    const bool resolved =
        facts.has_recovered || facts.has_parked || facts.has_hard_failure;
    if (!resolved && facts.first_manifest_t.has_value() &&
        options.require_resolution) {
      flag("lost-kill", run, runs.at(run).open_faults.empty()
                                 ? std::string()
                                 : runs.at(run).open_faults.begin()->second.first.str(),
           *facts.first_manifest_t,
           "trial neither recovered nor parked by end of trace");
    }
    if (facts.has_recovered && !facts.has_parked && !facts.has_hard_failure) {
      for (const auto& [id, fault] : facts.open_faults) {
        flag("lost-kill", run, fault.first.str(), fault.second,
             "fault id " + std::to_string(id) +
                 " never cured although the trial recovered");
      }
    }

    if (!facts.has_recovered || !facts.reported_recovery.has_value() ||
        !facts.first_manifest_t.has_value()) {
      continue;
    }
    const auto rows_it = rows_by_run.find(run);
    if (rows_it == rows_by_run.end() || rows_it->second.empty()) continue;

    const double measured = *facts.reported_recovery;
    const double slack =
        std::max(options.phase_slack_seconds, options.phase_tolerance * measured);

    // Actions completing after the recovered instant are post-recovery work
    // (planned rejuvenation in the trial's settle window), not part of the
    // measured chain.
    double last_complete = 0.0;
    for (const RecoveryPhases* row : rows_it->second) {
      if (row->t_complete > facts.recovered_t + slack) continue;
      last_complete = std::max(last_complete, row->t_complete);
    }
    if (last_complete == 0.0) continue;
    const double chain = last_complete - *facts.first_manifest_t;
    if (std::abs(chain - measured) > slack) {
      flag("phase-sum", run, rows_it->second.front()->component, last_complete,
           "recovery chain spans " + util::format_fixed(chain, 6) +
               " s but the harness measured " +
               util::format_fixed(measured, 6) + " s");
    }

    // Single-action trials admit the strict decomposition check: the three
    // phases must tile the measured recovery exactly (bench_table1's
    // assertion). Chains with escalations/backoffs legally contain
    // re-detection and backoff gaps between actions.
    if (rows_it->second.size() == 1 && rows_it->second.front()->has_fault) {
      const RecoveryPhases& row = *rows_it->second.front();
      const double sum = row.detection() + row.decision() + row.execution();
      if (std::abs(sum - measured) > slack) {
        flag("phase-sum", run, row.component, row.t_complete,
             "detection+decision+execution = " + util::format_fixed(sum, 6) +
                 " s but the harness measured " +
                 util::format_fixed(measured, 6) + " s");
      }
    }
  }

  return issues;
}

}  // namespace

std::vector<TraceIssue> check_trace(const std::vector<TraceEvent>& events,
                                    const CheckOptions& options) {
  return check_trace_impl(events, options);
}

std::vector<TraceIssue> check_trace(const EventBuffer& events,
                                    const CheckOptions& options) {
  return check_trace_impl(events, options);
}

std::string describe(const std::vector<TraceIssue>& issues) {
  std::ostringstream out;
  for (const TraceIssue& issue : issues) {
    out << "[" << issue.invariant << "] run " << issue.run;
    if (!issue.component.empty()) out << " " << issue.component;
    out << " @" << util::format_fixed(issue.t, 6) << "s: " << issue.detail
        << "\n";
  }
  return out.str();
}

}  // namespace mercury::obs

#include "obs/phases.h"

#include <limits>
#include <map>
#include <sstream>
#include <utility>

#include "util/stats.h"
#include "util/strings.h"

namespace mercury::obs {

namespace {

/// Key for "which run's which component": phases never match across runs.
using Key = std::pair<std::uint64_t, std::uint32_t>;  // (run, component label id)

/// The labels the analysis matches on, interned once.
struct Names {
  Label fault{"fault"}, fault_manifest{"fault.manifest"};
  Label sim{"sim"}, trial_recovered{"trial.recovered"};
  Label detect{"detect"}, fd_report{"fd.report"};
  Label recover{"recover"}, rec_restart{"rec.restart"}, rec_soft{"rec.soft"};
  Label manifest{"manifest"}, component{"component"}, cell{"cell"};
  Label planned{"planned"}, escalation{"escalation"};
};

const Names& names() {
  static const Names kNames;
  return kNames;
}

/// Shared body of both recovery_phases overloads; `Range` is any forward
/// range of TraceEvent (flat vector or chunked EventBuffer).
template <typename Range>
std::vector<RecoveryPhases> recovery_phases_impl(const Range& events) {
  const Names& n = names();
  std::vector<RecoveryPhases> rows;
  // Latest unconsumed fault onset / failure report per (run, component).
  std::map<Key, double> manifest_at;
  std::map<Key, double> report_at;
  std::map<std::uint64_t, RecoveryPhases> open_actions;  // by span id
  // Index into `rows` of the run's latest completed action.
  std::map<std::uint64_t, std::size_t> last_row_of_run;

  for (const TraceEvent& event : events) {
    if (event.category == n.fault && event.name == n.fault_manifest) {
      manifest_at[{event.run, event.text_arg(n.manifest).id()}] = event.t;
      continue;
    }
    if (event.category == n.sim && event.name == n.trial_recovered) {
      // The harness observed the station functionally ready again. The gap
      // between the restart action's end and this instant is post-restart
      // readiness work (e.g. the §4.3 ses/str resync) — part of the
      // recovery the paper measures, so it extends the last action's
      // execution phase.
      const auto it = last_row_of_run.find(event.run);
      if (it != last_row_of_run.end() &&
          event.t > rows[it->second].t_complete) {
        rows[it->second].t_complete = event.t;
      }
      continue;
    }
    if (event.category == n.detect && event.name == n.fd_report) {
      report_at[{event.run, event.text_arg(n.component).id()}] = event.t;
      continue;
    }
    const bool is_action = event.category == n.recover &&
                           (event.name == n.rec_restart || event.name == n.rec_soft);
    if (!is_action) continue;

    if (event.kind == EventKind::kBegin) {
      RecoveryPhases row;
      const Label component = event.text_arg(n.component);
      row.run = event.run;
      row.component = component.str();
      row.cell = event.text_arg(n.cell).str();
      row.soft = event.name == n.rec_soft;
      const TraceArg* planned = event.find_arg(n.planned);
      row.planned = planned != nullptr && planned->value() == "1";
      // Checked read: traces can come from files (jsonl round trips), so a
      // malformed escalation arg must degrade to 0, not whatever atoi
      // happens to return on garbage or out-of-range input.
      const TraceArg* escalation = event.find_arg(n.escalation);
      std::uint64_t level = 0;
      row.escalation_level =
          escalation != nullptr && escalation->to_u64(level) &&
                  level <= static_cast<std::uint64_t>(std::numeric_limits<int>::max())
              ? static_cast<int>(level)
              : 0;
      row.t_action_begin = event.t;

      const Key key{event.run, component.id()};
      const auto report = report_at.find(key);
      if (report != report_at.end() && report->second <= event.t) {
        row.t_report = report->second;
        report_at.erase(report);
      } else {
        // Planned rejuvenation (or a lost report): no detection phase.
        row.t_report = event.t;
      }
      const auto manifest = manifest_at.find(key);
      if (manifest != manifest_at.end() && manifest->second <= row.t_report &&
          !row.planned) {
        row.has_fault = true;
        row.t_fault = manifest->second;
        manifest_at.erase(manifest);
      }
      open_actions[event.span] = std::move(row);
    } else if (event.kind == EventKind::kEnd) {
      const auto it = open_actions.find(event.span);
      if (it == open_actions.end()) continue;
      it->second.t_complete = event.t;
      last_row_of_run[event.run] = rows.size();
      rows.push_back(std::move(it->second));
      open_actions.erase(it);
    }
  }
  return rows;
}

}  // namespace

std::vector<RecoveryPhases> recovery_phases(
    const std::vector<TraceEvent>& events) {
  return recovery_phases_impl(events);
}

std::vector<RecoveryPhases> recovery_phases(const EventBuffer& events) {
  return recovery_phases_impl(events);
}

std::string phase_table(const std::vector<RecoveryPhases>& rows) {
  struct Agg {
    util::SampleStats detection, decision, execution, end_to_end;
  };
  std::map<std::string, Agg> by_component;
  Agg total;
  for (const RecoveryPhases& row : rows) {
    for (Agg* agg : {&by_component[row.component], &total}) {
      agg->detection.add(row.detection());
      agg->decision.add(row.decision());
      agg->execution.add(row.execution());
      agg->end_to_end.add(row.end_to_end());
    }
  }

  std::ostringstream out;
  const auto line = [&](const std::string& name, const Agg& agg) {
    out << util::pad_right(name, 12) << util::pad_left(std::to_string(agg.end_to_end.count()), 6)
        << util::pad_left(util::format_fixed(agg.detection.mean(), 3), 10)
        << util::pad_left(util::format_fixed(agg.decision.mean(), 3), 10)
        << util::pad_left(util::format_fixed(agg.execution.mean(), 3), 10)
        << util::pad_left(util::format_fixed(agg.end_to_end.mean(), 3), 12)
        << util::pad_left(util::format_fixed(agg.end_to_end.percentile(95), 3), 10)
        << "\n";
  };
  out << util::pad_right("component", 12) << util::pad_left("n", 6)
      << util::pad_left("detect", 10) << util::pad_left("decide", 10)
      << util::pad_left("execute", 10) << util::pad_left("end-to-end", 12)
      << util::pad_left("p95", 10) << "\n";
  out << std::string(70, '-') << "\n";
  for (const auto& [component, agg] : by_component) line(component, agg);
  if (!rows.empty()) {
    out << std::string(70, '-') << "\n";
    line("(all)", total);
  }
  return out.str();
}

}  // namespace mercury::obs

// Quickstart: assemble the recursively restartable Mercury station, kill a
// component, and watch the failure detector and recoverer bring it back.
//
//   $ ./build/examples/quickstart
//
// What you see: FD's liveness pings detect the fail-silent ses crash; REC
// consults the restart tree (tree IV: ses and str share a consolidated
// cell, §4.3) and restarts both in parallel; the pair resynchronizes and
// the station reports functional ~6 seconds after the kill — versus ~25 s
// for the monolithic tree I. The whole run is traced (docs/TRACING.md): the
// example narrates the trace event by event, prints the detect/decide/
// execute breakdown, writes quickstart.trace.jsonl (`mercury_ctl chrome`
// renders it for ui.perfetto.dev or chrome://tracing), and exits nonzero if
// the trace breaks a recovery invariant.
#include <cstdio>
#include <fstream>

#include "core/mercury_trees.h"
#include "obs/phases.h"
#include "obs/trace.h"
#include "obs/trace_check.h"
#include "sim/simulator.h"
#include "station/experiment.h"

int main() {
  using namespace mercury;
  namespace names = core::component_names;

  obs::TraceRecorder recorder;
  obs::ScopedRecorder tracing(recorder);

  sim::Simulator sim(/*seed=*/2024);

  station::TrialSpec spec;
  spec.tree = core::MercuryTree::kTreeIV;
  spec.oracle = station::OracleKind::kPerfect;
  station::MercuryRig rig(sim, spec);

  std::printf("Restart tree (tree IV of the paper):\n%s\n",
              rig.rec().tree().render().c_str());

  rig.start();
  sim.run_for(util::Duration::seconds(5.0));

  std::printf("\n>>> t=%.2fs: injecting fail-silent crash of ses (SIGKILL)\n",
              sim.now().to_seconds());
  const util::TimePoint injected = sim.now();
  rig.station().inject_crash(names::kSes);

  while (!rig.station().all_functional()) {
    if (!sim.step()) break;
  }
  // Mark "functionally ready" as run_trial does, so the trace's execute
  // phase covers the ses/str resync too.
  obs::instant(sim.now(), "sim", "trial.recovered", "trial");

  std::printf("\n>>> recovered in %.2f s (detection + parallel ses+str restart "
              "+ resync)\n",
              (sim.now() - injected).to_seconds());
  std::printf(">>> recovery actions taken: %llu, escalations: %llu\n",
              static_cast<unsigned long long>(rig.rec().restarts_executed()),
              static_cast<unsigned long long>(rig.rec().escalations()));
  for (const auto& record : rig.rec().history()) {
    std::printf("    restarted cell %s for reported failure of %s\n",
                rig.rec().tree().cell(record.node).label.c_str(),
                record.reported_component.c_str());
  }

  // The trace explains the recovery: every event as it happened, phases per
  // action, and a Perfetto view with one slice per restart on a track per
  // subsystem.
  const obs::EventBuffer& events = recorder.events();
  std::printf("\nThe recovery, as traced:\n%s", obs::narrate(events).c_str());
  std::printf("\nRecovery phases (from the trace):\n%s",
              obs::phase_table(obs::recovery_phases(events)).c_str());
  std::ofstream trace_file("quickstart.trace.jsonl");
  recorder.write_jsonl(trace_file);
  if (!trace_file.flush()) {  // a failed write shows only once flushed
    std::fprintf(stderr, "error: could not write quickstart.trace.jsonl\n");
    return 1;
  }
  std::printf("trace: quickstart.trace.jsonl\n");
  const std::vector<obs::TraceIssue> issues = obs::check_trace(events);
  if (!issues.empty()) {
    std::fprintf(stderr, "trace invariant violations:\n%s",
                 obs::describe(issues).c_str());
    return 1;
  }
  return 0;
}

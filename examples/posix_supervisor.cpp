// Recursive restartability over real OS processes.
//
//   $ ./build/examples/posix_supervisor
//
// Three real child processes — a fast "estimator", a fast "tracker"
// (sharing a consolidated cell, like ses/str), and a slow "proxy" (like
// pbcom) — supervised over pipes. We SIGKILL the tracker out-of-band (its
// pipe hangs up, which reports it at once) and then WEDGE the proxy
// (fail-silent without a process death, so only a missed ping reveals it),
// and watch the same restart-tree machinery that ran the simulation recover
// real PIDs. The run is traced: the example narrates the trace event by
// event and prints the phase table (timings are wall-clock seconds since
// the supervisor process started). It exits nonzero if a recovery does not
// complete in time or the trace breaks a recovery invariant.
#include <cstdio>
#include <cstdlib>

#include "core/restart_tree.h"
#include "obs/phases.h"
#include "obs/trace.h"
#include "obs/trace_check.h"
#include "posix/supervisor.h"

#ifndef MERCURY_WORKER_BIN
#error "MERCURY_WORKER_BIN must point at the mercury_worker binary"
#endif

int main() {
  using namespace mercury;
  obs::TraceRecorder recorder;
  obs::ScopedRecorder tracing(recorder);

  const std::string worker = MERCURY_WORKER_BIN;

  core::RestartTree tree("R_demo");
  const auto pair = tree.add_cell(tree.root(), "R_[estimator,tracker]");
  tree.attach_component(pair, "estimator");
  tree.attach_component(pair, "tracker");
  const auto proxy = tree.add_cell(tree.root(), "R_proxy");
  tree.attach_component(proxy, "proxy");

  std::printf("Restart tree over real processes:\n%s\n", tree.render().c_str());

  std::vector<posix::WorkerSpec> workers = {
      {"estimator", {worker, "--name", "estimator", "--startup-ms", "120"}},
      {"tracker", {worker, "--name", "tracker", "--startup-ms", "150"}},
      {"proxy", {worker, "--name", "proxy", "--startup-ms", "600"}},
  };

  posix::PosixSupervisor supervisor(tree, workers, posix::SupervisorConfig{});
  if (auto status = supervisor.start_all(); !status.ok()) {
    std::fprintf(stderr, "startup failed: %s\n", status.error().message().c_str());
    return 1;
  }
  std::printf(">>> all workers READY; supervising\n");

  // Wait until `n` recoveries have completed and every worker is up again
  // (a fault injection alone changes no worker state until it is detected).
  const auto recovered = [&](std::size_t n) {
    return supervisor.run_until(
        [&] { return supervisor.history().size() >= n && supervisor.all_up(); },
        posix::Millis{5000});
  };

  std::printf("\n>>> SIGKILLing the tracker (external fault)\n");
  supervisor.kill_worker("tracker");
  const bool tracker_recovered = recovered(1);

  std::printf("\n>>> WEDGEing the proxy (fail-silent, process still alive)\n");
  supervisor.wedge_worker("proxy");
  const bool proxy_recovered = recovered(2);

  std::printf("\nRecovery history:\n");
  for (const auto& record : supervisor.history()) {
    std::printf("  %-9s -> restarted cell %-24s (%lld ms downtime%s)\n",
                record.reported_worker.c_str(),
                supervisor.tree().cell(record.node).label.c_str(),
                static_cast<long long>(record.downtime.count()),
                record.escalation_level > 0 ? ", escalated" : "");
  }
  std::printf("\npings sent: %llu, pongs received: %llu\n",
              static_cast<unsigned long long>(supervisor.pings_sent()),
              static_cast<unsigned long long>(supervisor.pongs_received()));
  std::printf("Note the consolidated cell: killing the tracker restarted the\n"
              "estimator too — the same §4.3 trade the simulation measured.\n");

  const obs::EventBuffer& events = recorder.events();
  std::printf("\nThe run, as traced:\n%s", obs::narrate(events).c_str());
  std::printf("\nRecovery phases (from the trace):\n%s",
              obs::phase_table(obs::recovery_phases(events)).c_str());
  if (!tracker_recovered || !proxy_recovered) {
    std::fprintf(stderr, "error: a recovery did not complete within 5 s\n");
    return 1;
  }
  const std::vector<obs::TraceIssue> issues = obs::check_trace(events);
  if (!issues.empty()) {
    std::fprintf(stderr, "trace invariant violations:\n%s",
                 obs::describe(issues).c_str());
    return 1;
  }
  return 0;
}

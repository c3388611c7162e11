// Recursive restartability over real OS processes.
//
//   $ ./build/examples/posix_supervisor
//
// Three real child processes — a fast "estimator", a fast "tracker"
// (sharing a consolidated cell, like ses/str), and a slow "proxy" (like
// pbcom) — supervised over pipes. We SIGKILL the tracker out-of-band (its
// pipe hangs up, which reports it at once) and then WEDGE the proxy
// (fail-silent without a process death, so only a missed ping reveals it),
// and watch the same restart-tree machinery that ran the
// simulation recover real PIDs. Timings are wall-clock milliseconds.
#include <cstdio>
#include <cstdlib>

#include "core/restart_tree.h"
#include "posix/supervisor.h"
#include "util/log.h"

#ifndef MERCURY_WORKER_BIN
#error "MERCURY_WORKER_BIN must point at the mercury_worker binary"
#endif

int main() {
  using namespace mercury;
  std::setvbuf(stdout, nullptr, _IONBF, 0);
  util::Logger::instance().set_level(util::LogLevel::kInfo);

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

  std::printf("\n>>> SIGKILLing the tracker (external fault)\n");
  supervisor.kill_worker("tracker");
  supervisor.run_until([&] { return supervisor.all_up(); }, posix::Millis{5000});

  std::printf("\n>>> WEDGEing the proxy (fail-silent, process still alive)\n");
  supervisor.wedge_worker("proxy");
  supervisor.run_until(
      [&] { return supervisor.history().size() >= 2 && supervisor.all_up(); },
      posix::Millis{5000});

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
  return 0;
}

// Recursive restartability beyond Mercury: a cluster-based Internet service.
//
//   $ ./build/examples/cluster_service
//
// §5: "many cluster-based Internet services as well as distributed systems
// in general are particularly well suited to RR; in fact, many of the RR
// ideas originated in the Internet world."
//
// The RR core (tree, oracles, recoverer, failure board) is substrate-
// independent: this example supervises a made-up three-tier service —
// load balancer, two app servers sharing a session store, a database —
// with a ProcessControl implemented right here against the event kernel,
// no station code involved. A failure storm then shows per-tier recovery,
// escalation on a session-corruption failure that needs app+session cured
// together, and the §4 transformations applied live to fix the tree. The
// run is traced like every bench: the example prints the per-tier phase
// breakdown, writes cluster_service.trace.json for ui.perfetto.dev, and
// exits nonzero if the trace breaks a recovery invariant.
#include <cstdio>
#include <fstream>
#include <map>

#include "bus/dedicated_link.h"
#include "core/failure_board.h"
#include "core/oracle.h"
#include "core/process_control.h"
#include "core/recoverer.h"
#include "core/transformations.h"
#include "obs/phases.h"
#include "obs/trace.h"
#include "obs/trace_check.h"
#include "sim/simulator.h"

namespace {

using namespace mercury;
using util::Duration;

/// Minimal ProcessControl over the event kernel: components are just
/// (name, restart duration) pairs plus the failure board's cure rule.
class ClusterProcessControl : public core::ProcessControl {
 public:
  ClusterProcessControl(sim::Simulator& sim, core::FailureBoard& board)
      : sim_(sim), board_(board) {
    durations_ = {{"lb", 1.5}, {"app1", 6.0}, {"app2", 6.0},
                  {"sessions", 3.0}, {"db", 20.0}};
  }

  std::vector<std::string> component_names() const override {
    std::vector<std::string> names;
    for (const auto& [name, duration] : durations_) names.push_back(name);
    return names;
  }

  void restart_group(const std::vector<std::string>& names,
                     std::function<void()> on_complete) override {
    auto remaining = std::make_shared<std::size_t>(names.size());
    for (const auto& name : names) {
      ++in_flight_;
      sim_.schedule_after(
          Duration::seconds(durations_.at(name)), "restart:" + name,
          [this, name, remaining, on_complete] {
            --in_flight_;
            board_.on_restart_complete(name, sim_.now());
            if (--*remaining == 0 && on_complete) on_complete();
          });
    }
  }

  bool restart_in_progress() const override { return in_flight_ > 0; }
  std::vector<std::string> restarting_now() const override { return {}; }

 private:
  sim::Simulator& sim_;
  core::FailureBoard& board_;
  std::map<std::string, double> durations_;
  int in_flight_ = 0;
};

}  // namespace

int main() {
  std::setvbuf(stdout, nullptr, _IONBF, 0);

  obs::TraceRecorder recorder;
  obs::ScopedRecorder tracing(recorder);

  sim::Simulator sim(/*seed=*/99);
  core::FailureBoard board;
  ClusterProcessControl cluster(sim, board);

  // --- Design the tree with the §4 transformations ------------------------
  core::RestartTree monolith("R_service");
  for (const auto& name : cluster.component_names()) {
    monolith.attach_component(monolith.root(), name);
  }
  auto tree = core::depth_augment(monolith, monolith.root()).value();
  // app1/app2 share the session store: corruption failures need an app and
  // the store cured together, so give each pair a joint cell.
  tree = core::group_under_joint(tree, "app1", "sessions", "R_[app1,sessions]")
             .value();
  std::printf("Service restart tree (depth-augmented, app1+sessions jointed):\n%s\n",
              tree.render().c_str());

  // --- Wire the generic recovery machinery --------------------------------
  bus::DedicatedLink link(sim, "fd", "rec");
  core::PerfectOracle oracle(board);
  core::Recoverer rec(sim, link, tree, oracle, cluster, core::RecConfig{});
  rec.start();

  // Failure reports come straight from the board here (the example skips a
  // ping-based FD: any detector that names the failed component works). It
  // traces its report like FD does, so the phase table can split detection
  // from decision.
  const double detection_latency = 0.5;
  board.add_inject_listener([&](const core::ActiveFailure& failure) {
    const std::string component = failure.spec->manifest;
    sim.schedule_after(Duration::seconds(detection_latency), "detect", [&, component] {
      obs::instant(sim.now(), "detect", "fd.report", "fd",
                   {{"component", component}});
      msg::Message report = msg::make_command("fd", "rec", 1, "report-failure");
      report.body.set_attr("component", component);
      link.send(report);
    });
  });

  const auto recover_and_report = [&](const char* what) {
    const auto start = sim.now();
    while (board.any_active() || rec.restart_in_progress()) sim.step();
    std::printf("  %-46s recovered in %6.2f s\n", what,
                (sim.now() - start).to_seconds());
  };

  std::printf("Failure storm:\n");
  board.inject(core::make_crash("lb"), sim.now());
  recover_and_report("lb crash (1.5 s tier)");

  sim.run_for(Duration::seconds(5.0));
  board.inject(core::make_crash("app2"), sim.now());
  recover_and_report("app2 crash (6 s tier)");

  sim.run_for(Duration::seconds(5.0));
  board.inject(core::make_joint("app1", {"app1", "sessions"}), sim.now());
  recover_and_report("session corruption (joint {app1,sessions})");

  sim.run_for(Duration::seconds(5.0));
  board.inject(core::make_crash("db"), sim.now());
  recover_and_report("db crash (20 s tier, nothing else dragged in)");

  const obs::EventBuffer& events = recorder.events();
  std::printf("\nRecovery phases (from the trace):\n%s",
              obs::phase_table(obs::recovery_phases(events)).c_str());
  std::ofstream trace_file("cluster_service.trace.json");
  recorder.write_chrome_trace(trace_file);
  if (!trace_file.good()) {
    std::fprintf(stderr, "error: could not write cluster_service.trace.json\n");
    return 1;
  }
  std::printf("trace: cluster_service.trace.json (ui.perfetto.dev)\n");
  std::printf("\nThe point: none of this code touched the Mercury station —\n"
              "the tree algebra, oracle, and recoverer are substrate-free.\n"
              "Your system only supplies a ProcessControl and a failure\n"
              "detector that names components.\n");
  const std::vector<obs::TraceIssue> issues = obs::check_trace(events);
  if (!issues.empty()) {
    std::fprintf(stderr, "trace invariant violations:\n%s",
                 obs::describe(issues).c_str());
    return 1;
  }
  return 0;
}

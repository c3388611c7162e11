// Table 1 reproduction: "Observed per-component MTTFs".
//
//   Paper: mbus 1 month, fedrcom 10 min, ses/str/rtu 5 hr.
//
// The background fault injector drives the (fused-fedrcom) station with the
// calibrated failure processes for two simulated years; we report the
// empirical mean inter-failure time per component against the paper's
// operator estimates. This validates the workload model every other bench
// rests on.
#include <cmath>
#include <cstdio>

#include "bench/bench_common.h"
#include "core/mercury_trees.h"
#include "sim/simulator.h"
#include "station/experiment.h"
#include "station/fault_injector.h"
#include "station/station.h"

int main() {
  namespace names = mercury::core::component_names;
  using mercury::bench::print_header;
  using mercury::bench::print_row;
  using mercury::bench::print_rule;
  using mercury::util::Duration;

  mercury::bench::TraceSession trace("bench_table1");

  print_header(
      "Table 1 — observed per-component MTTFs, empirical over 2 simulated\n"
      "years of the fused-fedrcom station (paper: operator estimates)");

  mercury::sim::Simulator sim(42);
  mercury::station::StationConfig config;
  config.split_fedrcom = false;
  config.enable_domain_behavior = false;
  mercury::station::Station station(sim, config);
  station.boot_instant();

  mercury::station::InjectorConfig injector_config;
  injector_config.suppress_double_faults = false;  // no repair loop running
  injector_config.fedr_weibull_shape = 1.0;        // plain Table-1 rates
  mercury::station::FaultInjector injector(station, injector_config);
  injector.start();

  sim.run_for(Duration::days(2 * 365.0));

  struct Row {
    const char* component;
    const char* paper;
    double paper_hours;
  };
  const Row rows[] = {
      {"mbus", "1 month", 30.0 * 24.0},
      {"fedrcom", "10 min", 10.0 / 60.0},
      {"ses", "5 hr", 5.0},
      {"str", "5 hr", 5.0},
      {"rtu", "5 hr", 5.0},
  };

  const std::vector<int> widths = {10, 12, 10, 16, 16};
  print_row({"Component", "paper MTTF", "failures", "measured MTTF", "ratio"},
            widths);
  print_rule(widths);
  for (const Row& row : rows) {
    const double measured_hours =
        injector.mean_inter_failure(row.component) / 3600.0;
    print_row({row.component, row.paper, std::to_string(injector.injected(row.component)),
               mercury::util::format_fixed(measured_hours, 3) + " hr",
               mercury::util::format_fixed(measured_hours / row.paper_hours, 3)},
              widths);
  }
  std::printf(
      "\nRatios near 1.0 confirm the injector realizes the paper's observed\n"
      "failure rates (exponential inter-arrivals at the Table-1 means).\n");

  // Recovery-path trace validation: one supervised crash trial per Table-1
  // component, so the emitted trace holds complete fault -> detect -> decide
  // -> restart chains. The phase decomposition reconstructed from the trace
  // (obs/phases.h) must tile the measured end-to-end recovery time.
  print_header(
      "Trace check — phase decomposition vs measured end-to-end recovery\n"
      "(detection + decision + execution from the trace, per crash trial)");
  const std::vector<int> phase_widths = {10, 12, 12, 12, 12, 12, 8};
  print_row({"Component", "measured s", "detect s", "decide s", "execute s",
             "phase sum", "|err| %"},
            phase_widths);
  print_rule(phase_widths);

  const std::vector<std::string> crash_components = {"ses", "str", "rtu",
                                                     "fedrcom", "mbus"};
  std::vector<mercury::station::TrialSpec> specs;
  for (const std::string& component : crash_components) {
    mercury::station::TrialSpec spec;
    spec.tree = mercury::core::MercuryTree::kTreeI;
    spec.oracle = mercury::station::OracleKind::kHeuristic;
    spec.fail_component = component;
    spec.seed = 7;
    specs.push_back(std::move(spec));
  }
  // The batch parallelises across components; the merged trace assigns trial
  // i the run index run_before + 1 + i, exactly as the serial loop did.
  const std::uint64_t run_before =
      trace.recorder() != nullptr ? trace.recorder()->run() : 0;
  const std::vector<mercury::station::TrialResult> results =
      mercury::station::run_trial_batch(specs);

  bool phases_ok = true;
  if (trace.recorder() != nullptr) {
    const auto rows = mercury::obs::recovery_phases(trace.recorder()->events());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      // Sum the phases of every recovery action this trial's run produced
      // (normally one; escalations would add rows that still tile the span).
      double detect = 0.0, decide = 0.0, execute = 0.0;
      for (const auto& row : rows) {
        if (row.run != run_before + 1 + i) continue;
        detect += row.detection();
        decide += row.decision();
        execute += row.execution();
      }
      const double measured = results[i].recovery.to_seconds();
      const double sum = detect + decide + execute;
      const double err_pct =
          measured > 0.0 ? 100.0 * std::abs(sum - measured) / measured : 0.0;
      if (err_pct > 1.0) phases_ok = false;
      print_row({crash_components[i],
                 mercury::util::format_fixed(measured, 3),
                 mercury::util::format_fixed(detect, 3),
                 mercury::util::format_fixed(decide, 3),
                 mercury::util::format_fixed(execute, 3),
                 mercury::util::format_fixed(sum, 3),
                 mercury::util::format_fixed(err_pct, 2)},
                phase_widths);
    }
    std::printf("\nphase decomposition %s: per-phase durations sum to the "
                "measured\nend-to-end recovery time (tolerance 1%%)\n",
                phases_ok ? "OK" : "MISMATCH");
  }
  return trace.finish() | (phases_ok ? 0 : 1);
}

// Ablation: rejuvenation through "free" restarts (§4.4).
//
// "A 'free' fedr restart ... also constitutes a prophylactic restart that
// rejuvenates the fedr component, hence improving its MTTF. ... Therefore
// MTTF^V >= MTTF^IV."
//
// fedr's lifetime is Weibull(k=2) from its last restart (increasing
// hazard), so every extra restart resets its age. Under tree V every joint
// pbcom incident restarts fedr "for free"; under tree IV, pbcom-only cures
// leave fedr aging. We amplify pbcom-class incidents (higher rate, all
// requiring the joint cure in tree V's subtree) and compare fedr's
// effective MTTF and crash count.
#include <cstdio>

#include "bench/bench_common.h"
#include "core/mercury_trees.h"
#include "sim/simulator.h"
#include "station/experiment.h"
#include "station/fault_injector.h"

namespace {

using mercury::core::MercuryTree;
using mercury::util::Duration;

struct Outcome {
  double fedr_mttf_min = 0.0;
  std::uint64_t fedr_failures = 0;
  std::uint64_t fedr_restarts = 0;
};

Outcome long_run(MercuryTree tree, std::uint64_t seed) {
  namespace names = mercury::core::component_names;
  mercury::sim::Simulator sim(seed);
  mercury::station::TrialSpec spec;
  spec.tree = tree;
  spec.oracle = mercury::station::OracleKind::kPerfect;
  // Amplify the interplay so the rejuvenation signal clears the sampling
  // noise: fedr wears out over ~30 minutes (sharp Weibull k=3 hazard), and
  // pbcom suffers independent background failures every ~45 minutes whose
  // cure under tree V drags fedr along "for free" at a *random* point in
  // its lifetime. (Aging-driven pbcom failures would not do: they trigger
  // at the moment of a fedr restart, when fedr is already fresh, so the
  // free restart rejuvenates nothing — we disable aging here to isolate
  // the effect.)
  spec.cal.mttf_fedr = Duration::minutes(30.0);
  spec.cal.mttf_pbcom = Duration::minutes(45.0);
  spec.cal.pbcom_aging_threshold = 1'000'000;
  mercury::station::MercuryRig rig(sim, spec);
  rig.start();

  mercury::station::InjectorConfig injector_config;
  injector_config.fedr_weibull_shape = 3.0;  // strongly increasing hazard
  // All pbcom-manifesting failures are pbcom-only-curable here: tree IV's
  // perfect oracle then restarts pbcom alone (fedr keeps aging), while
  // tree V's structure forces the joint restart that rejuvenates fedr.
  injector_config.pbcom_joint_fraction = 0.0;
  mercury::station::FaultInjector injector(rig.station(), injector_config);
  injector.start();

  sim.run_for(Duration::days(10.0));

  Outcome outcome;
  outcome.fedr_failures = injector.injected(names::kFedr);
  outcome.fedr_mttf_min = injector.mean_inter_failure(names::kFedr) / 60.0;
  for (const auto& record : rig.rec().history()) {
    for (const auto& component : record.restarted) {
      if (component == names::kFedr) ++outcome.fedr_restarts;
    }
  }
  return outcome;
}

}  // namespace

int main() {
  using mercury::bench::print_header;
  using mercury::bench::print_row;
  using mercury::bench::print_rule;
  using mercury::util::format_fixed;

  print_header(
      "Ablation — rejuvenation (§4.4): fedr effective MTTF, tree IV vs V\n"
      "fedr lifetime ~ Weibull(k=3, mean 30 min) from last restart; pbcom\n"
      "fails independently every ~45 min; 10 simulated days");

  const std::vector<int> widths = {6, 16, 16, 18};
  print_row({"Tree", "fedr failures", "fedr restarts", "fedr MTTF (min)"},
            widths);
  print_rule(widths);

  const auto iv = long_run(MercuryTree::kTreeIV, 123);
  const auto v = long_run(MercuryTree::kTreeV, 123);
  print_row({"IV", std::to_string(iv.fedr_failures),
             std::to_string(iv.fedr_restarts), format_fixed(iv.fedr_mttf_min, 2)},
            widths);
  print_row({"V", std::to_string(v.fedr_failures), std::to_string(v.fedr_restarts),
             format_fixed(v.fedr_mttf_min, 2)},
            widths);

  std::printf(
      "\nExpected: tree V performs extra (free) fedr restarts whenever pbcom\n"
      "fails, resetting fedr's Weibull age, so MTTF^V_fedr >= MTTF^IV_fedr\n"
      "and tree V logs fewer fedr crashes over the same horizon.\n");
  return 0;
}

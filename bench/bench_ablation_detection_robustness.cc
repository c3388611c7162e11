// Ablation: detection robustness — missed-ping threshold vs message loss.
//
// The paper's FD reports a component on its first missed ping, which is
// sound because mbus is TCP (lossless in steady state). This sweep shows
// what that choice costs on a lossy transport: every dropped ping or pong
// becomes a spurious restart. Raising the suspicion threshold to k
// consecutive misses suppresses the false positives at the price of
// (k-1) extra ping periods of detection latency on real failures.
#include <cstdio>
#include <cstdint>
#include <vector>

#include "bench/bench_common.h"
#include "core/mercury_trees.h"
#include "sim/simulator.h"
#include "station/experiment.h"

namespace {

namespace names = mercury::core::component_names;
using mercury::core::MercuryTree;
using mercury::station::MercuryRig;
using mercury::station::OracleKind;
using mercury::station::TrialSpec;
using mercury::util::Duration;

/// Spurious restarts during a failure-free hour on a lossy bus.
std::uint64_t spurious_restarts(double loss, int misses, std::uint64_t seed) {
  mercury::sim::Simulator sim(seed);
  TrialSpec spec;
  spec.tree = MercuryTree::kTreeIV;
  spec.oracle = OracleKind::kHeuristic;
  spec.bus_loss_probability = loss;
  spec.fd_misses_before_report = misses;
  MercuryRig rig(sim, spec);
  rig.start();
  sim.run_for(Duration::hours(1.0));
  return rig.rec().restarts_executed();
}

/// MTTR for a genuine rtu crash under the same configuration.
double crash_mttr(double loss, int misses, std::uint64_t seed) {
  TrialSpec spec;
  spec.tree = MercuryTree::kTreeIV;
  spec.oracle = OracleKind::kPerfect;
  spec.fail_component = names::kRtu;
  spec.bus_loss_probability = loss;
  spec.fd_misses_before_report = misses;
  spec.seed = seed;
  return mercury::station::run_trials(spec, 60).mean();
}

}  // namespace

int main() {
  using mercury::bench::print_header;
  using mercury::bench::print_row;
  using mercury::bench::print_rule;
  using mercury::util::format_fixed;

  print_header(
      "Ablation — detection robustness: consecutive-miss threshold k vs\n"
      "bus loss rate. Left: spurious restarts per failure-free hour.\n"
      "Right: MTTR of a real rtu crash (60 trials).");

  const std::vector<int> widths = {10, 12, 12, 12, 14, 14};
  print_row({"loss", "k=1 spur.", "k=2 spur.", "k=3 spur.", "k=1 MTTR",
             "k=3 MTTR"},
            widths);
  print_rule(widths);

  // k=1's spurious restarts at each loss rate, for the closing text.
  std::vector<std::uint64_t> k1_spurious;
  std::uint64_t seed = 88'000;
  for (double loss : {0.0, 0.001, 0.005, 0.02}) {
    seed += 101;
    k1_spurious.push_back(spurious_restarts(loss, 1, seed));
    print_row({format_fixed(loss * 100.0, 1) + "%", std::to_string(k1_spurious.back()),
               std::to_string(spurious_restarts(loss, 2, seed + 1)),
               std::to_string(spurious_restarts(loss, 3, seed + 2)),
               format_fixed(crash_mttr(loss, 1, seed + 3), 2),
               format_fixed(crash_mttr(loss, 3, seed + 4), 2)},
              widths);
  }

  std::printf(
      "\nExpected: at 0%% loss (Mercury's TCP bus) k=1 is free — the paper's\n"
      "choice is right for its transport. At 0.5-2%% loss, k=1 restarts\n"
      "healthy components %llu-%llu times an hour; k=3 eliminates nearly\n"
      "all of it for ~2 ping periods of added detection latency.\n",
      static_cast<unsigned long long>(k1_spurious[2]),
      static_cast<unsigned long long>(k1_spurious[3]));
  return 0;
}

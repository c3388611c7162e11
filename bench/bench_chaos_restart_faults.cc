// Chaos campaign over the restart path (ISSUE 2).
//
// The paper's recovery machinery assumes the cure works: killing and
// restarting a cell eventually yields READY components. This campaign breaks
// exactly that assumption — startups hang, crash, or are flaky — and checks
// that the *hardened* recoverer (per-restart deadline, same-cell backoff,
// attempt budgets, hard-failure parking with permanent FD masks) still
// terminates every trial:
//
//   FULL      the station fully recovered (the normal §4 outcome);
//   DEGRADED  REC parked a chain as a hard failure and the rest of the
//             station settled back into operation without it;
//   PARKED    REC parked, but the station did not settle degraded within
//             the trial deadline (counted separately; still terminal);
//   STALL     none of the above before the deadline — a recovery bug.
//
// The invariant asserted over every (tree, mix, seed) cell: STALL == 0 and
// every trial's restart count respects the attempt budget. A same-seed
// trial pair must also produce byte-identical traces (determinism: fault
// draws ride the seeded rng streams).
//
// Grid: >= 20 seeds x >= 6 fault mixes x both Mercury tree shapes (the fused
// tree II and the split tree IV). MERCURY_QUICK=1 shrinks to 4 seeds for CI
// smoke runs.
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/failure.h"
#include "core/mercury_trees.h"
#include "station/experiment.h"
#include "util/stats.h"

namespace {

using mercury::core::MercuryTree;
using mercury::core::RestartFaultSpec;
using mercury::station::FailureMode;
using mercury::station::OracleKind;
using mercury::station::TrialResult;
using mercury::station::TrialSpec;

struct FaultMix {
  std::string name;
  /// Restart faults on the failed component itself.
  RestartFaultSpec on_failed;
  /// Restart faults on every *other* component (exercises faults surfacing
  /// only once escalation widens the restart group).
  RestartFaultSpec on_others;
};

std::vector<FaultMix> fault_mixes() {
  std::vector<FaultMix> mixes;
  // Control: clean restarts, on which the hardening never acts.
  mixes.push_back({"clean", {}, {}});
  // Deterministic single hang: first restart attempt of the failed
  // component hangs; the deadline must abort it and escalation recover.
  {
    FaultMix mix{"hang-once", {}, {}};
    mix.on_failed.hang_first_attempts = 1;
    mixes.push_back(mix);
  }
  // Two consecutive hangs: exercises repeated timeout -> escalate rounds.
  {
    FaultMix mix{"hang-twice", {}, {}};
    mix.on_failed.hang_first_attempts = 2;
    mixes.push_back(mix);
  }
  // Crash loop: the first two startups run their course and die.
  {
    FaultMix mix{"crash-twice", {}, {}};
    mix.on_failed.fail_first_attempts = 2;
    mixes.push_back(mix);
  }
  // Flaky everywhere: every component's startup hangs or crashes with
  // moderate probability — contention-era chaos.
  {
    FaultMix mix{"flaky-all", {}, {}};
    mix.on_failed.hang_prob = 0.2;
    mix.on_failed.crash_prob = 0.2;
    mix.on_others.hang_prob = 0.1;
    mix.on_others.crash_prob = 0.1;
    mixes.push_back(mix);
  }
  // Pathological: the failed component's startup almost never succeeds.
  // Most seeds must end parked (explicitly, with the budget honored).
  {
    FaultMix mix{"pathological", {}, {}};
    mix.on_failed.hang_prob = 0.45;
    mix.on_failed.crash_prob = 0.45;
    mix.on_failed.fail_first_attempts = 1;
    mixes.push_back(mix);
  }
  return mixes;
}

TrialSpec make_spec(MercuryTree tree, const FaultMix& mix, std::uint64_t seed) {
  TrialSpec spec;
  spec.tree = tree;
  spec.oracle = OracleKind::kHeuristic;  // no failure-model knowledge
  spec.fail_component = "rtu";
  spec.mode = FailureMode::kCrash;
  spec.seed = seed;
  spec.max_attempts_per_chain = 5;
  // Generous: parking a pathological chain takes up to budget x (deadline +
  // backoff) of simulated time.
  spec.timeout = mercury::util::Duration::seconds(600.0);

  spec.restart_faults["rtu"] = mix.on_failed;
  if (mix.on_others.active()) {
    const auto components =
        mercury::core::make_mercury_tree(tree).all_components();
    for (const auto& name : components) {
      // mbus stays clean: a parked bus is total loss, and this campaign
      // measures the degraded-operation regime.
      if (name == "rtu" || name == "mbus") continue;
      spec.restart_faults[name] = mix.on_others;
    }
  }
  return spec;
}

}  // namespace

int main() {
  mercury::bench::TraceSession session("bench_chaos_restart_faults");
  const bool quick = mercury::bench::quick();
  const int seeds = quick ? 4 : 20;
  const std::vector<MercuryTree> trees = {MercuryTree::kTreeII,
                                          MercuryTree::kTreeIV};
  const std::vector<FaultMix> mixes = fault_mixes();

  mercury::bench::print_header(
      "Chaos campaign: restart-path faults vs hardened recovery (ISSUE 2)\n"
      "grid: " + std::to_string(seeds) + " seeds x " +
      std::to_string(mixes.size()) + " fault mixes x 2 trees" +
      (quick ? "  [quick]" : ""));

  const std::vector<int> widths = {8, 14, 6, 10, 8, 8, 9, 9, 10};
  mercury::bench::print_row({"tree", "mix", "full", "degraded", "parked",
                             "stall", "timeouts", "backoffs", "p95 rec(s)"},
                            widths);
  mercury::bench::print_rule(widths);

  // The whole (tree x mix x seed) grid goes to the experiment runner as one
  // batch — trial order (hence seeds and the merged session trace) matches
  // the old serial triple loop, for any MERCURY_JOBS.
  std::vector<TrialSpec> batch;
  for (const MercuryTree tree : trees) {
    for (const FaultMix& mix : mixes) {
      for (int i = 0; i < seeds; ++i) {
        batch.push_back(make_spec(tree, mix, 1000 + i));
      }
    }
  }
  const std::vector<TrialResult> batch_results =
      mercury::station::run_trial_batch(batch);

  int stalls = 0;
  int budget_violations = 0;
  int determinism_failures = 0;
  std::size_t next_result = 0;
  for (const MercuryTree tree : trees) {
    const std::string tree_name =
        tree == MercuryTree::kTreeII ? "II" : "IV";
    for (const FaultMix& mix : mixes) {
      int full = 0, degraded = 0, parked_only = 0, stalled = 0;
      int timeouts = 0, backoffs = 0;
      mercury::util::SampleStats recovery;
      for (int i = 0; i < seeds; ++i) {
        const TrialSpec& spec = batch[next_result];
        const TrialResult& result = batch_results[next_result];
        ++next_result;
        timeouts += result.restart_timeouts;
        backoffs += result.backoffs;
        if (result.timed_out) {
          ++stalled;
          std::fprintf(stderr,
                       "STALL: tree %s mix %s seed %d neither recovered nor "
                       "parked within %.0f s\n",
                       tree_name.c_str(), mix.name.c_str(), 1000 + i,
                       spec.timeout.to_seconds());
        } else if (result.hard_failure) {
          if (result.parked.empty()) {
            // hard_failure without parked components would mean the legacy
            // give-up path fired without the permanent mask — a bug.
            ++stalled;
            std::fprintf(stderr, "PARK-WITHOUT-MASK: tree %s mix %s seed %d\n",
                         tree_name.c_str(), mix.name.c_str(), 1000 + i);
          } else if (result.degraded_functional) {
            ++degraded;
          } else {
            ++parked_only;
          }
        } else {
          ++full;
          recovery.add(result.recovery);
        }
        // Attempt budget: each chain consumes at most max_attempts_per_chain
        // restarts; a trial is one injected failure, and timed-out planned
        // actions can open at most one extra chain.
        const int budget_cap = 2 * spec.max_attempts_per_chain;
        if (result.restarts > budget_cap) {
          ++budget_violations;
          std::fprintf(stderr,
                       "BUDGET: tree %s mix %s seed %d used %d restarts "
                       "(cap %d)\n",
                       tree_name.c_str(), mix.name.c_str(), 1000 + i,
                       result.restarts, budget_cap);
        }
      }
      stalls += stalled;

      mercury::bench::print_row(
          {tree_name, mix.name, std::to_string(full), std::to_string(degraded),
           std::to_string(parked_only), std::to_string(stalled),
           std::to_string(timeouts), std::to_string(backoffs),
           recovery.count() > 0
               ? mercury::util::format_fixed(recovery.percentile(95.0), 2)
               : "-"},
          widths);

      // Determinism: the same seed must yield a byte-identical trace —
      // restart-fault draws ride the seeded rng streams, never wall clock.
      const TrialSpec spec = make_spec(tree, mix, 1000);
      TrialResult first, second;
      const std::string trace_a = mercury::bench::traced_trial_jsonl(spec, &first);
      const std::string trace_b = mercury::bench::traced_trial_jsonl(spec, &second);
      if (trace_a != trace_b || trace_a.empty()) {
        ++determinism_failures;
        std::fprintf(stderr, "NONDETERMINISM: tree %s mix %s seed 1000\n",
                     tree_name.c_str(), mix.name.c_str());
      }
    }
  }

  std::printf("\n");
  if (stalls > 0 || budget_violations > 0 || determinism_failures > 0) {
    std::fprintf(stderr,
                 "FAIL: %d stalls, %d budget violations, %d nondeterministic "
                 "cells\n",
                 stalls, budget_violations, determinism_failures);
    return 1;
  }
  std::printf("OK: every trial ended in full recovery or explicit parking; "
              "attempt budgets held; same-seed traces identical\n");
  return session.finish();
}

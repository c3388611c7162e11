// Ablation: checkpointed warm restarts vs the paper's cold-start recovery
// (ISSUE 3).
//
// The recovery times in Tables 1/2 are dominated by state reconstruction —
// pbcom renegotiates its serial link ("takes over 21 seconds"), ses and str
// resynchronize, rtu retunes. A checkpoint preserves exactly that soft
// state across the restart, so a warm start skips the slow part. This bench
// measures the saving per chain and then stress-tests the validity
// machinery: corrupted, undetectably poisoned, and stale checkpoints must
// all end in a successful *cold* recovery — never a stall, never a worse
// outcome than having no checkpoint at all.
//
// Grid: {tree II, tree IV} x {fedrcom|pbcom, ses} x
//       {cold, warm, corrupt, poison, stale}, >= 25 seeds per cell. The
// poison row relies on the restart deadline every trial runs: the
// poisoned warm attempt crashes mid-startup and only the deadline notices.
//
// Asserted invariants:
//   * warm mean recovery strictly below cold mean for every (tree, victim);
//   * zero stalls / hard failures across every damage row (each corrupted
//     trial falls back cold and completes);
//   * same-seed trials produce byte-identical traces (warm policy and
//     damage injection ride the seeded rng streams, never wall clock).
//
// MERCURY_QUICK=1 shrinks the grid for CI smoke runs.
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/mercury_trees.h"
#include "station/experiment.h"
#include "util/stats.h"

namespace {

using mercury::core::MercuryTree;
using mercury::station::OracleKind;
using mercury::station::TrialResult;
using mercury::station::TrialSpec;
using CheckpointDamage = mercury::station::TrialSpec::CheckpointDamage;

struct Mode {
  std::string name;
  bool checkpoints = false;
  CheckpointDamage damage = CheckpointDamage::kNone;
};

const std::vector<Mode>& modes() {
  static const std::vector<Mode> kModes = {
      {"cold", false, CheckpointDamage::kNone},
      {"warm", true, CheckpointDamage::kNone},
      {"corrupt", true, CheckpointDamage::kCorrupt},
      {"poison", true, CheckpointDamage::kPoison},
      {"stale", true, CheckpointDamage::kStale},
  };
  return kModes;
}

TrialSpec make_spec(MercuryTree tree, const std::string& victim,
                    const Mode& mode, std::uint64_t seed) {
  TrialSpec spec;
  spec.tree = tree;
  spec.oracle = OracleKind::kHeuristic;
  spec.fail_component = victim;
  spec.seed = seed;
  spec.enable_checkpoints = mode.checkpoints;
  spec.checkpoint_damage = mode.damage;
  spec.timeout = mercury::util::Duration::seconds(300.0);
  return spec;
}

}  // namespace

int main() {
  mercury::bench::TraceSession session("bench_ablation_warm_restart");
  const bool quick = mercury::bench::quick();
  const int seeds = quick ? 5 : 25;

  // The chains whose cold start the paper calls out: the serial negotiator
  // (fedrcom fused in tree II, pbcom split in tree IV) and the ses/str
  // session pair.
  struct Cell {
    MercuryTree tree;
    std::string tree_name;
    std::string victim;
  };
  const std::vector<Cell> cells = {
      {MercuryTree::kTreeII, "II", "fedrcom"},
      {MercuryTree::kTreeII, "II", "ses"},
      {MercuryTree::kTreeIV, "IV", "pbcom"},
      {MercuryTree::kTreeIV, "IV", "ses"},
  };

  mercury::bench::print_header(
      "Ablation: checkpointed warm restarts vs cold state reconstruction "
      "(ISSUE 3)\ngrid: " + std::to_string(seeds) +
      " seeds x 5 modes x 4 (tree, victim) chains, hardened restart path" +
      (quick ? "  [quick]" : ""));

  const std::vector<int> widths = {6, 9, 9, 10, 10, 6, 6, 8, 7};
  mercury::bench::print_row({"tree", "victim", "mode", "mean(s)", "p95(s)",
                             "warm", "cold", "crashes", "stalls"},
                            widths);
  mercury::bench::print_rule(widths);

  // One batch over the whole (cell x mode x seed) grid, in the old serial
  // order: the runner keeps results and the session trace byte-identical to
  // the serial loop while spreading trials over MERCURY_JOBS workers.
  std::vector<TrialSpec> batch;
  for (const Cell& cell : cells) {
    for (const Mode& mode : modes()) {
      for (int i = 0; i < seeds; ++i) {
        batch.push_back(make_spec(cell.tree, cell.victim, mode, 2000 + i));
      }
    }
  }
  const std::vector<TrialResult> batch_results =
      mercury::station::run_trial_batch(batch);

  int failures = 0;
  std::size_t next_result = 0;
  for (const Cell& cell : cells) {
    double cold_mean = 0.0;
    double warm_mean = 0.0;
    for (const Mode& mode : modes()) {
      mercury::util::SampleStats recovery;
      int warm_starts = 0, cold_fallbacks = 0, crashes = 0, stalls = 0;
      for (int i = 0; i < seeds; ++i) {
        const TrialResult& result = batch_results[next_result++];
        warm_starts += result.warm_restarts;
        cold_fallbacks += result.cold_fallbacks;
        crashes += result.checkpoint_crashes;
        if (result.timed_out || result.hard_failure) {
          ++stalls;
          std::fprintf(stderr,
                       "STALL: tree %s victim %s mode %s seed %d (%s)\n",
                       cell.tree_name.c_str(), cell.victim.c_str(),
                       mode.name.c_str(), 2000 + i,
                       result.timed_out ? "timed out" : "hard failure");
        } else {
          recovery.add(result.recovery);
        }
      }
      failures += stalls;
      if (mode.name == "cold") cold_mean = recovery.mean();
      if (mode.name == "warm") warm_mean = recovery.mean();

      mercury::bench::print_row(
          {cell.tree_name, cell.victim, mode.name,
           mercury::util::format_fixed(recovery.mean(), 2),
           recovery.count() > 0
               ? mercury::util::format_fixed(recovery.percentile(95.0), 2)
               : "-",
           std::to_string(warm_starts), std::to_string(cold_fallbacks),
           std::to_string(crashes), std::to_string(stalls)},
          widths);

      // Determinism: same seed => byte-identical trace, in every mode.
      const TrialSpec spec = make_spec(cell.tree, cell.victim, mode, 2000);
      TrialResult first, second;
      const std::string trace_a = mercury::bench::traced_trial_jsonl(spec, &first);
      const std::string trace_b = mercury::bench::traced_trial_jsonl(spec, &second);
      if (trace_a != trace_b || trace_a.empty()) {
        ++failures;
        std::fprintf(stderr, "NONDETERMINISM: tree %s victim %s mode %s\n",
                     cell.tree_name.c_str(), cell.victim.c_str(),
                     mode.name.c_str());
      }
    }

    // The headline claim: warm restarts strictly cut mean recovery.
    if (!(warm_mean < cold_mean)) {
      ++failures;
      std::fprintf(stderr,
                   "NO-SAVING: tree %s victim %s warm %.2f s >= cold %.2f s\n",
                   cell.tree_name.c_str(), cell.victim.c_str(), warm_mean,
                   cold_mean);
    } else {
      std::printf("  -> %s/%s: warm saves %.2f s (%.0f%% of cold)\n",
                  cell.tree_name.c_str(), cell.victim.c_str(),
                  cold_mean - warm_mean,
                  100.0 * (cold_mean - warm_mean) / cold_mean);
    }
    mercury::bench::print_rule(widths);
  }

  std::printf("\n");
  if (failures > 0) {
    std::fprintf(stderr, "FAIL: %d violations\n", failures);
    return 1;
  }
  std::printf(
      "OK: warm < cold on every chain; every damaged-checkpoint trial fell "
      "back cold and recovered; same-seed traces identical\n");
  return session.finish();
}

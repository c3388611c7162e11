// Bench: DAG-parallel recovery dispatch vs the legacy serial Recoverer
// (ISSUE 8).
//
// The paper's recoverer runs one restart action at a time; when several
// independent faults land close together (correlated weather on the dish RF
// chain, a power brown-out clipping two boards), every queued cell pays the
// full latency of the cells ahead of it. The restart tree already encodes
// which cells are independent — disjoint (sibling) subtrees cannot
// interfere — so the DAG scheduler dispatches them concurrently and only
// serializes true ancestor/descendant conflicts.
//
// Grid: trees {II, IV} x 4 fault scenarios (three multi-fault, one
//       single-fault degeneracy) x 3 dispatch modes (serial / dag /
//       on-demand), >= 25 seeds per cell, perfect oracle, no restart faults.
//
// Asserted invariants (ISSUE 8 acceptance criteria):
//   * zero stalls / timeouts / hard failures on every row;
//   * on every multi-fault cell, DAG mean recovery is strictly below
//     serial mean recovery (the whole point of the scheduler);
//   * DAG multi-fault trials really overlap restarts (peak concurrency
//     >= 2 somewhere in every cell) while serial trials never exceed 1;
//   * the single-fault degeneracy produces byte-identical traces under
//     serial and DAG dispatch — with nothing to parallelize, the scheduler
//     is a bit-for-bit no-op;
//   * same-seed same-mode trials are byte-identical (determinism), and the
//     whole grid runs through run_trial_batch, whose output is
//     byte-identical for any MERCURY_JOBS;
//   * every trace passes the checker, including the new
//     conflicting-restart overlap invariant (TraceSession gates the exit
//     code).
//
// Writes BENCH_parallel.json (mean/p95 recovery, peak concurrency, absorbs
// per cell; see bench::Report), gated in CI against its committed baseline.
// MERCURY_QUICK=1 shrinks the grid for CI.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/mercury_trees.h"
#include "core/recoverer.h"
#include "station/experiment.h"
#include "util/stats.h"

namespace {

using mercury::core::DispatchMode;
using mercury::core::MercuryTree;
using mercury::station::OracleKind;
using mercury::station::TrialResult;
using mercury::station::TrialSpec;
using mercury::util::Duration;

struct Scenario {
  std::string name;
  std::string primary;
  std::vector<TrialSpec::ExtraFault> extras;
  bool multi_fault() const { return !extras.empty(); }
};

const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> kScenarios = {
      {"pbcom+rtu", "pbcom", {{"rtu", Duration::millis(50.0)}}},
      {"pbcom+ses+rtu",
       "pbcom",
       {{"ses", Duration::millis(30.0)}, {"rtu", Duration::millis(60.0)}}},
      {"ses+rtu", "ses", {{"rtu", Duration::millis(40.0)}}},
      {"pbcom-single", "pbcom", {}},
  };
  return kScenarios;
}

struct Mode {
  std::string name;
  DispatchMode dispatch;
};

const std::vector<Mode>& modes() {
  static const std::vector<Mode> kModes = {
      {"serial", DispatchMode::kSerial},
      {"dag", DispatchMode::kDag},
      {"ondemand", DispatchMode::kOnDemand},
  };
  return kModes;
}

/// Tree II predates the fedr/pbcom split: the paper's monolithic fedrcom
/// stands in for pbcom there (same dish-RF failure domain).
std::string resolve(MercuryTree tree, const std::string& name) {
  if (tree == MercuryTree::kTreeII && name == "pbcom") return "fedrcom";
  return name;
}

TrialSpec make_spec(MercuryTree tree, const Scenario& scenario,
                    const Mode& mode, std::uint64_t seed) {
  TrialSpec spec;
  spec.tree = tree;
  spec.oracle = OracleKind::kPerfect;
  spec.fail_component = resolve(tree, scenario.primary);
  spec.extra_faults = scenario.extras;
  for (auto& extra : spec.extra_faults) {
    extra.component = resolve(tree, extra.component);
  }
  spec.dispatch = mode.dispatch;
  spec.seed = seed;
  spec.timeout = Duration::seconds(300.0);
  return spec;
}

struct CellStats {
  mercury::util::SampleStats recovery;
  int trials = 0;
  int peak_concurrency = 0;       // max over trials of max_concurrent_restarts
  int trials_with_overlap = 0;    // trials whose peak reached >= 2
  int absorbed = 0;
  int stalls = 0;
};

std::string tree_name(MercuryTree tree) {
  return tree == MercuryTree::kTreeII ? "II" : "IV";
}

}  // namespace

int main() {
  mercury::bench::TraceSession session("bench_parallel_recovery");
  const bool quick = mercury::bench::quick();
  const int seeds = quick ? 5 : 25;
  const std::vector<MercuryTree> trees = {MercuryTree::kTreeII,
                                          MercuryTree::kTreeIV};

  mercury::bench::print_header(
      "DAG-parallel recovery vs serial dispatch (ISSUE 8)\n"
      "grid: " + std::to_string(seeds) +
      " seeds x {tree II, tree IV} x 4 fault scenarios x "
      "{serial, dag, ondemand}, perfect oracle" + (quick ? "  [quick]" : ""));

  const std::vector<int> widths = {5, 14, 9, 10, 10, 5, 8, 7, 7};
  mercury::bench::print_row({"tree", "scenario", "mode", "mean(s)", "p95(s)",
                             "peak", "overlap", "absorb", "stalls"},
                            widths);
  mercury::bench::print_rule(widths);

  // One batch over the whole grid in serial order: byte-identical results
  // and traces for any MERCURY_JOBS.
  std::vector<TrialSpec> batch;
  for (const MercuryTree tree : trees) {
    for (const Scenario& scenario : scenarios()) {
      for (const Mode& mode : modes()) {
        for (int i = 0; i < seeds; ++i) {
          batch.push_back(make_spec(tree, scenario, mode, 8000 + i));
        }
      }
    }
  }
  const std::vector<TrialResult> batch_results =
      mercury::station::run_trial_batch(batch);

  int failures = 0;
  std::size_t next_result = 0;
  // (tree, scenario, mode) -> stats, insertion-ordered for the JSON dump.
  std::vector<std::pair<std::string, CellStats>> cells;
  std::map<std::string, const CellStats*> by_key;

  for (const MercuryTree tree : trees) {
    for (const Scenario& scenario : scenarios()) {
      for (const Mode& mode : modes()) {
        CellStats stats;
        stats.trials = seeds;
        for (int i = 0; i < seeds; ++i) {
          const TrialResult& result = batch_results[next_result++];
          stats.peak_concurrency =
              std::max(stats.peak_concurrency, result.max_concurrent_restarts);
          if (result.max_concurrent_restarts >= 2) ++stats.trials_with_overlap;
          stats.absorbed += result.absorbed_restarts;
          if (result.timed_out || result.hard_failure) {
            ++stats.stalls;
            std::fprintf(stderr, "STALL: tree %s %s %s seed %d (%s)\n",
                         tree_name(tree).c_str(), scenario.name.c_str(),
                         mode.name.c_str(), 8000 + i,
                         result.timed_out ? "timed out" : "hard failure");
          } else {
            stats.recovery.add(result.recovery);
          }
        }
        failures += stats.stalls;

        // Serial dispatch must never overlap actions, in any scenario.
        if (mode.dispatch == DispatchMode::kSerial &&
            stats.peak_concurrency > 1) {
          ++failures;
          std::fprintf(stderr, "SERIAL-OVERLAP: tree %s %s peak %d\n",
                       tree_name(tree).c_str(), scenario.name.c_str(),
                       stats.peak_concurrency);
        }
        // DAG dispatch on a multi-fault scenario must actually overlap.
        if (mode.dispatch == DispatchMode::kDag && scenario.multi_fault() &&
            stats.trials_with_overlap == 0) {
          ++failures;
          std::fprintf(stderr, "NO-OVERLAP: tree %s %s dag never reached 2 "
                               "concurrent restarts\n",
                       tree_name(tree).c_str(), scenario.name.c_str());
        }

        mercury::bench::print_row(
            {tree_name(tree), scenario.name, mode.name,
             mercury::util::format_fixed(stats.recovery.mean(), 2),
             stats.recovery.count() > 0
                 ? mercury::util::format_fixed(stats.recovery.percentile(95.0),
                                               2)
                 : "-",
             std::to_string(stats.peak_concurrency),
             std::to_string(stats.trials_with_overlap),
             std::to_string(stats.absorbed), std::to_string(stats.stalls)},
            widths);

        // Determinism: same seed + same mode => byte-identical trace.
        const TrialSpec spec = make_spec(tree, scenario, mode, 8000);
        TrialResult first, second;
        const std::string trace_a =
            mercury::bench::traced_trial_jsonl(spec, &first);
        const std::string trace_b =
            mercury::bench::traced_trial_jsonl(spec, &second);
        if (trace_a != trace_b || trace_a.empty()) {
          ++failures;
          std::fprintf(stderr, "NONDETERMINISM: tree %s %s %s\n",
                       tree_name(tree).c_str(), scenario.name.c_str(),
                       mode.name.c_str());
        }

        const std::string key =
            tree_name(tree) + "/" + scenario.name + "/" + mode.name;
        cells.emplace_back(key, stats);
      }
    }
    mercury::bench::print_rule(widths);
  }
  for (const auto& [key, stats] : cells) by_key[key] = &stats;

  // The tentpole claim: DAG strictly beats serial mean recovery on every
  // multi-fault cell (and the single-fault degeneracy costs nothing — the
  // byte-identical check below is stronger than a mean comparison).
  for (const MercuryTree tree : trees) {
    for (const Scenario& scenario : scenarios()) {
      if (!scenario.multi_fault()) continue;
      const double serial =
          by_key.at(tree_name(tree) + "/" + scenario.name + "/serial")
              ->recovery.mean();
      const double dag =
          by_key.at(tree_name(tree) + "/" + scenario.name + "/dag")
              ->recovery.mean();
      if (!(dag < serial)) {
        ++failures;
        std::fprintf(stderr, "NO-SPEEDUP: tree %s %s dag %.2f >= serial %.2f\n",
                     tree_name(tree).c_str(), scenario.name.c_str(), dag,
                     serial);
      } else {
        std::printf("  -> tree %s %s: dag saves %.2f s mean recovery "
                    "(%.2f -> %.2f)\n",
                    tree_name(tree).c_str(), scenario.name.c_str(),
                    serial - dag, serial, dag);
      }
    }
  }

  // Single-fault degeneracy: with one fault there is nothing to overlap, so
  // serial and DAG dispatch must produce byte-identical traces seed by seed.
  for (const MercuryTree tree : trees) {
    TrialSpec serial_spec =
        make_spec(tree, scenarios().back(), modes()[0], 8000);
    TrialSpec dag_spec = serial_spec;
    dag_spec.dispatch = DispatchMode::kDag;
    TrialResult serial_result, dag_result;
    const std::string serial_trace =
        mercury::bench::traced_trial_jsonl(serial_spec, &serial_result);
    const std::string dag_trace =
        mercury::bench::traced_trial_jsonl(dag_spec, &dag_result);
    if (serial_trace != dag_trace || serial_trace.empty()) {
      ++failures;
      std::fprintf(stderr,
                   "DEGENERACY-DIVERGED: tree %s single-fault serial and dag "
                   "traces differ\n",
                   tree_name(tree).c_str());
    }
    if (serial_result.recovery.to_seconds() !=
        dag_result.recovery.to_seconds()) {
      ++failures;
      std::fprintf(stderr,
                   "DEGENERACY-DIVERGED: tree %s single-fault recovery "
                   "%.6f != %.6f\n",
                   tree_name(tree).c_str(),
                   serial_result.recovery.to_seconds(),
                   dag_result.recovery.to_seconds());
    }
  }

  // BENCH_parallel.json: every per-cell number, named "<cell>/<metric>".
  {
    using mercury::bench::Better;
    mercury::bench::Report report("parallel", "bench_parallel_recovery");
    for (const auto& [cell, s] : cells) {
      const std::string at = cell + "/";
      report.add(at + "mean_recovery_s", s.recovery.mean(), "s",
                 Better::kLower);
      report.add(at + "p95_recovery_s",
                 s.recovery.count() > 0 ? s.recovery.percentile(95.0) : 0.0,
                 "s", Better::kLower);
      report.add(at + "peak_concurrency", s.peak_concurrency, "count",
                 Better::kHigher);
      report.add(at + "trials_with_overlap", s.trials_with_overlap, "count",
                 Better::kHigher);
      report.add(at + "absorbed", s.absorbed, "count", Better::kLower);
      report.add(at + "stalls", s.stalls, "count", Better::kLower);
    }
    failures += report.write();
  }

  std::printf("\n");
  if (failures > 0) {
    std::fprintf(stderr, "FAIL: %d violations\n", failures);
    return 1;
  }
  std::printf(
      "OK: zero stalls; dag strictly beats serial on every multi-fault "
      "cell; serial never overlaps; single-fault dag is byte-identical to "
      "serial; same-seed traces identical\n");
  return session.finish();
}

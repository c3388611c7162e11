// Ablation: multi-tier replicated checkpoint storage (ISSUE 7).
//
// ISSUE 3's single in-memory checkpoint is a redundancy cliff: any fault
// that reaches the one copy (a tmpfs wipe, a fault-suspect shed, corruption)
// forces the full cold-start reconstruction the checkpoint existed to avoid.
// ISSUE 7 layers the store — L0 local, L1 partner replica in a cross-cell
// buddy component, L2 stable file-backed — and this bench measures what each
// tier buys under fault mixes that target the tiers themselves.
//
// Grid: tree IV x {pbcom, ses} x 4 schemes (none / L0 / L0+L1 / L0+L1+L2)
//       x 5 fault mixes (clean / l0-kill / l0-corrupt / l0-poison /
//       l0-kill+partner-down), >= 25 seeds per cell, hardened restart path.
//
// Asserted invariants (ISSUE 7 acceptance criteria):
//   * zero stalls / hard failures on every row — losing tiers degrades a
//     warm start into a cold one, never into an outage;
//   * under the l0-kill mixes, L0+L1's warm-hit rate is strictly above
//     L0-only's (the partner replica absorbs local-tier loss);
//   * under l0-kill+partner-down, L0+L1+L2's warm-hit rate is strictly
//     above L0+L1's (stable storage absorbs correlated tier loss);
//   * same-seed trials produce byte-identical traces in every scheme/mix
//     (tier faults ride the seeded rng streams, never wall clock).
//
// Writes BENCH_checkpoint.json (warm-hit rate + recovery per cell; see
// bench::Report), gated in CI against its committed baseline.
// MERCURY_QUICK=1 shrinks the grid for CI.
#include <cstdio>
#include <map>
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

struct Scheme {
  std::string name;
  bool checkpoints = false;
  bool l1 = false;
  bool l2 = false;
};

const std::vector<Scheme>& schemes() {
  static const std::vector<Scheme> kSchemes = {
      {"none", false, false, false},
      {"l0", true, false, false},
      {"l0l1", true, true, false},
      {"l0l1l2", true, true, true},
  };
  return kSchemes;
}

struct Mix {
  std::string name;
  CheckpointDamage l0_damage = CheckpointDamage::kNone;
  bool partner_down = false;  // correlated: crash the L1 host too
};

const std::vector<Mix>& mixes() {
  static const std::vector<Mix> kMixes = {
      {"clean", CheckpointDamage::kNone, false},
      {"l0-kill", CheckpointDamage::kKill, false},
      {"l0-corrupt", CheckpointDamage::kCorrupt, false},
      {"l0-poison", CheckpointDamage::kPoison, false},
      {"l0-kill+partner", CheckpointDamage::kKill, true},
  };
  return kMixes;
}

TrialSpec make_spec(const std::string& victim, const Scheme& scheme,
                    const Mix& mix, std::uint64_t seed) {
  TrialSpec spec;
  spec.tree = MercuryTree::kTreeIV;
  spec.oracle = OracleKind::kHeuristic;
  spec.fail_component = victim;
  spec.seed = seed;
  spec.enable_checkpoints = scheme.checkpoints;
  spec.checkpoint_l1 = scheme.l1;
  spec.checkpoint_l2 = scheme.l2;
  spec.checkpoint_damage = mix.l0_damage;
  spec.fail_partner_too = mix.partner_down;
  spec.timeout = mercury::util::Duration::seconds(300.0);
  return spec;
}

struct CellStats {
  mercury::util::SampleStats recovery;
  int trials = 0;
  int warm_l0 = 0, warm_l1 = 0, warm_l2 = 0;
  int cold = 0, crashes = 0, rebuilds = 0, stalls = 0;
  int warm_total() const { return warm_l0 + warm_l1 + warm_l2; }
  double warm_rate() const {
    return trials > 0 ? static_cast<double>(warm_total()) / trials : 0.0;
  }
};

}  // namespace

int main() {
  mercury::bench::TraceSession session("bench_ablation_checkpoint_tiers");
  const bool quick = mercury::bench::quick();
  const int seeds = quick ? 5 : 25;
  const std::vector<std::string> victims = {"pbcom", "ses"};

  mercury::bench::print_header(
      "Ablation: multi-tier checkpoint storage under tier faults (ISSUE 7)\n"
      "grid: " + std::to_string(seeds) +
      " seeds x 4 schemes x 5 fault mixes x {pbcom, ses}, tree IV, "
      "hardened" + (quick ? "  [quick]" : ""));

  const std::vector<int> widths = {7, 8, 16, 10, 10, 8, 5, 5, 5, 6, 8, 7};
  mercury::bench::print_row({"victim", "scheme", "mix", "mean(s)", "p95(s)",
                             "warm", "l0", "l1", "l2", "cold", "rebuild",
                             "stalls"},
                            widths);
  mercury::bench::print_rule(widths);

  // One batch over the whole grid in serial order: byte-identical results
  // and traces for any MERCURY_JOBS.
  std::vector<TrialSpec> batch;
  for (const std::string& victim : victims) {
    for (const Scheme& scheme : schemes()) {
      for (const Mix& mix : mixes()) {
        for (int i = 0; i < seeds; ++i) {
          batch.push_back(make_spec(victim, scheme, mix, 7000 + i));
        }
      }
    }
  }
  const std::vector<TrialResult> batch_results =
      mercury::station::run_trial_batch(batch);

  int failures = 0;
  std::size_t next_result = 0;
  // (victim, scheme, mix) -> stats, insertion-ordered for the JSON dump.
  std::vector<std::pair<std::string, CellStats>> cells;
  std::map<std::string, const CellStats*> by_key;

  for (const std::string& victim : victims) {
    for (const Scheme& scheme : schemes()) {
      for (const Mix& mix : mixes()) {
        CellStats stats;
        stats.trials = seeds;
        for (int i = 0; i < seeds; ++i) {
          const TrialResult& result = batch_results[next_result++];
          stats.warm_l0 += result.warm_hits_l0;
          stats.warm_l1 += result.warm_hits_l1;
          stats.warm_l2 += result.warm_hits_l2;
          stats.cold += result.cold_fallbacks;
          stats.crashes += result.checkpoint_crashes;
          stats.rebuilds += result.tier_rebuilds;
          if (result.timed_out || result.hard_failure) {
            ++stats.stalls;
            std::fprintf(stderr, "STALL: %s scheme %s mix %s seed %d (%s)\n",
                         victim.c_str(), scheme.name.c_str(),
                         mix.name.c_str(), 7000 + i,
                         result.timed_out ? "timed out" : "hard failure");
          } else {
            stats.recovery.add(result.recovery);
          }
        }
        failures += stats.stalls;

        mercury::bench::print_row(
            {victim, scheme.name, mix.name,
             mercury::util::format_fixed(stats.recovery.mean(), 2),
             stats.recovery.count() > 0
                 ? mercury::util::format_fixed(stats.recovery.percentile(95.0), 2)
                 : "-",
             mercury::util::format_fixed(stats.warm_rate(), 2),
             std::to_string(stats.warm_l0), std::to_string(stats.warm_l1),
             std::to_string(stats.warm_l2), std::to_string(stats.cold),
             std::to_string(stats.rebuilds), std::to_string(stats.stalls)},
            widths);

        // Determinism: same seed => byte-identical trace, every cell.
        const TrialSpec spec = make_spec(victim, scheme, mix, 7000);
        TrialResult first, second;
        const std::string trace_a =
            mercury::bench::traced_trial_jsonl(spec, &first);
        const std::string trace_b =
            mercury::bench::traced_trial_jsonl(spec, &second);
        if (trace_a != trace_b || trace_a.empty()) {
          ++failures;
          std::fprintf(stderr, "NONDETERMINISM: %s scheme %s mix %s\n",
                       victim.c_str(), scheme.name.c_str(), mix.name.c_str());
        }

        const std::string key = victim + "/" + scheme.name + "/" + mix.name;
        cells.emplace_back(key, stats);
      }
    }
    mercury::bench::print_rule(widths);
  }
  for (const auto& [key, stats] : cells) by_key[key] = &stats;

  // The tentpole claims, per victim.
  for (const std::string& victim : victims) {
    const auto rate = [&](const std::string& scheme, const std::string& mix) {
      return by_key.at(victim + "/" + scheme + "/" + mix)->warm_rate();
    };
    // L1 absorbs local-tier loss: strictly more warm starts than L0-only
    // when the local copy is killed. (Under l0-kill+partner the replica
    // host is down too, so only the L2 comparison below is meaningful.)
    if (!(rate("l0l1", "l0-kill") > rate("l0", "l0-kill"))) {
      ++failures;
      std::fprintf(stderr, "NO-L1-GAIN: %s l0l1 %.2f <= l0 %.2f (l0-kill)\n",
                   victim.c_str(), rate("l0l1", "l0-kill"),
                   rate("l0", "l0-kill"));
    }
    // L2 absorbs correlated loss of local copy AND partner host.
    if (!(rate("l0l1l2", "l0-kill+partner") > rate("l0l1", "l0-kill+partner"))) {
      ++failures;
      std::fprintf(stderr,
                   "NO-L2-GAIN: %s l0l1l2 %.2f <= l0l1 %.2f (partner down)\n",
                   victim.c_str(), rate("l0l1l2", "l0-kill+partner"),
                   rate("l0l1", "l0-kill+partner"));
    }
    const double saved =
        by_key.at(victim + "/l0/l0-kill")->recovery.mean() -
        by_key.at(victim + "/l0l1/l0-kill")->recovery.mean();
    std::printf("  -> %s: partner replica saves %.2f s mean recovery when "
                "the local tier is lost\n", victim.c_str(), saved);
  }

  // BENCH_checkpoint.json: every per-cell number, named "<cell>/<metric>".
  {
    using mercury::bench::Better;
    mercury::bench::Report report("checkpoint",
                                  "bench_ablation_checkpoint_tiers");
    for (const auto& [cell, s] : cells) {
      const std::string at = cell + "/";
      report.add(at + "mean_recovery_s", s.recovery.mean(), "s",
                 Better::kLower);
      report.add(at + "p95_recovery_s",
                 s.recovery.count() > 0 ? s.recovery.percentile(95.0) : 0.0,
                 "s", Better::kLower);
      report.add(at + "warm_hit_rate", s.warm_rate(), "fraction",
                 Better::kHigher);
      report.add(at + "warm_l0", s.warm_l0, "count", Better::kHigher);
      report.add(at + "warm_l1", s.warm_l1, "count", Better::kHigher);
      report.add(at + "warm_l2", s.warm_l2, "count", Better::kHigher);
      report.add(at + "cold", s.cold, "count", Better::kLower);
      report.add(at + "rebuilds", s.rebuilds, "count", Better::kLower);
      report.add(at + "crashes", s.crashes, "count", Better::kLower);
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
      "OK: zero stalls; L1 beats L0-only under local-tier loss; L2 beats "
      "L0+L1 under correlated partner loss; same-seed traces identical\n");
  return session.finish();
}

// Bench: continuous client traffic, availability-centric metrics, and
// traffic-driven on-demand recovery (ISSUE 9).
//
// The paper measures recovery time; what a client sees is goodput. This
// bench drives a continuous open-loop workload (workload::WorkloadDriver)
// through multi-fault trials and scores each recovery policy by what the
// clients experienced: requests served/lost/retried, latency percentiles,
// and the goodput dip (depth / width / time-to-close) against the
// pre-injection baseline.
//
// The tentpole claim: with a long pbcom/fedrcom restart pinning the serial
// recoverer, traffic-driven on-demand recovery restores the serving core
// first and lets client requests *touch* the remaining queued cells back to
// life — so the rtu/ses routes reopen in seconds instead of waiting out the
// ~20 s restart, the goodput dip closes strictly earlier, and strictly
// fewer requests are lost.
//
// Grid: trees {II, IV} x {flagship multi-fault, single-fault degeneracy}
//       x dispatch {serial, dag, ondemand(traffic-driven)} x load
//       {light, heavy}, seeds 8000+i via one run_trial_batch (byte-identical
//       for any MERCURY_JOBS).
//
// Asserted invariants (ISSUE 9 acceptance criteria):
//   * zero stalls and zero accounting violations: in every trial
//     issued == served + lost;
//   * on the flagship multi-fault scenario, for each tree and load,
//     ondemand loses strictly fewer requests than serial and closes its
//     goodput dip strictly earlier (smaller dip_end, smaller dip_width);
//   * ondemand multi-fault trials actually promote restarts by touch;
//     serial/dag trials never do;
//   * same-seed trials are byte-identical (trace compare), and golden
//     traces with per-request spans pass all seven checker invariants —
//     including phantom-goodput — in both serial and ondemand modes.
//
// Writes BENCH_traffic.json (goodput totals, dip and latency per cell; see
// bench::Report), gated in CI against its committed baseline and diffed
// across MERCURY_JOBS values. MERCURY_QUICK=1 shrinks the grid for CI.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/mercury_trees.h"
#include "core/recoverer.h"
#include "obs/trace_check.h"
#include "station/experiment.h"
#include "util/stats.h"
#include "util/strings.h"

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
  // The flagship: a ~20 s pbcom/fedrcom restart plus two quick leaf faults
  // whose routes serial recovery needlessly holds closed. The single-fault
  // row is the degeneracy check — nothing to defer, nothing to touch.
  static const std::vector<Scenario> kScenarios = {
      {"pbcom+ses+rtu",
       "pbcom",
       {{"ses", Duration::millis(30.0)}, {"rtu", Duration::millis(60.0)}}},
      {"ses-single", "ses", {}},
  };
  return kScenarios;
}

struct Mode {
  std::string name;
  DispatchMode dispatch;
  bool traffic_driven;
};

const std::vector<Mode>& modes() {
  static const std::vector<Mode> kModes = {
      {"serial", DispatchMode::kSerial, false},
      {"dag", DispatchMode::kDag, false},
      {"ondemand", DispatchMode::kOnDemand, true},
  };
  return kModes;
}

struct Load {
  std::string name;
  int command_sessions;
  int telemetry_sessions;
  Duration mean_interarrival;
};

const std::vector<Load>& loads() {
  static const std::vector<Load> kLoads = {
      {"light", 8, 4, Duration::millis(200.0)},
      {"heavy", 16, 8, Duration::millis(100.0)},
  };
  return kLoads;
}

/// Tree II predates the fedr/pbcom split: the monolithic fedrcom stands in
/// for pbcom there (same dish-RF failure domain).
std::string resolve(MercuryTree tree, const std::string& name) {
  if (tree == MercuryTree::kTreeII && name == "pbcom") return "fedrcom";
  return name;
}

TrialSpec make_spec(MercuryTree tree, const Scenario& scenario,
                    const Mode& mode, const Load& load, std::uint64_t seed) {
  TrialSpec spec;
  spec.tree = tree;
  spec.oracle = OracleKind::kPerfect;
  spec.fail_component = resolve(tree, scenario.primary);
  spec.extra_faults = scenario.extras;
  for (auto& extra : spec.extra_faults) {
    extra.component = resolve(tree, extra.component);
  }
  spec.dispatch = mode.dispatch;
  spec.traffic_driven = mode.traffic_driven;
  spec.seed = seed;
  spec.timeout = Duration::seconds(300.0);
  spec.traffic.enabled = true;
  spec.traffic.command_sessions = load.command_sessions;
  spec.traffic.telemetry_sessions = load.telemetry_sessions;
  spec.traffic.mean_interarrival = load.mean_interarrival;
  return spec;
}

struct CellStats {
  std::uint64_t issued = 0;
  std::uint64_t served = 0;
  std::uint64_t lost = 0;
  std::uint64_t retried = 0;
  std::uint64_t restarting_rejections = 0;
  mercury::util::SampleStats dip_depth;
  mercury::util::SampleStats dip_width_s;
  mercury::util::SampleStats dip_end_s;
  mercury::util::SampleStats p50_ms;
  mercury::util::SampleStats p99_ms;
  int touch_promotions = 0;
  int lazy_drains = 0;
  int stalls = 0;
  int accounting_violations = 0;
};

std::string tree_name(MercuryTree tree) {
  return tree == MercuryTree::kTreeII ? "II" : "IV";
}

}  // namespace

int main() {
  mercury::bench::TraceSession session("bench_availability_traffic");
  const bool quick = mercury::bench::quick();
  const int seeds = quick ? 2 : 10;
  const std::vector<MercuryTree> trees = {MercuryTree::kTreeII,
                                          MercuryTree::kTreeIV};
  const std::vector<Load>& load_grid =
      quick ? std::vector<Load>{loads()[0]} : loads();

  mercury::bench::print_header(
      "Client traffic & availability: serial vs dag vs traffic-driven "
      "on-demand (ISSUE 9)\n"
      "grid: " + std::to_string(seeds) +
      " seeds x {tree II, IV} x {flagship multi-fault, single-fault} x "
      "{serial, dag, ondemand} x load" + (quick ? "  [quick]" : ""));

  const std::vector<int> widths = {5, 14, 9, 6, 7, 6, 6, 8, 8, 8, 6, 6};
  mercury::bench::print_row(
      {"tree", "scenario", "mode", "load", "issued", "lost", "retry",
       "dip_end", "dip_w", "p50ms", "touch", "lazy"},
      widths);
  mercury::bench::print_rule(widths);

  // One batch over the whole grid in serial order: byte-identical results
  // for any MERCURY_JOBS.
  std::vector<TrialSpec> batch;
  for (const MercuryTree tree : trees) {
    for (const Scenario& scenario : scenarios()) {
      for (const Mode& mode : modes()) {
        for (const Load& load : load_grid) {
          for (int i = 0; i < seeds; ++i) {
            batch.push_back(make_spec(tree, scenario, mode, load, 8000 + i));
          }
        }
      }
    }
  }
  const std::vector<TrialResult> batch_results =
      mercury::station::run_trial_batch(batch);

  int failures = 0;
  std::size_t next_result = 0;
  std::vector<std::pair<std::string, CellStats>> cells;
  std::map<std::string, const CellStats*> by_key;

  for (const MercuryTree tree : trees) {
    for (const Scenario& scenario : scenarios()) {
      for (const Mode& mode : modes()) {
        for (const Load& load : load_grid) {
          CellStats stats;
          for (int i = 0; i < seeds; ++i) {
            const TrialResult& result = batch_results[next_result++];
            if (result.timed_out || result.hard_failure) {
              ++stats.stalls;
              std::fprintf(stderr, "STALL: tree %s %s %s %s seed %d\n",
                           tree_name(tree).c_str(), scenario.name.c_str(),
                           mode.name.c_str(), load.name.c_str(), 8000 + i);
              continue;
            }
            const mercury::core::TrafficSummary& traffic = result.traffic;
            if (traffic.issued != traffic.served + traffic.lost) {
              ++stats.accounting_violations;
              std::fprintf(stderr,
                           "ACCOUNTING: tree %s %s %s %s seed %d: "
                           "%llu issued != %llu served + %llu lost\n",
                           tree_name(tree).c_str(), scenario.name.c_str(),
                           mode.name.c_str(), load.name.c_str(), 8000 + i,
                           static_cast<unsigned long long>(traffic.issued),
                           static_cast<unsigned long long>(traffic.served),
                           static_cast<unsigned long long>(traffic.lost));
            }
            stats.issued += traffic.issued;
            stats.served += traffic.served;
            stats.lost += traffic.lost;
            stats.retried += traffic.retried;
            stats.restarting_rejections += traffic.restarting_rejections;
            stats.dip_depth.add(traffic.dip_depth);
            stats.dip_width_s.add(traffic.dip_width_s);
            stats.dip_end_s.add(traffic.dip_end_s);
            stats.p50_ms.add(traffic.p50_ms);
            stats.p99_ms.add(traffic.p99_ms);
            stats.touch_promotions += result.touch_promotions;
            stats.lazy_drains += result.lazy_drains;
          }
          failures += stats.stalls + stats.accounting_violations;

          // Touch promotions exist exactly where traffic-driven recovery has
          // something to promote: ondemand multi-fault cells.
          if (!mode.traffic_driven && stats.touch_promotions > 0) {
            ++failures;
            std::fprintf(stderr, "SPURIOUS-TOUCH: tree %s %s %s %s\n",
                         tree_name(tree).c_str(), scenario.name.c_str(),
                         mode.name.c_str(), load.name.c_str());
          }
          if (mode.traffic_driven && scenario.multi_fault() &&
              stats.touch_promotions == 0) {
            ++failures;
            std::fprintf(stderr, "NO-TOUCH: tree %s %s %s %s never promoted\n",
                         tree_name(tree).c_str(), scenario.name.c_str(),
                         mode.name.c_str(), load.name.c_str());
          }

          mercury::bench::print_row(
              {tree_name(tree), scenario.name, mode.name, load.name,
               std::to_string(stats.issued), std::to_string(stats.lost),
               std::to_string(stats.retried),
               mercury::util::format_fixed(stats.dip_end_s.mean(), 2),
               mercury::util::format_fixed(stats.dip_width_s.mean(), 2),
               mercury::util::format_fixed(stats.p50_ms.mean(), 1),
               std::to_string(stats.touch_promotions),
               std::to_string(stats.lazy_drains)},
              widths);

          const std::string key = tree_name(tree) + "/" + scenario.name + "/" +
                                  mode.name + "/" + load.name;
          cells.emplace_back(key, stats);
        }
      }
    }
    mercury::bench::print_rule(widths);
  }
  for (const auto& [key, stats] : cells) by_key[key] = &stats;

  // The tentpole claim: on the flagship multi-fault scenario, for each tree
  // and load, traffic-driven on-demand loses strictly fewer requests than
  // serial and closes its goodput dip strictly earlier and narrower.
  for (const MercuryTree tree : trees) {
    for (const Load& load : load_grid) {
      const std::string base =
          tree_name(tree) + "/" + scenarios()[0].name + "/";
      const CellStats& serial = *by_key.at(base + "serial/" + load.name);
      const CellStats& ondemand = *by_key.at(base + "ondemand/" + load.name);
      const bool lost_win = ondemand.lost < serial.lost;
      const bool end_win = ondemand.dip_end_s.mean() < serial.dip_end_s.mean();
      const bool width_win =
          ondemand.dip_width_s.mean() < serial.dip_width_s.mean();
      if (!lost_win || !end_win || !width_win) {
        ++failures;
        std::fprintf(stderr,
                     "NO-WIN: tree %s %s: ondemand lost %llu dip_end %.2f "
                     "dip_w %.2f vs serial lost %llu dip_end %.2f dip_w %.2f\n",
                     tree_name(tree).c_str(), load.name.c_str(),
                     static_cast<unsigned long long>(ondemand.lost),
                     ondemand.dip_end_s.mean(), ondemand.dip_width_s.mean(),
                     static_cast<unsigned long long>(serial.lost),
                     serial.dip_end_s.mean(), serial.dip_width_s.mean());
      } else {
        std::printf(
            "  -> tree %s %s: ondemand reopens service %.2f s earlier "
            "(dip_end %.2f -> %.2f) and loses %llu fewer requests "
            "(%llu -> %llu)\n",
            tree_name(tree).c_str(), load.name.c_str(),
            serial.dip_end_s.mean() - ondemand.dip_end_s.mean(),
            serial.dip_end_s.mean(), ondemand.dip_end_s.mean(),
            static_cast<unsigned long long>(serial.lost - ondemand.lost),
            static_cast<unsigned long long>(serial.lost),
            static_cast<unsigned long long>(ondemand.lost));
      }
    }
  }

  // Determinism and golden traces: same-seed trials are byte-identical, and
  // traces with per-request spans pass every checker invariant — the serial
  // trace proves phantom-goodput holds in anger (requests really resolve
  // lost against closed routes), the ondemand trace exercises its exemption
  // (requests legally served inside the restarts they promoted).
  for (const MercuryTree tree : trees) {
    for (const Mode& mode : {modes()[0], modes()[2]}) {
      TrialSpec spec =
          make_spec(tree, scenarios()[0], mode, load_grid[0], 8000);
      spec.traffic.trace_requests = true;
      TrialResult first, second;
      const std::string trace_a =
          mercury::bench::traced_trial_jsonl(spec, &first);
      const std::string trace_b =
          mercury::bench::traced_trial_jsonl(spec, &second);
      if (trace_a != trace_b || trace_a.empty()) {
        ++failures;
        std::fprintf(stderr, "NONDETERMINISM: tree %s %s\n",
                     tree_name(tree).c_str(), mode.name.c_str());
      }
      const auto traced = mercury::station::run_trial_traced(spec);
      const auto issues = mercury::obs::check_trace(traced.events);
      if (!issues.empty()) {
        ++failures;
        std::fprintf(stderr, "TRACE-VIOLATIONS: tree %s %s:\n%s",
                     tree_name(tree).c_str(), mode.name.c_str(),
                     mercury::obs::describe(issues).c_str());
      }
    }
  }

  // BENCH_traffic.json: every per-cell number, named "<cell>/<metric>".
  {
    using mercury::bench::Better;
    mercury::bench::Report report("traffic", "bench_availability_traffic");
    for (const auto& [cell, s] : cells) {
      const std::string at = cell + "/";
      const auto count = [&](const char* metric, std::uint64_t value,
                             Better better) {
        report.add(at + metric, static_cast<double>(value), "count", better);
      };
      count("issued", s.issued, Better::kHigher);
      count("served", s.served, Better::kHigher);
      count("lost", s.lost, Better::kLower);
      count("retried", s.retried, Better::kLower);
      count("restarting_rejections", s.restarting_rejections, Better::kLower);
      report.add(at + "dip_depth", s.dip_depth.mean(), "fraction",
                 Better::kLower);
      report.add(at + "dip_width_s", s.dip_width_s.mean(), "s",
                 Better::kLower);
      report.add(at + "dip_end_s", s.dip_end_s.mean(), "s", Better::kLower);
      report.add(at + "p50_ms", s.p50_ms.mean(), "ms", Better::kLower);
      report.add(at + "p99_ms", s.p99_ms.mean(), "ms", Better::kLower);
      count("touch_promotions", s.touch_promotions, Better::kHigher);
      count("lazy_drains", s.lazy_drains, Better::kLower);
      count("stalls", s.stalls, Better::kLower);
      count("accounting_violations", s.accounting_violations, Better::kLower);
    }
    failures += report.write();
  }

  std::printf("\n");
  if (failures > 0) {
    std::fprintf(stderr, "FAIL: %d violations\n", failures);
    return 1;
  }
  std::printf(
      "OK: zero stalls, zero accounting violations; ondemand reopens "
      "service strictly earlier than serial on the flagship scenario for "
      "every tree and load; golden traffic traces pass all seven "
      "invariants\n");
  return session.finish();
}

// mercury_ctl — command-line front end over the reproduction.
//
//   mercury_ctl trial --tree IV --component ses [--oracle perfect]
//                     [--trials 100] [--joint] [--seed N]
//   mercury_ctl trees                     # show the five published trees
//   mercury_ctl tree --save V > v.xml     # export a tree as XML
//   mercury_ctl tree --load v.xml         # validate + show an XML tree
//   mercury_ctl optimize [--p-low 0.3]    # search for the best tree
//   mercury_ctl passes [--hours 24]       # predict today's passes
//   mercury_ctl chrome x.trace.jsonl > x.trace.json  # for ui.perfetto.dev
//
// Demonstrates how the pieces compose for tooling: the experiment harness,
// the tree algebra and persistence, the optimizer, the orbit stack, and the
// trace exporters.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/availability.h"
#include "core/mercury_trees.h"
#include "core/optimizer.h"
#include "core/tree_io.h"
#include "obs/trace.h"
#include "orbit/pass_predictor.h"
#include "station/experiment.h"

namespace {

using namespace mercury;

/// Tiny flag parser: --key value pairs plus bare switches.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) == 0) {
        key = key.substr(2);
        if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
          values_[key] = argv[++i];
        } else {
          values_[key] = "";
        }
      }
    }
  }
  bool has(const std::string& key) const { return values_.contains(key); }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it != values_.end() && !it->second.empty() ? it->second : fallback;
  }
  double get_double(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it != values_.end() && !it->second.empty() ? std::stod(it->second)
                                                      : fallback;
  }
  long get_long(const std::string& key, long fallback) const {
    const auto it = values_.find(key);
    return it != values_.end() && !it->second.empty() ? std::stol(it->second)
                                                      : fallback;
  }

 private:
  std::map<std::string, std::string> values_;
};

int usage() {
  std::fprintf(stderr,
               "usage: mercury_ctl <trial|trees|tree|optimize|passes|chrome> "
               "[flags]\n"
               "  trial    --tree I..V --component NAME [--oracle perfect|faulty|"
               "heuristic] [--trials N] [--joint] [--soft] [--seed N]\n"
               "  trees\n"
               "  tree     --save I..V | --load FILE\n"
               "  optimize [--p-low P] [--joint-fraction F]\n"
               "  passes   [--hours H] [--altitude KM] [--inclination DEG]\n"
               "  chrome   FILE.trace.jsonl   (Chrome trace JSON to stdout)\n");
  return 2;
}

core::MercuryTree parse_tree(const std::string& name) {
  if (name == "I") return core::MercuryTree::kTreeI;
  if (name == "II") return core::MercuryTree::kTreeII;
  if (name == "II'") return core::MercuryTree::kTreeIIPrime;
  if (name == "III") return core::MercuryTree::kTreeIII;
  if (name == "IV") return core::MercuryTree::kTreeIV;
  if (name == "V") return core::MercuryTree::kTreeV;
  throw std::invalid_argument("unknown tree '" + name + "' (use I..V)");
}

int cmd_trial(const Args& args) {
  station::TrialSpec spec;
  spec.tree = parse_tree(args.get("tree", "IV"));
  spec.fail_component = args.get("component", "ses");
  const std::string oracle = args.get("oracle", "perfect");
  if (oracle == "perfect") spec.oracle = station::OracleKind::kPerfect;
  else if (oracle == "faulty") spec.oracle = station::OracleKind::kFaultyPerfect;
  else if (oracle == "heuristic") spec.oracle = station::OracleKind::kHeuristic;
  else if (oracle == "learning") spec.oracle = station::OracleKind::kLearning;
  else throw std::invalid_argument("unknown oracle '" + oracle + "'");
  if (args.has("joint")) {
    spec.mode = station::FailureMode::kJointFedrPbcom;
    spec.fail_component = core::component_names::kPbcom;
  }
  spec.enable_soft_recovery = args.has("soft");
  spec.faulty_p_low = args.get_double("p-low", 0.3);
  spec.seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  const int trials = static_cast<int>(args.get_long("trials", 100));

  const auto stats = station::run_trials(spec, trials);
  std::printf("tree %s, oracle %s, %s failure at %s, %d trials:\n",
              core::to_string(spec.tree).c_str(), oracle.c_str(),
              spec.mode == station::FailureMode::kJointFedrPbcom ? "joint"
                                                                 : "crash",
              spec.fail_component.c_str(), trials);
  std::printf("  recovery: mean %.2f s  (min %.2f, p50 %.2f, p95 %.2f, max "
              "%.2f, cv %.3f)\n",
              stats.mean(), stats.min(), stats.median(), stats.percentile(95.0),
              stats.max(), stats.cv());
  return 0;
}

int cmd_trees() {
  for (core::MercuryTree kind : core::published_trees()) {
    const auto tree = core::make_mercury_tree(kind);
    const auto model =
        core::mercury_system_model(core::uses_split_fedrcom(kind));
    std::printf("--- tree %s (predicted system MTTR %.2f s) ---\n%s\n",
                core::to_string(kind).c_str(),
                core::predicted_system_mttr(tree, model), tree.render().c_str());
  }
  return 0;
}

int cmd_tree(const Args& args) {
  if (args.has("save")) {
    const auto tree = core::make_mercury_tree(parse_tree(args.get("save", "V")));
    std::printf("%s\n", core::tree_to_xml(tree).c_str());
    return 0;
  }
  if (args.has("load")) {
    std::ifstream in(args.get("load", ""));
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", args.get("load", "").c_str());
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto tree = core::tree_from_xml(buffer.str());
    if (!tree.ok()) {
      std::fprintf(stderr, "invalid tree: %s\n", tree.error().message().c_str());
      return 1;
    }
    std::printf("%s", tree.value().render().c_str());
    std::printf("valid: %zu cells, %zu components\n", tree.value().size(),
                tree.value().all_components().size());
    return 0;
  }
  return usage();
}

int cmd_optimize(const Args& args) {
  const double p_low = args.get_double("p-low", 0.3);
  const double joint_fraction = args.get_double("joint-fraction", 0.25);
  const auto model = core::mercury_system_model(true, p_low, joint_fraction);
  namespace names = core::component_names;
  const auto result = core::optimize_tree(
      {names::kMbus, names::kSes, names::kStr, names::kRtu, names::kFedr,
       names::kPbcom},
      model, 3);
  std::printf("searched %llu candidate trees (oracle p_low %.2f)\n",
              static_cast<unsigned long long>(result.candidates_evaluated), p_low);
  for (std::size_t i = 0; i < result.ranking.size(); ++i) {
    std::printf("#%zu predicted MTTR %.3f s\n%s\n", i + 1,
                result.ranking[i].predicted_mttr_s,
                result.ranking[i].tree.render().c_str());
  }
  return 0;
}

int cmd_passes(const Args& args) {
  const double hours = args.get_double("hours", 24.0);
  const double altitude = args.get_double("altitude", 800.0);
  const double inclination = args.get_double("inclination", 60.0);
  const auto site = orbit::GroundStation::stanford();
  const orbit::Propagator satellite(
      orbit::KeplerianElements::circular_leo(altitude, inclination),
      orbit::PerturbationModel::kJ2Secular);
  const auto passes = orbit::predict_passes(
      site, satellite, util::TimePoint::origin(),
      util::TimePoint::origin() + util::Duration::hours(hours));
  std::printf("%zu passes over %s in the next %.0f h (orbit %g km / %g deg):\n",
              passes.size(), site.name().c_str(), hours, altitude, inclination);
  for (const auto& pass : passes) {
    std::printf("  AOS %8.0fs  LOS %8.0fs  %5.1f min  max el %5.1f deg\n",
                pass.aos.to_seconds(), pass.los.to_seconds(),
                pass.duration().to_seconds() / 60.0,
                orbit::rad_to_deg(pass.max_elevation_rad));
  }
  return 0;
}

/// Render a saved JSONL trace as Chrome trace-event JSON on stdout. The
/// reader skips malformed lines, so a file whose non-empty lines did not all
/// parse is refused rather than rendered short. The file is read twice
/// (count the lines, then parse them) rather than held in memory as text.
int cmd_chrome(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) ++lines;
  }
  in.clear();
  in.seekg(0);
  const obs::EventBuffer events = obs::read_jsonl(in);
  if (events.size() != lines) {
    std::fprintf(stderr, "%s: %zu of %zu lines are not trace events\n",
                 path.c_str(), lines - events.size(), lines);
    return 1;
  }
  obs::write_chrome_trace(events, std::cout);
  if (!std::cout.flush()) {
    std::fprintf(stderr, "error: could not write the Chrome trace\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Args args(argc, argv);
  try {
    if (command == "trial") return cmd_trial(args);
    if (command == "trees") return cmd_trees();
    if (command == "tree") return cmd_tree(args);
    if (command == "optimize") return cmd_optimize(args);
    if (command == "passes") return cmd_passes(args);
    if (command == "chrome") return argc == 3 ? cmd_chrome(argv[2]) : usage();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return usage();
}

// The bench harness: tracing, quick mode, BENCH_*.json reports and
// table-printing helpers shared by every reproduction bench.
//
// Each bench regenerates one table or figure from the paper, printing the
// paper's reported value next to our measured value so the comparison is
// auditable straight from the bench output.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/phases.h"
#include "obs/trace.h"
#include "obs/trace_check.h"
#include "station/experiment.h"
#include "util/strings.h"

namespace mercury::bench {

/// True when MERCURY_QUICK=1: every bench with a grid shrinks it to a CI
/// smoke size. Quick runs mark their BENCH file `"quick": true`, and the
/// gate never compares them with a full-run baseline.
inline bool quick() {
  const char* flag = std::getenv("MERCURY_QUICK");
  return flag != nullptr && std::string(flag) == "1";
}

/// Which way a metric improves; bench/check_bench.py gates in the other.
enum class Better { kLower, kHigher };

/// One perf-trajectory file, $MERCURY_BENCH_DIR/BENCH_<stem>.json (default:
/// the working directory), gated by bench/check_bench.py against
/// bench/baselines/BENCH_<stem>.baseline.json:
///
///   {"bench": "<bench>", "quick": <bool>,
///    "metrics": [{"metric": "<cell>/<name>", "value": <number>,
///                 "unit": "<unit>", "better": "lower" | "higher"}]}
class Report {
 public:
  Report(std::string stem, std::string bench)
      : stem_(std::move(stem)), bench_(std::move(bench)) {}

  void add(std::string metric, double value, std::string unit, Better better) {
    metrics_.push_back({std::move(metric), value, std::move(unit), better});
  }

  /// Write the file and print a `json:` line. Returns 0 on success, 1 (with
  /// a stderr message) when the file cannot be written.
  int write() const {
    const char* dir = std::getenv("MERCURY_BENCH_DIR");
    const std::string path =
        (dir != nullptr && *dir != '\0' ? std::string(dir) + "/" : "") +
        "BENCH_" + stem_ + ".json";
    std::ofstream out(path);
    out << "{\n  \"bench\": \"" << bench_ << "\",\n  \"quick\": "
        << (quick() ? "true" : "false") << ",\n  \"metrics\": [\n";
    char value[32];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::snprintf(value, sizeof(value), "%.10g", m.value);
      out << "    {\"metric\": \"" << m.name << "\", \"value\": " << value
          << ", \"unit\": \"" << m.unit << "\", \"better\": \""
          << (m.better == Better::kLower ? "lower" : "higher") << "\"}"
          << (i + 1 < metrics_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    out.close();  // a failed write shows only once the last block is flushed
    if (!out) {
      std::fprintf(stderr, "FAIL: could not write %s\n", path.c_str());
      return 1;
    }
    std::printf("json: %s (%zu metrics)\n", path.c_str(), metrics_.size());
    return 0;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    Better better;
  };
  std::string stem_;
  std::string bench_;
  std::vector<Metric> metrics_;
};

/// Per-bench recovery tracing (docs/TRACING.md). Construct one at the top of
/// main(); while it lives, every recovery the bench drives is recorded (the
/// parallel experiment runner merges worker-thread trials back into this
/// recorder in trial order, so the files below are byte-identical for any
/// MERCURY_JOBS). finish() — called by the destructor if the bench does not —
/// validates the recovery-trace invariants over the recorder's EventBuffer
/// (obs/trace_check.h, every invariant, lost-kill included), then writes
/// <name>.trace.jsonl from the same buffer (line-per-event schema;
/// `mercury_ctl chrome` renders it for chrome://tracing or ui.perfetto.dev)
/// into $MERCURY_TRACE_DIR (default: the working directory) and prints the
/// per-phase recovery breakdown. Benches return `trace.finish() | failures`
/// so an illegal recovery schedule fails the bench even when the aggregate
/// numbers look fine.
///
/// Set MERCURY_TRACE=0 to disable tracing entirely.
class TraceSession {
 public:
  explicit TraceSession(std::string name) : name_(std::move(name)) {
    const char* flag = std::getenv("MERCURY_TRACE");
    if (flag != nullptr && std::string(flag) == "0") return;
    recorder_ = std::make_unique<obs::TraceRecorder>();
    obs::set_recorder(recorder_.get());
  }

  ~TraceSession() { finish(); }

  /// Check invariants, write the trace file and print the breakdown.
  /// Returns 0 when the trace satisfies every invariant and was written
  /// (or tracing is off), 1 otherwise. Idempotent: the first call does the
  /// work, later calls (including the destructor's) return the same code.
  int finish() {
    if (finished_) return exit_code_;
    finished_ = true;
    if (recorder_ == nullptr) return 0;
    obs::set_recorder(nullptr);

    const std::vector<obs::TraceIssue> issues =
        obs::check_trace(recorder_->events());
    if (!issues.empty()) {
      exit_code_ = 1;
      std::fprintf(stderr,
                   "\n--- TRACE INVARIANT VIOLATIONS (%zu) ------------------\n%s",
                   issues.size(), obs::describe(issues).c_str());
    }

    const char* dir = std::getenv("MERCURY_TRACE_DIR");
    std::string prefix = name_;
    if (dir != nullptr && *dir != '\0') {
      // Create the trace directory if it does not exist yet, and say
      // exactly what went wrong if we cannot — a silently unwritable
      // MERCURY_TRACE_DIR used to drop traces with only a vague warning.
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);
      if (ec) {
        std::fprintf(stderr,
                     "error: cannot create MERCURY_TRACE_DIR '%s': %s; "
                     "traces will not be written\n",
                     dir, ec.message().c_str());
      }
      prefix = std::string(dir) + "/" + name_;
    }
    const std::string path = prefix + ".trace.jsonl";
    std::ofstream out(path);
    recorder_->write_jsonl(out);
    out.close();  // a failed write shows only once the last block is flushed

    std::printf("\n--- Recovery phase breakdown (from trace) -----------------\n");
    std::printf("%s", obs::phase_table(
                          obs::recovery_phases(recorder_->events())).c_str());
    if (recorder_->dropped() > 0) {
      std::printf("note: %llu events dropped at the recorder cap\n",
                  static_cast<unsigned long long>(recorder_->dropped()));
    }
    if (exit_code_ == 0) {
      std::printf("trace invariants: OK (%zu events checked)\n",
                  recorder_->events().size());
    }
    if (out) {
      std::printf("trace: %s\n", path.c_str());
    } else {
      exit_code_ = 1;
      std::fprintf(stderr,
                   "error: could not write trace files under '%s' "
                   "(does MERCURY_TRACE_DIR exist?)\n",
                   prefix.c_str());
    }
    return exit_code_;
  }

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// The live recorder, or nullptr when disabled via MERCURY_TRACE=0.
  obs::TraceRecorder* recorder() { return recorder_.get(); }

 private:
  std::string name_;
  std::unique_ptr<obs::TraceRecorder> recorder_;
  bool finished_ = false;
  int exit_code_ = 0;
};

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void print_row(const std::vector<std::string>& cells,
                      const std::vector<int>& widths) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const int width = i < widths.size() ? widths[i] : 12;
    line += util::pad_left(cells[i], static_cast<std::size_t>(width));
    line += "  ";
  }
  std::printf("%s\n", line.c_str());
}

inline void print_rule(const std::vector<int>& widths) {
  std::string line;
  for (int width : widths) {
    line += std::string(static_cast<std::size_t>(width), '-');
    line += "  ";
  }
  std::printf("%s\n", line.c_str());
}

/// "measured (paper X)" cell.
inline std::string vs_paper(double measured, double paper) {
  return util::format_fixed(measured, 2) + " (" + util::format_fixed(paper, 2) + ")";
}

/// One trial under a fresh recorder (fresh run/span counters), serialized to
/// JSONL — two same-seed calls must return byte-identical strings, the
/// determinism oracle of the chaos and warm-restart campaigns.
inline std::string traced_trial_jsonl(const station::TrialSpec& spec,
                                      station::TrialResult* result) {
  station::TracedTrial traced = station::run_trial_traced(spec);
  *result = traced.result;
  std::ostringstream out;
  obs::write_jsonl(traced.events, out);
  return out.str();
}

}  // namespace mercury::bench

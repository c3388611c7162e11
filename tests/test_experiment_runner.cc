// ExperimentRunner (src/exp/runner.h): parallel trial execution must be
// byte-identical to the serial loop — aggregated results, merged traces,
// and the files written from them — for any MERCURY_JOBS value.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/mercury_trees.h"
#include "exp/runner.h"
#include "exp/seed_stream.h"
#include "obs/trace.h"
#include "station/experiment.h"

namespace mercury::exp {
namespace {

/// RAII override of $MERCURY_JOBS (nullptr = unset), restoring on exit.
class JobsEnv {
 public:
  explicit JobsEnv(const char* value) {
    const char* old = std::getenv("MERCURY_JOBS");
    had_ = old != nullptr;
    if (had_) saved_ = old;
    if (value != nullptr) {
      ::setenv("MERCURY_JOBS", value, 1);
    } else {
      ::unsetenv("MERCURY_JOBS");
    }
  }
  ~JobsEnv() {
    if (had_) {
      ::setenv("MERCURY_JOBS", saved_.c_str(), 1);
    } else {
      ::unsetenv("MERCURY_JOBS");
    }
  }

 private:
  std::string saved_;
  bool had_ = false;
};

// --- Runner mechanics ------------------------------------------------------

TEST(EnvJobs, ParsesPositiveIntegersOnly) {
  {
    JobsEnv env("4");
    EXPECT_EQ(env_jobs(), 4);
  }
  {
    JobsEnv env(nullptr);
    EXPECT_EQ(env_jobs(), 0);
  }
  for (const char* bad : {"0", "-2", "abc", "4x", ""}) {
    JobsEnv env(bad);
    EXPECT_EQ(env_jobs(), 0) << "MERCURY_JOBS=" << bad;
  }
}

TEST(ExperimentRunner, JobsResolutionPrefersConfigThenEnv) {
  JobsEnv env("3");
  EXPECT_EQ(ExperimentRunner(RunnerConfig{.jobs = 5}).jobs(), 5);
  EXPECT_EQ(ExperimentRunner().jobs(), 3);
  JobsEnv cleared(nullptr);
  EXPECT_EQ(ExperimentRunner().jobs(), hardware_jobs());
}

TEST(ExperimentRunner, MapReturnsResultsInIndexOrder) {
  ExperimentRunner runner(RunnerConfig{.jobs = 7});
  const std::vector<std::size_t> doubled =
      runner.map(100, [](TrialContext& ctx) { return ctx.index * 2; });
  ASSERT_EQ(doubled.size(), 100u);
  for (std::size_t i = 0; i < doubled.size(); ++i) {
    EXPECT_EQ(doubled[i], i * 2);
  }
}

TEST(ExperimentRunner, SeedsFollowTheConfiguredStream) {
  ExperimentRunner derived(RunnerConfig{.jobs = 4, .master_seed = 42});
  const SeedStream stream(42);
  const auto seeds =
      derived.map(32, [](TrialContext& ctx) { return ctx.seed; });
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(seeds[i], stream.trial_seed(i));
  }

  ExperimentRunner plain(RunnerConfig{.jobs = 4});
  const auto indices =
      plain.map(8, [](TrialContext& ctx) { return ctx.seed; });
  for (std::size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(indices[i], i);
  }
}

TEST(ExperimentRunner, FirstExceptionByIndexIsRethrownAfterAllTrialsRun) {
  ExperimentRunner runner(RunnerConfig{.jobs = 4});
  std::atomic<int> completed{0};
  try {
    runner.run(16, [&completed](TrialContext& ctx) {
      if (ctx.index == 11) throw std::runtime_error("trial 11");
      if (ctx.index == 5) throw std::runtime_error("trial 5");
      ++completed;
    });
    FAIL() << "expected the trial exception to propagate";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "trial 5");
  }
  EXPECT_EQ(completed.load(), 14);
}

TEST(ExperimentRunner, TrialsGetPrivateRecordersOnlyUnderAnAmbientOne) {
  ExperimentRunner runner(RunnerConfig{.jobs = 4});
  // No ambient recorder on this thread: capture off.
  const auto without =
      runner.map(8, [](TrialContext& ctx) { return ctx.recorder != nullptr; });
  for (const bool captured : without) EXPECT_FALSE(captured);

  obs::TraceRecorder ambient;
  obs::ScopedRecorder scope(ambient);
  std::set<const obs::TraceRecorder*> distinct;
  std::mutex mutex;
  runner.run(8, [&](TrialContext& ctx) {
    ASSERT_NE(ctx.recorder, nullptr);
    EXPECT_EQ(obs::recorder(), ctx.recorder);  // installed on this thread
    obs::instant(util::TimePoint::origin() + util::Duration::seconds(1.0),
                 "sim", "probe", "test",
                 {{"index", std::to_string(ctx.index)}});
    const std::lock_guard<std::mutex> lock(mutex);
    distinct.insert(ctx.recorder);
  });
  EXPECT_EQ(distinct.size(), 8u);          // one private recorder per trial
  EXPECT_EQ(ambient.events().size(), 8u);  // all merged back, index order
  for (std::size_t i = 0; i < ambient.events().size(); ++i) {
    EXPECT_EQ(ambient.events()[i].arg_or("index"), std::to_string(i));
  }
}

// --- End-to-end determinism over real trials -------------------------------

std::vector<station::TrialSpec> sample_specs() {
  std::vector<station::TrialSpec> specs;
  for (const std::string component : {"ses", "str", "rtu"}) {
    for (std::uint64_t seed : {21ull, 22ull}) {
      station::TrialSpec spec;
      spec.tree = core::MercuryTree::kTreeIV;
      spec.oracle = station::OracleKind::kPerfect;
      spec.fail_component = component;
      spec.seed = seed;
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

/// Merged trace and result line of the sample batch at a job count.
struct BatchOutput {
  std::string trace;
  std::string chrome;
  std::string results;
};

BatchOutput run_sample_batch(const char* jobs) {
  JobsEnv env(jobs);
  obs::TraceRecorder recorder;
  std::ostringstream results;
  {
    obs::ScopedRecorder scope(recorder);
    for (const station::TrialResult& result :
         station::run_trial_batch(sample_specs())) {
      results << result.recovery.to_seconds() << "," << result.restarts << ","
              << result.escalations << ";";
    }
  }
  results << "\n";
  std::ostringstream trace;
  recorder.write_jsonl(trace);
  std::ostringstream chrome;
  recorder.write_chrome_trace(chrome);
  return {trace.str(), chrome.str(), results.str()};
}

TEST(ExperimentRunner, BatchByteIdenticalAcrossJobCounts) {
  const BatchOutput serial = run_sample_batch("1");
  ASSERT_NE(serial.trace.find("rec.restart"), std::string::npos);
  for (const char* jobs : {"2", "8"}) {
    const BatchOutput parallel = run_sample_batch(jobs);
    EXPECT_EQ(serial.trace, parallel.trace) << "MERCURY_JOBS=" << jobs;
    EXPECT_EQ(serial.results, parallel.results) << "MERCURY_JOBS=" << jobs;
  }
}

/// Whole file as a string; empty on error.
std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return in ? out.str() : std::string{};
}

TEST(ExperimentRunner, GoldenBatchByteIdenticalToCommittedFixture) {
  // Determinism lock-down: the sample batch's merged trace (both
  // export formats) and result line must reproduce the committed fixtures
  // byte for byte, at any job count. The JSONL and result fixtures were
  // captured from the pre-optimization seed build and the Chrome fixture
  // from the last build with string-backed trace events, so this pins the
  // full observable contract — event timestamps, (at, seq) pop order,
  // routing, span/run rebasing in the merge, arg formatting — across every
  // hot-path rewrite, present and future. If a change legitimately alters
  // the trace (new events, schema change), regenerate the fixtures with a
  // serial run (MERCURY_REGEN_GOLDEN=1) and record why with the change.
  const std::string data_dir = MERCURY_TEST_DATA_DIR;
  const std::string trace_path = data_dir + "/golden_batch.trace.jsonl";
  const std::string chrome_path = data_dir + "/golden_batch.trace.json";
  const std::string results_path = data_dir + "/golden_batch.results.txt";
  if (std::getenv("MERCURY_REGEN_GOLDEN") != nullptr) {
    const BatchOutput serial = run_sample_batch("1");
    std::ofstream(trace_path, std::ios::binary) << serial.trace;
    std::ofstream(chrome_path, std::ios::binary) << serial.chrome;
    std::ofstream(results_path, std::ios::binary) << serial.results;
  }
  const std::string regenerate =
      " is missing or empty; regenerate the fixtures with a serial run: "
      "MERCURY_REGEN_GOLDEN=1 build/tests/test_experiment_runner "
      "--gtest_filter=ExperimentRunner.GoldenBatchByteIdenticalToCommittedFixture";
  const std::string golden_trace = read_file(trace_path);
  const std::string golden_chrome = read_file(chrome_path);
  const std::string golden_results = read_file(results_path);
  ASSERT_FALSE(golden_trace.empty()) << trace_path << regenerate;
  ASSERT_FALSE(golden_chrome.empty()) << chrome_path << regenerate;
  ASSERT_FALSE(golden_results.empty()) << results_path << regenerate;

  for (const char* jobs : {"1", "2", "8"}) {
    const BatchOutput batch = run_sample_batch(jobs);
    EXPECT_EQ(batch.trace, golden_trace) << "MERCURY_JOBS=" << jobs;
    EXPECT_EQ(batch.chrome, golden_chrome) << "MERCURY_JOBS=" << jobs;
    EXPECT_EQ(batch.results, golden_results) << "MERCURY_JOBS=" << jobs;
  }
}

TEST(ExperimentRunner, MergedTraceMatchesTheLegacySerialRecorder) {
  // The pre-runner behaviour: every trial recorded directly into one
  // ambient recorder on the calling thread. The runner's per-trial
  // capture + index-ordered merge must reproduce it byte for byte,
  // including run indices and span ids.
  obs::TraceRecorder legacy;
  {
    obs::ScopedRecorder scope(legacy);
    for (const station::TrialSpec& spec : sample_specs()) {
      station::run_trial(spec);
    }
  }
  std::ostringstream legacy_out;
  legacy.write_jsonl(legacy_out);

  JobsEnv env("8");
  obs::TraceRecorder merged;
  {
    obs::ScopedRecorder scope(merged);
    station::run_trial_batch(sample_specs());
  }
  std::ostringstream merged_out;
  merged.write_jsonl(merged_out);

  EXPECT_EQ(legacy_out.str(), merged_out.str());
  EXPECT_EQ(legacy.run(), merged.run());
}

TEST(ExperimentRunner, RunTrialsStatsIdenticalAcrossJobCounts) {
  station::TrialSpec spec;
  spec.tree = core::MercuryTree::kTreeII;
  spec.oracle = station::OracleKind::kPerfect;
  spec.fail_component = "ses";
  spec.seed = 500;

  const auto stats_at = [&spec](const char* jobs) {
    JobsEnv env(jobs);
    return station::run_trials(spec, 20);
  };
  const util::SampleStats serial = stats_at("1");
  const util::SampleStats parallel = stats_at("8");
  ASSERT_EQ(serial.count(), parallel.count());
  EXPECT_EQ(serial.samples(), parallel.samples());  // exact, order included
}

TEST(ExperimentRunner, ConcurrentTrialsNeverInterleaveTraceFileWrites) {
  // Regression for the MERCURY_TRACE_DIR race: workers must never write the
  // trace file themselves — per-trial buffers are merged on the launching
  // thread and serialized once. The written JSONL must parse back line for
  // line with exactly the events of all trials.
  JobsEnv env("8");
  obs::TraceRecorder recorder;
  {
    obs::ScopedRecorder scope(recorder);
    station::run_trial_batch(sample_specs());
  }

  std::size_t expected_events = 0;
  for (const station::TrialSpec& spec : sample_specs()) {
    expected_events += station::run_trial_traced(spec).events.size();
  }
  ASSERT_GT(expected_events, 0u);
  EXPECT_EQ(recorder.events().size(), expected_events);

  const std::string path =
      ::testing::TempDir() + "/runner_merge.trace.jsonl";
  {
    std::ofstream out(path);
    recorder.write_jsonl(out);
    ASSERT_TRUE(out.good());
  }
  std::ifstream in(path);
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  EXPECT_EQ(lines, expected_events);  // one object per line, none torn

  std::ifstream reparse(path);
  const std::vector<obs::TraceEvent> reread = obs::read_jsonl(reparse);
  EXPECT_EQ(reread.size(), expected_events);  // every line parses
}

}  // namespace
}  // namespace mercury::exp

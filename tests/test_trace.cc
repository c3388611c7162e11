// Recovery-path tracing (src/obs): recorder semantics, export round-trips,
// and the phase decomposition on a real simulated crash -> recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

#include "core/mercury_trees.h"
#include "core/transformations.h"
#include "obs/phases.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "station/experiment.h"
#include "station/fault_injector.h"
#include "station/station.h"
#include "util/rng.h"
#include "util/strings.h"

namespace mercury::obs {
namespace {

using util::TimePoint;

TEST(TraceRecorder, RecordsEventsInEmissionOrder) {
  TraceRecorder rec;
  rec.instant(1.0, "fault", "fault.manifest", "board", {{"manifest", "ses"}});
  rec.instant(2.0, "detect", "fd.report", "fd", {{"component", "ses"}});
  rec.counter(2.5, "active", 3.0, "board");

  ASSERT_EQ(rec.events().size(), 3u);
  EXPECT_EQ(rec.events()[0].name, "fault.manifest");
  EXPECT_EQ(rec.events()[0].kind, EventKind::kInstant);
  EXPECT_EQ(rec.events()[0].arg_or("manifest"), "ses");
  EXPECT_EQ(rec.events()[1].name, "fd.report");
  EXPECT_EQ(rec.events()[2].kind, EventKind::kCounter);
  EXPECT_EQ(rec.events()[2].arg_or("value"), "3");
}

TEST(TraceRecorder, SpansNestAndReplayMetadataOnEnd) {
  TraceRecorder rec;
  const auto outer = rec.begin(1.0, "recover", "rec.restart", "rec",
                               {{"component", "ses"}});
  const auto inner = rec.begin(1.5, "restart", "restart:ses", "pm");
  EXPECT_NE(outer, 0u);
  EXPECT_NE(inner, 0u);
  EXPECT_NE(outer, inner);

  rec.end(3.0, inner, {{"outcome", "ready"}});
  rec.end(3.5, outer);

  ASSERT_EQ(rec.events().size(), 4u);
  const TraceEvent& inner_end = rec.events()[2];
  EXPECT_EQ(inner_end.kind, EventKind::kEnd);
  // category/name/track replayed from the matching begin.
  EXPECT_EQ(inner_end.category, "restart");
  EXPECT_EQ(inner_end.name, "restart:ses");
  EXPECT_EQ(inner_end.track, "pm");
  EXPECT_EQ(inner_end.span, inner);
  EXPECT_EQ(inner_end.arg_or("outcome"), "ready");

  const TraceEvent& outer_end = rec.events()[3];
  EXPECT_EQ(outer_end.name, "rec.restart");
  EXPECT_EQ(outer_end.span, outer);
}

TEST(TraceRecorder, EndOfUnknownSpanIsDropped) {
  TraceRecorder rec;
  rec.end(1.0, 999);
  EXPECT_TRUE(rec.events().empty());
}

TEST(TraceRecorder, EventCapCountsDropped) {
  TraceRecorder rec(/*max_events=*/2);
  rec.instant(1.0, "fault", "a", "t");
  rec.instant(2.0, "fault", "b", "t");
  rec.instant(3.0, "fault", "c", "t");
  EXPECT_EQ(rec.events().size(), 2u);
  EXPECT_EQ(rec.dropped(), 1u);
}

TEST(TraceRecorder, MetricsAggregate) {
  TraceRecorder rec;
  rec.incr("fd.reports");
  rec.incr("fd.reports", 2);
  rec.observe("trial.recovery_seconds", 5.0);
  rec.observe("trial.recovery_seconds", 7.0);

  EXPECT_EQ(rec.count("fd.reports"), 3u);
  EXPECT_EQ(rec.count("missing"), 0u);
  ASSERT_EQ(rec.samples().count("trial.recovery_seconds"), 1u);
  EXPECT_DOUBLE_EQ(rec.samples().at("trial.recovery_seconds").mean(), 6.0);
  const std::string summary = rec.metrics_summary();
  EXPECT_NE(summary.find("fd.reports"), std::string::npos);
  EXPECT_NE(summary.find("trial.recovery_seconds"), std::string::npos);
}

TEST(TraceRecorder, RunIndexStampsSubsequentEvents) {
  TraceRecorder rec;
  rec.instant(1.0, "fault", "a", "t");
  rec.next_run();
  rec.instant(1.0, "fault", "b", "t");
  EXPECT_EQ(rec.events()[0].run, 0u);
  EXPECT_EQ(rec.events()[1].run, 1u);
}

// --- Chunked EventBuffer (ISSUE 10) ---------------------------------------
// Events are stored in fixed-capacity chunks (no re-moves on growth, merge
// by chunk splice). These pin the behavior right at the chunk seams.

TEST(EventBuffer, IndexingAndIterationCrossChunkBoundaries) {
  EventBuffer buffer;
  const std::size_t total = EventBuffer::kChunkCapacity * 2 + 7;
  for (std::size_t i = 0; i < total; ++i) {
    TraceEvent event;
    event.t = static_cast<double>(i);
    event.name = Label("e" + std::to_string(i));
    buffer.push_back(std::move(event));
  }
  ASSERT_EQ(buffer.size(), total);
  // Random access at the seams.
  for (std::size_t i : {std::size_t{0}, EventBuffer::kChunkCapacity - 1,
                        EventBuffer::kChunkCapacity,
                        2 * EventBuffer::kChunkCapacity, total - 1}) {
    EXPECT_EQ(buffer[i].name, "e" + std::to_string(i)) << i;
  }
  // Full iteration visits every event in emission order.
  std::size_t index = 0;
  for (const TraceEvent& event : buffer) {
    ASSERT_EQ(event.t, static_cast<double>(index));
    ++index;
  }
  EXPECT_EQ(index, total);
  EXPECT_EQ(buffer.to_vector().size(), total);
}

TEST(EventBuffer, SpliceMovesEverythingAndEmptiesTheSource) {
  EventBuffer a;
  EventBuffer b;
  const std::size_t per_side = EventBuffer::kChunkCapacity + 3;
  for (std::size_t i = 0; i < per_side; ++i) {
    TraceEvent ea;
    ea.t = static_cast<double>(i);
    a.push_back(std::move(ea));
    TraceEvent eb;
    eb.t = 1000.0 + static_cast<double>(i);
    b.push_back(std::move(eb));
  }
  a.splice_from(std::move(b));
  EXPECT_EQ(a.size(), 2 * per_side);
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move): documented
  EXPECT_EQ(a[per_side].t, 1000.0);          // first spliced event
  EXPECT_EQ(a[2 * per_side - 1].t, 1000.0 + per_side - 1);
}

TEST(TraceRecorder, DestructiveMergeMatchesCopyingMergeByteForByte) {
  const auto fill = [](TraceRecorder& rec) {
    rec.next_run();
    const std::uint64_t span = rec.begin(1.0, "recover", "rec.restart", "rec",
                                         {{"component", "ses"}});
    rec.instant(1.5, "detect", "fd.report", "fd");
    rec.end(2.0, span);
    rec.incr("restarts");
    rec.observe("recovery_s", 1.0);
  };
  TraceRecorder copied;
  TraceRecorder spliced;
  for (int trial = 0; trial < 3; ++trial) {
    TraceRecorder a;
    fill(a);
    copied.merge_from(a);  // per-event copying merge
    TraceRecorder b;
    fill(b);
    spliced.merge_from(std::move(b));  // chunk-splice merge
  }
  std::ostringstream copied_out;
  copied.write_jsonl(copied_out);
  std::ostringstream spliced_out;
  spliced.write_jsonl(spliced_out);
  EXPECT_EQ(copied_out.str(), spliced_out.str());
  EXPECT_EQ(copied.run(), spliced.run());
  EXPECT_EQ(copied.count("restarts"), spliced.count("restarts"));
}

TEST(TraceExport, JsonlRoundTripReproducesEvents) {
  TraceRecorder rec;
  rec.instant(0.25, "fault", "fault.manifest", "board",
              {{"manifest", "ses"}, {"kind", "crash"}});
  const auto span = rec.begin(1.0, "recover", "rec.restart", "rec",
                              {{"cell", "R_[ses,str]"}, {"escalation", "0"}});
  rec.next_run();
  rec.counter(1.5, "active", 2.0, "board");
  rec.end(2.0, span, {{"outcome", "cured"}});
  // Values that stress the escaping and number formatting.
  rec.instant(3.0000001, "sim", "weird \"quotes\"\n\ttabs \\ backslash", "sim",
              {{"k", "vé"}});

  std::ostringstream out;
  rec.write_jsonl(out);
  std::istringstream in(out.str());
  const std::vector<TraceEvent> back = read_jsonl(in);

  ASSERT_EQ(back.size(), rec.events().size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    const TraceEvent& a = rec.events()[i];
    const TraceEvent& b = back[i];
    EXPECT_DOUBLE_EQ(a.t, b.t) << i;
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.category, b.category) << i;
    EXPECT_EQ(a.name, b.name) << i;
    EXPECT_EQ(a.track, b.track) << i;
    EXPECT_EQ(a.span, b.span) << i;
    EXPECT_EQ(a.run, b.run) << i;
    ASSERT_EQ(a.args.size(), b.args.size()) << i;
    for (std::size_t j = 0; j < a.args.size(); ++j) {
      EXPECT_EQ(a.args[j].key, b.args[j].key);
      EXPECT_EQ(a.args[j].value(), b.args[j].value());
    }
  }
}

TEST(TraceExport, ReadJsonlSkipsMalformedLines) {
  std::istringstream in(
      "{\"t\":1,\"ph\":\"i\",\"cat\":\"fault\",\"name\":\"a\",\"track\":\"t\","
      "\"span\":0,\"run\":0,\"args\":{}}\n"
      "not json at all\n"
      "{\"t\":2,\"ph\":\"i\",\"cat\":\"fault\",\"name\":\"b\",\"track\":\"t\","
      "\"span\":0,\"run\":0,\"args\":{}}\n");
  const auto events = read_jsonl(in);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[1].name, "b");
}

TEST(TraceExport, ReadJsonlSurvivesMalformedNumbersAndEscapes) {
  // Regression (ISSUE 3 satellite): these lines used to reach std::stod /
  // std::stoull and throw out of read_jsonl. Each must now simply be
  // skipped, with the surrounding good lines kept.
  const std::string good_a =
      "{\"t\":1,\"ph\":\"i\",\"cat\":\"fault\",\"name\":\"a\",\"track\":\"t\","
      "\"span\":0,\"run\":0,\"args\":{}}\n";
  const std::string good_b =
      "{\"t\":2,\"ph\":\"i\",\"cat\":\"fault\",\"name\":\"b\",\"track\":\"t\","
      "\"span\":0,\"run\":0,\"args\":{}}\n";
  std::istringstream in(
      good_a +
      // Timestamps that are sign/point/exponent tokens but not numbers.
      "{\"t\":-,\"ph\":\"i\",\"cat\":\"c\",\"name\":\"x\",\"track\":\"t\","
      "\"span\":0,\"run\":0,\"args\":{}}\n"
      "{\"t\":.,\"ph\":\"i\",\"cat\":\"c\",\"name\":\"x\",\"track\":\"t\","
      "\"span\":0,\"run\":0,\"args\":{}}\n"
      "{\"t\":1e,\"ph\":\"i\",\"cat\":\"c\",\"name\":\"x\",\"track\":\"t\","
      "\"span\":0,\"run\":0,\"args\":{}}\n"
      // Overflowing double exponent (stod would throw out_of_range).
      "{\"t\":1e999,\"ph\":\"i\",\"cat\":\"c\",\"name\":\"x\",\"track\":\"t\","
      "\"span\":0,\"run\":0,\"args\":{}}\n"
      // 24-digit span / run overflow 64 bits (stoull would throw).
      "{\"t\":1,\"ph\":\"b\",\"cat\":\"c\",\"name\":\"x\",\"track\":\"t\","
      "\"span\":999999999999999999999999,\"run\":0,\"args\":{}}\n"
      "{\"t\":1,\"ph\":\"i\",\"cat\":\"c\",\"name\":\"x\",\"track\":\"t\","
      "\"span\":0,\"run\":999999999999999999999999,\"args\":{}}\n"
      // Negative span: not a digit sequence for an unsigned field.
      "{\"t\":1,\"ph\":\"b\",\"cat\":\"c\",\"name\":\"x\",\"track\":\"t\","
      "\"span\":-1,\"run\":0,\"args\":{}}\n"
      // Broken \u escapes: non-hex digits, and a truncated one at
      // end-of-string (used to read past the escape).
      "{\"t\":1,\"ph\":\"i\",\"cat\":\"c\",\"name\":\"bad\\uZZZZesc\","
      "\"track\":\"t\",\"span\":0,\"run\":0,\"args\":{}}\n"
      "{\"t\":1,\"ph\":\"i\",\"cat\":\"c\",\"name\":\"trunc\\u00\","
      "\"track\":\"t\",\"span\":0,\"run\":0,\"args\":{}}\n" +
      good_b);
  const auto events = read_jsonl(in);  // must not throw
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[1].name, "b");
}

TEST(TraceExport, ReadJsonlSurvivesSeededFuzz) {
  // Deterministic fuzz: random byte mutations of a valid line, plus raw
  // printable garbage. read_jsonl must never throw (the checked number /
  // escape parsing) or over-read (the sanitizer CI job watches that);
  // mutated lines are either parsed or skipped.
  util::Rng rng(20260806);
  const std::string valid =
      "{\"t\":1.5,\"ph\":\"b\",\"cat\":\"recover\",\"name\":\"rec.restart\","
      "\"track\":\"rec\",\"span\":42,\"run\":3,\"args\":{\"cell\":\"R_x\","
      "\"esc\\u0061lation\":\"0\"}}";
  for (int round = 0; round < 400; ++round) {
    std::string line = valid;
    const int mutations = static_cast<int>(rng.uniform_int(1, 6));
    for (int m = 0; m < mutations && !line.empty(); ++m) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(line.size()) - 1));
      switch (rng.uniform_int(0, 2)) {
        case 0:  // flip a byte to random printable
          line[pos] = static_cast<char>(rng.uniform_int(32, 126));
          break;
        case 1:  // delete a byte (truncation mid-token, mid-escape, ...)
          line.erase(pos, 1);
          break;
        default:  // duplicate a byte
          line.insert(pos, 1, line[pos]);
          break;
      }
    }
    std::istringstream in(line + "\n");
    const auto events = read_jsonl(in);  // must not throw
    EXPECT_LE(events.size(), 1u);
  }
  // Pure garbage lines too.
  for (int round = 0; round < 100; ++round) {
    std::string line;
    const auto length = rng.uniform_int(0, 120);
    for (std::int64_t i = 0; i < length; ++i) {
      line.push_back(static_cast<char>(rng.uniform_int(32, 126)));
    }
    std::istringstream in(line + "\n");
    EXPECT_LE(read_jsonl(in).size(), 1u);  // must not throw
  }
}

TEST(TraceExport, ReadJsonlDecodesValidUnicodeEscapes) {
  // The checked \u parser still has to accept real escapes, including
  // multi-byte code points, and encode them as UTF-8.
  std::istringstream in(
      "{\"t\":1,\"ph\":\"i\",\"cat\":\"c\",\"name\":\"caf\\u00e9 \\u2713\","
      "\"track\":\"t\",\"span\":0,\"run\":0,\"args\":{}}\n");
  const auto events = read_jsonl(in);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "café \u2713");
}

TEST(TraceExport, ChromeTraceIsWellFormed) {
  TraceRecorder rec;
  const auto span = rec.begin(1.0, "recover", "rec.restart", "rec");
  rec.end(2.0, span);
  rec.instant(2.5, "fault", "fault.cured", "board");
  rec.counter(3.0, "active", 1.0, "board");

  std::ostringstream out;
  rec.write_chrome_trace(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);
  // Track naming metadata for the viewers.
  EXPECT_NE(text.find("thread_name"), std::string::npos);
  // Timestamps are microseconds: t=1.0 s -> 1000000.
  EXPECT_NE(text.find("\"ts\":1000000"), std::string::npos);
  // Balanced braces/brackets is a cheap proxy for "parses".
  EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
            std::count(text.begin(), text.end(), '}'));
  EXPECT_EQ(std::count(text.begin(), text.end(), '['),
            std::count(text.begin(), text.end(), ']'));
}

TEST(TraceGlobals, FreeFunctionsNoOpWithoutRecorder) {
  ASSERT_EQ(recorder(), nullptr);
  // Must not crash or leak state.
  instant(TimePoint::from_seconds(1.0), "fault", "x", "t");
  const auto span = begin_span(TimePoint::from_seconds(1.0), "recover", "x", "t");
  EXPECT_EQ(span, 0u);
  end_span(TimePoint::from_seconds(2.0), span);
  incr("nothing");
  observe("nothing", 1.0);
  next_run();
}

TEST(TraceGlobals, ScopedRecorderInstallsAndRestores) {
  ASSERT_EQ(recorder(), nullptr);
  TraceRecorder rec;
  {
    ScopedRecorder scoped(rec);
    EXPECT_EQ(recorder(), &rec);
    instant(TimePoint::from_seconds(1.0), "fault", "x", "t");
  }
  EXPECT_EQ(recorder(), nullptr);
  EXPECT_EQ(rec.events().size(), 1u);
}

TEST(TraceGlobals, TransformationsEmitTreeEvents) {
  TraceRecorder rec;
  ScopedRecorder scoped(rec);
  auto tree = core::make_tree_i();
  const auto augmented = core::depth_augment(tree, tree.root());
  ASSERT_TRUE(augmented.ok());
  ASSERT_EQ(rec.events().size(), 1u);
  EXPECT_EQ(rec.events()[0].name, "tree.transform");
  EXPECT_EQ(rec.events()[0].arg_or("op"), "depth_augment");
  EXPECT_EQ(rec.count("tree.transforms"), 1u);
}

// --- Phase decomposition on a real crash -> recovery ----------------------

class TracedTrial : public ::testing::Test {
 protected:
  station::TrialResult run(const std::string& component,
                           core::MercuryTree tree) {
    station::TrialSpec spec;
    spec.tree = tree;
    spec.oracle = station::OracleKind::kHeuristic;
    spec.fail_component = component;
    spec.seed = 11;
    ScopedRecorder scoped(rec_);
    return station::run_trial(spec);
  }

  TraceRecorder rec_;
};

TEST_F(TracedTrial, CrashProducesThePipelineEventSequence) {
  run(core::component_names::kSes, core::MercuryTree::kTreeIV);

  // Index of the first event with this name; the pipeline stages must appear
  // in causal order.
  const auto index_of = [&](const std::string& name, EventKind kind) {
    const auto& events = rec_.events();
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (events[i].name == name && events[i].kind == kind) return i;
    }
    ADD_FAILURE() << "missing event " << name;
    return events.size();
  };

  const auto fault = index_of("fault.manifest", EventKind::kInstant);
  const auto suspect = index_of("fd.suspect", EventKind::kInstant);
  const auto report = index_of("fd.report", EventKind::kInstant);
  const auto choice = index_of("oracle.choice", EventKind::kInstant);
  const auto action_begin = index_of("rec.restart", EventKind::kBegin);
  const auto restart_begin = index_of("restart:ses", EventKind::kBegin);
  const auto restart_end = index_of("restart:ses", EventKind::kEnd);
  const auto action_end = index_of("rec.restart", EventKind::kEnd);
  const auto cured = index_of("fault.cured", EventKind::kInstant);

  EXPECT_LT(fault, suspect);
  EXPECT_LT(suspect, report);
  EXPECT_LT(report, choice);
  EXPECT_LT(choice, action_begin);
  EXPECT_LT(action_begin, restart_begin);
  EXPECT_LT(restart_begin, restart_end);
  EXPECT_LT(restart_end, action_end);
  EXPECT_LT(restart_end, cured);

  EXPECT_GE(rec_.count("faults.injected"), 1u);
  EXPECT_GE(rec_.count("faults.cured"), 1u);
  EXPECT_GE(rec_.count("fd.reports"), 1u);
  EXPECT_GE(rec_.count("oracle.choices"), 1u);
  EXPECT_GE(rec_.count("rec.restarts"), 1u);
}

TEST_F(TracedTrial, PhasesTileTheMeasuredRecoveryTime) {
  const auto result = run(core::component_names::kSes, core::MercuryTree::kTreeIV);
  ASSERT_FALSE(result.timed_out);
  ASSERT_FALSE(result.hard_failure);

  const auto rows = recovery_phases(rec_.events());
  ASSERT_EQ(rows.size(), 1u);
  const RecoveryPhases& row = rows[0];
  EXPECT_EQ(row.component, "ses");
  EXPECT_TRUE(row.has_fault);
  EXPECT_FALSE(row.soft);
  EXPECT_EQ(row.escalation_level, 0);
  EXPECT_GT(row.detection(), 0.0);
  EXPECT_GT(row.decision(), 0.0);
  EXPECT_GT(row.execution(), 0.0);

  // The three phases tile fault -> cure, so they sum to end_to_end exactly.
  EXPECT_NEAR(row.detection() + row.decision() + row.execution(),
              row.end_to_end(), 1e-12);

  // And the trace-derived end-to-end matches the harness's measurement
  // (well inside the 1% acceptance tolerance).
  const double measured = result.recovery.to_seconds();
  EXPECT_NEAR(row.end_to_end(), measured, 0.01 * measured);
}

TEST_F(TracedTrial, PhaseTableSummarizesComponents) {
  run(core::component_names::kSes, core::MercuryTree::kTreeIV);
  const std::string table = phase_table(recovery_phases(rec_.events()));
  EXPECT_NE(table.find("ses"), std::string::npos);
  EXPECT_NE(table.find("(all)"), std::string::npos);
}

TEST_F(TracedTrial, JsonlRoundTripPreservesPhases) {
  const auto result = run(core::component_names::kSes, core::MercuryTree::kTreeIV);
  std::ostringstream out;
  rec_.write_jsonl(out);
  std::istringstream in(out.str());
  const auto rows = recovery_phases(read_jsonl(in));
  ASSERT_EQ(rows.size(), 1u);
  const double measured = result.recovery.to_seconds();
  EXPECT_NEAR(rows[0].end_to_end(), measured, 0.01 * measured);
}

// --- Compact events: interned labels and typed args ----------------------
// Events store labels as intern-pool handles and numeric args as numbers;
// only the exporters format them. These pin each format to its reference
// (std::to_string, util::format_fixed, printf "%.9g").

/// The exported (unquoted) text of a single recorded arg.
std::string recorded_value(Arg arg) {
  TraceRecorder rec;
  rec.instant(0.0, "c", "n", "t", {arg});
  return rec.events()[0].args[0].value();
}

TEST(TraceArgFormat, IntegersFormatLikeToString) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{42}, std::uint64_t{1000000},
        std::numeric_limits<std::uint64_t>::max()}) {
    EXPECT_EQ(recorded_value({"k", v}), std::to_string(v));
  }
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{-1}, std::int64_t{7}, std::int64_t{-123456789},
        std::numeric_limits<std::int64_t>::min(), std::numeric_limits<std::int64_t>::max()}) {
    EXPECT_EQ(recorded_value({"k", v}), std::to_string(v));
  }
  for (const int v : {0, 3, -3, std::numeric_limits<int>::max(), std::numeric_limits<int>::min()}) {
    EXPECT_EQ(recorded_value({"k", v}), std::to_string(v));
  }
  EXPECT_EQ(recorded_value({"k", std::size_t{17}}), std::to_string(std::size_t{17}));
}

TEST(TraceArgFormat, FixedFormatsLikeFormatFixed) {
  std::vector<double> values = {0.0,     -0.0,     0.5,        1.5,       2.5,
                                -2.5,    0.125,    0.0625,     1.0005,    2.675,
                                0.05,    -0.05,    0.0000005,  -0.0000005, 1e-7,
                                123456789.123456789, -987654.3210987,
                                1e15,    1e21,     -1e22,      1e300,     -1e300,
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()};
  util::Rng rng(2024);
  for (int i = 0; i < 500; ++i) {
    values.push_back(rng.uniform(-1e6, 1e6));
    values.push_back(rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-9.0, 9.0)));
  }
  for (const int precision : {0, 1, 3, 6}) {
    for (const double v : values) {
      EXPECT_EQ(recorded_value({"k", Fixed{v, precision}}), util::format_fixed(v, precision))
          << "value " << v << " precision " << precision;
    }
  }
}

TEST(TraceArgFormat, CounterValuesFormatLikePercentNineG) {
  std::vector<double> values = {0.0,    -0.0,   1.0,        3.0,      0.1,
                                1.0 / 3, -2.5,   123456789.0, 1234567890.0,
                                1e-5,   1e-300, 6.02214076e23,
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::infinity()};
  util::Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    values.push_back(rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-12.0, 12.0)));
  }
  for (const double v : values) {
    TraceRecorder rec;
    rec.counter(0.0, "active", v, "board");
    char expected[64];
    std::snprintf(expected, sizeof expected, "%.9g", v);
    EXPECT_EQ(rec.events()[0].arg_or("value"), expected) << v;
  }
}

TEST(TraceArgFormat, TypedReadsSeeTheEmittedNumbers) {
  TraceRecorder rec;
  rec.instant(0.0, "c", "n", "t",
              {{"id", std::uint64_t{12345678901234}}, {"recovery", Fixed{21.1234567, 6}},
               {"label", "ses"}, {"digits", "77"}});
  const TraceEvent& event = rec.events()[0];
  std::uint64_t id = 0;
  ASSERT_TRUE(event.find_arg(Label("id"))->to_u64(id));
  EXPECT_EQ(id, 12345678901234u);
  double recovery = 0.0;
  ASSERT_TRUE(event.find_arg(Label("recovery"))->to_double(recovery));
  EXPECT_EQ(recovery, 21.1234567);  // full precision, not the 6-digit text
  EXPECT_EQ(event.text_arg(Label("label")), Label("ses"));
  EXPECT_TRUE(event.text_arg(Label("id")).empty());  // typed, not a string
  EXPECT_TRUE(event.text_arg(Label("missing")).empty());
  // String values still read as numbers (traces re-read from JSONL).
  std::uint64_t digits = 0;
  ASSERT_TRUE(event.find_arg(Label("digits"))->to_u64(digits));
  EXPECT_EQ(digits, 77u);
  EXPECT_FALSE(event.find_arg(Label("label"))->to_u64(digits));
  EXPECT_EQ(event.find_arg(Label("missing")), nullptr);
}

TEST(TraceLabel, InternsOnceAndComparesByHandle) {
  const Label a("rec.restart");
  const Label b(std::string("rec.") + "restart");
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, Label("rec.soft"));
  EXPECT_EQ(a, "rec.restart");
  EXPECT_EQ(Label().id(), 0u);
  EXPECT_TRUE(Label("").empty());
  // Converts like the std::string it replaced.
  const std::string& text = a;
  const std::string_view view = a;
  EXPECT_EQ(text, "rec.restart");
  EXPECT_EQ(view, "rec.restart");
  EXPECT_EQ(Label("tab\there \"q\"").escaped(), "tab\\there \\\"q\\\"");
}

TEST(TraceEventCopy, CopiesOwnTheirArgsAndOutliveTheRecorder) {
  std::vector<TraceEvent> copies;
  {
    TraceRecorder rec;
    rec.instant(1.0, "fault", "fault.manifest", "board",
                {{"manifest", "ses"}, {"id", std::uint64_t{9}}});
    copies = rec.events().to_vector();
    TraceEvent assigned;
    assigned = rec.events()[0];
    copies.push_back(assigned);
  }
  ASSERT_EQ(copies.size(), 2u);
  for (const TraceEvent& event : copies) {
    EXPECT_EQ(event.name, "fault.manifest");
    EXPECT_EQ(event.arg_or("manifest"), "ses");
    EXPECT_EQ(event.arg_or("id"), "9");
  }
}

TEST(TraceExport, GoldenJsonlRereadAndRewrittenIsByteIdentical) {
  const std::string path = std::string(MERCURY_TEST_DATA_DIR) + "/golden_batch.trace.jsonl";
  std::ifstream file(path, std::ios::binary);
  std::ostringstream golden;
  golden << file.rdbuf();
  ASSERT_FALSE(golden.str().empty()) << path;
  std::istringstream in(golden.str());
  const std::vector<TraceEvent> events = read_jsonl(in);
  ASSERT_FALSE(events.empty());
  std::ostringstream rewritten;
  write_jsonl(events, rewritten);
  EXPECT_EQ(rewritten.str(), golden.str());
}

/// One synthetic trial whose labels are private to `tag` (so recorders
/// merged together carry different label sets).
void record_trial(TraceRecorder& rec, const std::string& tag, int index) {
  rec.next_run();
  rec.instant(0.0, "sim", "trial.start", "trial",
              {{"seed", index}, {"component", "comp-" + tag}});
  const std::uint64_t span =
      rec.begin(0.5, "recover", "rec.restart", "rec-" + tag,
                {{"cell", "R_" + tag}, {"escalation", index % 3}});
  rec.instant(0.75, "fault", "fault." + tag, "board",
              {{"id", std::uint64_t(index)}, {"delay_s", Fixed{0.25 * index, 3}}});
  rec.counter(0.8, "gauge-" + tag, 1.0 / (index + 1), "board");
  rec.end(1.0 + index, span, {{"outcome", "ready-" + tag}});
  rec.incr("restarts." + tag);
  rec.observe("recovery_s", 1.0 + index);
}

TEST(TraceRecorder, MergesOfDifferentLabelSetsMatchSerialRecording) {
  const std::vector<std::string> tags = {"alpha", "beta", "gamma", "alpha", "delta"};
  TraceRecorder serial;
  for (std::size_t i = 0; i < tags.size(); ++i) {
    record_trial(serial, tags[i], static_cast<int>(i));
  }
  TraceRecorder copied;
  TraceRecorder spliced;
  for (std::size_t i = 0; i < tags.size(); ++i) {
    TraceRecorder a;
    record_trial(a, tags[i], static_cast<int>(i));
    copied.merge_from(a);
    TraceRecorder b;
    record_trial(b, tags[i], static_cast<int>(i));
    spliced.merge_from(std::move(b));
  }
  const auto jsonl = [](const TraceRecorder& rec) {
    std::ostringstream out;
    rec.write_jsonl(out);
    return out.str();
  };
  const auto chrome = [](const TraceRecorder& rec) {
    std::ostringstream out;
    rec.write_chrome_trace(out);
    return out.str();
  };
  EXPECT_EQ(jsonl(copied), jsonl(serial));
  EXPECT_EQ(jsonl(spliced), jsonl(serial));
  EXPECT_EQ(chrome(copied), chrome(serial));
  EXPECT_EQ(chrome(spliced), chrome(serial));
  EXPECT_EQ(copied.counters(), serial.counters());
  EXPECT_EQ(spliced.counters(), serial.counters());
}

/// Record `days` of the Table-1 station (fused fedrcom, Table-1 fault
/// rates, no repair loop) and return the recorder's event count.
std::size_t record_table1_days(double days) {
  station::StationConfig config;
  config.split_fedrcom = false;
  config.enable_domain_behavior = false;
  station::InjectorConfig injector_config;
  injector_config.suppress_double_faults = false;
  injector_config.fedr_weibull_shape = 1.0;
  TraceRecorder rec;
  ScopedRecorder scope(rec);
  sim::Simulator sim(17);
  station::Station station(sim, config);
  // The vocabulary a run may legitimately add: every component can be a
  // fault's manifest or cure set, however rare its faults are.
  for (const std::string& name : station.component_names()) Label{name};
  station::FaultInjector injector(station, injector_config);
  station.boot_instant();
  injector.start();
  sim.run_for(util::Duration::days(days));
  return rec.events().size();
}

TEST(TraceFootprint, InternPoolDoesNotGrowWithEventCount) {
  // A value interned per event (a fault id as a string, say) would grow the
  // process-wide pool without bound; the pool must depend only on the set
  // of distinct labels, which two simulated years do not widen.
  const std::size_t short_events = record_table1_days(30.0);
  const std::size_t after_short = interned_label_count();
  const std::size_t long_events = record_table1_days(730.0);
  const std::size_t after_long = interned_label_count();
  EXPECT_GT(long_events, 10 * short_events);
  EXPECT_EQ(after_long, after_short);
}

}  // namespace
}  // namespace mercury::obs

// TraceChecker (src/obs/trace_check.h): hand-built illegal traces must be
// flagged, and golden traces from real recovered trials must pass clean —
// including after a JSONL round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/mercury_trees.h"
#include "obs/trace.h"
#include "obs/trace_check.h"
#include "station/experiment.h"

namespace mercury::obs {
namespace {

TraceEvent event(double t, EventKind kind, std::string category,
                 std::string name, std::string track, std::uint64_t run,
                 std::uint64_t span = 0, std::vector<TraceArg> args = {}) {
  TraceEvent e;
  e.t = t;
  e.kind = kind;
  e.category = Label(category);
  e.name = Label(name);
  e.track = Label(track);
  e.run = run;
  e.span = span;
  e.args = std::move(args);
  return e;
}

/// Count issues of one invariant kind.
int count(const std::vector<TraceIssue>& issues, const std::string& invariant) {
  int n = 0;
  for (const TraceIssue& issue : issues) {
    if (issue.invariant == invariant) ++n;
  }
  return n;
}

// --- Hand-built bad traces -------------------------------------------------

TEST(TraceChecker, FlagsOverlappingRestartsOfOneComponent) {
  const std::vector<TraceEvent> events = {
      event(1.0, EventKind::kBegin, "restart", "restart:ses", "pm", 1, 1,
            {{"component", "ses"}, {"epoch", "1"}}),
      // Second owner starts while span 1 is still in flight: two concurrent
      // restarts of the same component.
      event(1.5, EventKind::kBegin, "restart", "restart:ses", "pm", 1, 2,
            {{"component", "ses"}, {"epoch", "2"}}),
      event(3.0, EventKind::kEnd, "restart", "restart:ses", "pm", 1, 2),
  };
  const auto issues = check_trace(events);
  EXPECT_EQ(count(issues, "overlapping-restart"), 1) << describe(issues);
  // The same schedule on different components is legal (group restarts).
  const std::vector<TraceEvent> group = {
      event(1.0, EventKind::kBegin, "restart", "restart:ses", "pm", 1, 1,
            {{"component", "ses"}}),
      event(1.1, EventKind::kBegin, "restart", "restart:str", "pm", 1, 2,
            {{"component", "str"}}),
      event(3.0, EventKind::kEnd, "restart", "restart:ses", "pm", 1, 1),
      event(3.1, EventKind::kEnd, "restart", "restart:str", "pm", 1, 2),
  };
  EXPECT_TRUE(check_trace(group).empty()) << describe(check_trace(group));
}

TEST(TraceChecker, FlagsEpochRegression) {
  const std::vector<TraceEvent> events = {
      event(1.0, EventKind::kBegin, "restart", "restart:rtu", "pm", 1, 1,
            {{"component", "rtu"}, {"epoch", "2"}}),
      event(2.0, EventKind::kEnd, "restart", "restart:rtu", "pm", 1, 1),
      // A stale attempt runs after its successor: epoch does not advance.
      event(3.0, EventKind::kBegin, "restart", "restart:rtu", "pm", 1, 2,
            {{"component", "rtu"}, {"epoch", "2"}}),
      event(4.0, EventKind::kEnd, "restart", "restart:rtu", "pm", 1, 2),
  };
  const auto issues = check_trace(events);
  EXPECT_EQ(count(issues, "epoch-regression"), 1) << describe(issues);
}

// --- Conflicting concurrent actions (ISSUE 8) --------------------------------

TEST(TraceChecker, FlagsConcurrentAncestorDescendantActions) {
  const std::vector<TraceEvent> events = {
      event(1.0, EventKind::kBegin, "recover", "rec.restart", "rec", 1, 1,
            {{"component", "fedr"}, {"cell", "R_fedr"}, {"group", "fedr"}}),
      // The root action begins while the leaf action is still in flight and
      // its group contains fedr: an ancestor/descendant pair restarting
      // concurrently, which the DAG scheduler must never allow.
      event(1.5, EventKind::kBegin, "recover", "rec.restart", "rec", 1, 2,
            {{"component", "pbcom"},
             {"cell", "R_mercury"},
             {"group", "fedr,mbus,pbcom,rtu,ses,str"}}),
      event(3.0, EventKind::kEnd, "recover", "rec.restart", "rec", 1, 1),
      event(4.0, EventKind::kEnd, "recover", "rec.restart", "rec", 1, 2),
  };
  const auto issues = check_trace(events);
  EXPECT_EQ(count(issues, "conflicting-restart"), 1) << describe(issues);
}

TEST(TraceChecker, DisjointSiblingActionOverlapIsLegal) {
  // Two sibling cells in flight at once — exactly what DAG dispatch
  // produces — must pass clean regardless of interleaving.
  const std::vector<TraceEvent> events = {
      event(1.0, EventKind::kBegin, "recover", "rec.restart", "rec", 1, 1,
            {{"component", "rtu"}, {"cell", "R_rtu"}, {"group", "rtu"}}),
      event(1.2, EventKind::kBegin, "recover", "rec.restart", "rec", 1, 2,
            {{"component", "pbcom"},
             {"cell", "R_[fedr,pbcom]"},
             {"group", "fedr,pbcom"}}),
      event(3.0, EventKind::kEnd, "recover", "rec.restart", "rec", 1, 2),
      event(3.5, EventKind::kEnd, "recover", "rec.restart", "rec", 1, 1),
  };
  EXPECT_TRUE(check_trace(events).empty()) << describe(check_trace(events));
}

TEST(TraceChecker, ClosedActionSpanRetiresItsGroup) {
  // Sequential ancestor/descendant actions are the normal escalation shape:
  // the first span's end retires its group before the second begins. And
  // spans in different runs never conflict — trials are independent.
  const std::vector<TraceEvent> events = {
      event(1.0, EventKind::kBegin, "recover", "rec.restart", "rec", 1, 1,
            {{"component", "fedr"}, {"cell", "R_fedr"}, {"group", "fedr"}}),
      event(2.0, EventKind::kEnd, "recover", "rec.restart", "rec", 1, 1),
      event(2.5, EventKind::kBegin, "recover", "rec.restart", "rec", 1, 2,
            {{"component", "fedr"},
             {"cell", "R_[fedr,pbcom]"},
             {"group", "fedr,pbcom"}}),
      // Run 2 opens an overlapping group while run 1's span 2 is in flight:
      // legal, conflicts are per-run.
      event(3.0, EventKind::kBegin, "recover", "rec.restart", "rec", 2, 3,
            {{"component", "fedr"}, {"cell", "R_fedr"}, {"group", "fedr"}}),
      event(4.0, EventKind::kEnd, "recover", "rec.restart", "rec", 1, 2),
      event(4.5, EventKind::kEnd, "recover", "rec.restart", "rec", 2, 3),
  };
  EXPECT_TRUE(check_trace(events).empty()) << describe(check_trace(events));
}

// --- Phantom goodput (ISSUE 9) ----------------------------------------------

/// A request span against `target` over [begin, end] with the given outcome
/// and mode, as the workload driver emits it.
std::vector<TraceEvent> request_span(double begin, double end,
                                     const std::string& target,
                                     const std::string& outcome,
                                     const std::string& mode,
                                     std::uint64_t span) {
  return {
      event(begin, EventKind::kBegin, "traffic", "traffic.request", "cli.0", 1,
            span, {{"target", target}, {"session", "cli.0"}, {"mode", mode}}),
      event(end, EventKind::kEnd, "traffic", "traffic.request", "cli.0", 1,
            span, {{"outcome", outcome}, {"attempts", "1"}}),
  };
}

TEST(TraceChecker, FlagsRequestServedDuringTargetRestart) {
  // The ses restart opens at 1.0 and is still in flight when a request that
  // began at 2.0 claims to have been served at 2.2: the endpoint was down
  // for the request's whole lifetime, so the goodput is phantom.
  std::vector<TraceEvent> events = {
      event(1.0, EventKind::kBegin, "restart", "restart:ses", "pm", 1, 1,
            {{"component", "ses"}, {"epoch", "1"}}),
  };
  for (auto& e : request_span(2.0, 2.2, "ses", "served", "serial", 2)) {
    events.push_back(e);
  }
  events.push_back(
      event(5.0, EventKind::kEnd, "restart", "restart:ses", "pm", 1, 1));
  const auto issues = check_trace(events);
  EXPECT_EQ(count(issues, "phantom-goodput"), 1) << describe(issues);

  // The same shape with a lost outcome is the expected behaviour.
  std::vector<TraceEvent> lost = {
      event(1.0, EventKind::kBegin, "restart", "restart:ses", "pm", 1, 1,
            {{"component", "ses"}, {"epoch", "1"}}),
  };
  for (auto& e : request_span(2.0, 2.2, "ses", "lost", "serial", 2)) {
    lost.push_back(e);
  }
  lost.push_back(
      event(5.0, EventKind::kEnd, "restart", "restart:ses", "pm", 1, 1));
  EXPECT_TRUE(check_trace(lost).empty()) << describe(check_trace(lost));
}

TEST(TraceChecker, OnDemandServesDuringRestartLegally) {
  // In on-demand mode a request legally touches a lazy cell, promotes its
  // restart, and is answered by the revived endpoint inside the same span.
  std::vector<TraceEvent> events = {
      event(1.0, EventKind::kBegin, "restart", "restart:ses", "pm", 1, 1,
            {{"component", "ses"}, {"epoch", "1"}}),
  };
  for (auto& e : request_span(2.0, 6.5, "ses", "served", "ondemand", 2)) {
    events.push_back(e);
  }
  events.push_back(
      event(6.0, EventKind::kEnd, "restart", "restart:ses", "pm", 1, 1));
  EXPECT_TRUE(check_trace(events).empty()) << describe(check_trace(events));
}

TEST(TraceChecker, RequestStraddlingRestartStartIsLegal) {
  // A restart that opens after the request began does not retroactively
  // condemn it: a pong may already have been in flight, and a served retry
  // after the restart closed is real goodput.
  std::vector<TraceEvent> events;
  for (auto& e : request_span(1.0, 6.5, "rtu", "served", "serial", 10)) {
    events.push_back(e);
  }
  events.insert(events.begin() + 1,
                event(1.5, EventKind::kBegin, "restart", "restart:rtu", "pm", 1,
                      11, {{"component", "rtu"}, {"epoch", "1"}}));
  events.insert(events.begin() + 2,
                event(6.0, EventKind::kEnd, "restart", "restart:rtu", "pm", 1,
                      11));
  EXPECT_TRUE(check_trace(events).empty()) << describe(check_trace(events));

  // And a request served against a component whose restart already closed
  // before the request ended is likewise clean.
  std::vector<TraceEvent> after = {
      event(1.0, EventKind::kBegin, "restart", "restart:rtu", "pm", 1, 1,
            {{"component", "rtu"}, {"epoch", "1"}}),
      event(2.0, EventKind::kEnd, "restart", "restart:rtu", "pm", 1, 1),
  };
  for (auto& e : request_span(3.0, 3.2, "rtu", "served", "serial", 2)) {
    after.push_back(e);
  }
  EXPECT_TRUE(check_trace(after).empty()) << describe(check_trace(after));
}

/// A minimal complete recovered harness trial; `reported` is the recovery
/// the harness claims. With the chain spanning [10, 15] the truthful value
/// is 5 seconds.
std::vector<TraceEvent> recovered_trial(const std::string& reported) {
  return {
      event(0.0, EventKind::kInstant, "sim", "trial.start", "trial", 1),
      event(10.0, EventKind::kInstant, "fault", "fault.manifest", "board", 1, 0,
            {{"manifest", "ses"}, {"id", "1"}}),
      event(11.0, EventKind::kInstant, "detect", "fd.report", "fd", 1, 0,
            {{"component", "ses"}}),
      event(11.5, EventKind::kBegin, "recover", "rec.restart", "rec", 1, 1,
            {{"component", "ses"}, {"cell", "R_ses"}}),
      event(12.0, EventKind::kBegin, "restart", "restart:ses", "pm", 1, 2,
            {{"component", "ses"}, {"epoch", "1"}}),
      event(14.5, EventKind::kEnd, "restart", "restart:ses", "pm", 1, 2),
      event(14.5, EventKind::kInstant, "fault", "fault.cured", "board", 1, 0,
            {{"manifest", "ses"}, {"id", "1"}}),
      event(15.0, EventKind::kEnd, "recover", "rec.restart", "rec", 1, 1),
      event(15.0, EventKind::kInstant, "sim", "trial.recovered", "trial", 1, 0,
            {{"recovery", reported}}),
  };
}

TEST(TraceChecker, FlagsPhaseSumMismatch) {
  // Harness claims 3 s but the traced chain spans 5 s: the decomposition
  // no longer accounts for the measured recovery.
  const auto issues = check_trace(recovered_trial("3.000000"));
  EXPECT_GE(count(issues, "phase-sum"), 1) << describe(issues);

  const auto clean = check_trace(recovered_trial("5.000000"));
  EXPECT_TRUE(clean.empty()) << describe(clean);
}

TEST(TraceChecker, FlagsLostKill) {
  // A kill that simply evaporates: trial starts, fault manifests, nothing
  // ever resolves it.
  const std::vector<TraceEvent> lost = {
      event(0.0, EventKind::kInstant, "sim", "trial.start", "trial", 1),
      event(10.0, EventKind::kInstant, "fault", "fault.manifest", "board", 1, 0,
            {{"manifest", "rtu"}, {"id", "7"}}),
  };
  auto issues = check_trace(lost);
  EXPECT_EQ(count(issues, "lost-kill"), 1) << describe(issues);

  // Benches that deliberately drive trials into timeouts may opt out.
  CheckOptions tolerant;
  tolerant.require_resolution = false;
  EXPECT_TRUE(check_trace(lost, tolerant).empty());

  // A recovered trial whose injected fault was never individually cured is
  // also a lost kill: the harness saw readiness but the board still holds
  // the fault.
  std::vector<TraceEvent> uncured = recovered_trial("5.000000");
  uncured.erase(uncured.begin() + 6);  // drop fault.cured
  issues = check_trace(uncured);
  EXPECT_EQ(count(issues, "lost-kill"), 1) << describe(issues);
}

TEST(TraceChecker, FlagsRestartSpanOpenAfterRecovery) {
  std::vector<TraceEvent> events = recovered_trial("5.000000");
  events.erase(events.begin() + 5);  // drop the restart span's end
  const auto issues = check_trace(events);
  EXPECT_EQ(count(issues, "open-restart"), 1) << describe(issues);
}

TEST(TraceChecker, RunsWithoutTrialStartAreExemptFromHarnessInvariants) {
  // A background injector campaign (bench_table1's 2-year run): faults
  // manifest with no recovery machinery attached. Legal.
  const std::vector<TraceEvent> campaign = {
      event(100.0, EventKind::kInstant, "fault", "fault.manifest", "board", 0,
            0, {{"manifest", "fedrcom"}, {"id", "3"}}),
      event(900.0, EventKind::kInstant, "fault", "fault.manifest", "board", 0,
            0, {{"manifest", "rtu"}, {"id", "4"}}),
  };
  EXPECT_TRUE(check_trace(campaign).empty());
}

TEST(TraceChecker, ManyUncuredFaultsWithoutTrialStartRaiseNothing) {
  // bench_table1's shape at scale: 10k never-cured faults in a run with no
  // trial.start, then a clean harness trial in the next run.
  std::vector<TraceEvent> events;
  for (std::uint64_t id = 1; id <= 10000; ++id) {
    events.push_back(event(static_cast<double>(id), EventKind::kInstant,
                           "fault", "fault.manifest", "board", 0, 0,
                           {{"manifest", "fedrcom"}, {"id", std::to_string(id)}}));
  }
  for (TraceEvent& e : recovered_trial("5.000000")) events.push_back(e);
  const auto issues = check_trace(events);
  EXPECT_TRUE(issues.empty()) << describe(issues);
}

TEST(TraceChecker, UncuredFaultOfRecoveredTrialKeepsItsLostKillReport) {
  std::vector<TraceEvent> uncured = recovered_trial("5.000000");
  uncured.erase(uncured.begin() + 6);  // drop fault.cured
  // Also with trial.start after the fault: the run is a trial either way.
  std::vector<TraceEvent> late_start = uncured;
  std::rotate(late_start.begin(), late_start.begin() + 1,
              late_start.begin() + 2);
  ASSERT_EQ(late_start[1].name, "trial.start");
  for (const auto& events : {uncured, late_start}) {
    const auto issues = check_trace(events);
    ASSERT_EQ(issues.size(), 1u) << describe(issues);
    EXPECT_EQ(issues[0].invariant, "lost-kill");
    EXPECT_EQ(issues[0].run, 1u);
    EXPECT_EQ(issues[0].component, "ses");
    EXPECT_EQ(issues[0].t, 10.0);
    EXPECT_EQ(issues[0].detail,
              "fault id 1 never cured although the trial recovered");
  }
}

TEST(TraceChecker, UnresolvedTrialNamesItsLowestOpenFault) {
  const std::vector<TraceEvent> events = {
      event(0.0, EventKind::kInstant, "sim", "trial.start", "trial", 1),
      event(10.0, EventKind::kInstant, "fault", "fault.manifest", "board", 1, 0,
            {{"manifest", "rtu"}, {"id", "9"}}),
      event(11.0, EventKind::kInstant, "fault", "fault.manifest", "board", 1, 0,
            {{"manifest", "ses"}, {"id", "3"}}),
      event(12.0, EventKind::kInstant, "fault", "fault.manifest", "board", 1, 0,
            {{"manifest", "str"}, {"id", "5"}}),
      event(13.0, EventKind::kInstant, "fault", "fault.cured", "board", 1, 0,
            {{"manifest", "ses"}, {"id", "3"}}),
  };
  const auto issues = check_trace(events);
  ASSERT_EQ(issues.size(), 1u) << describe(issues);
  EXPECT_EQ(issues[0].invariant, "lost-kill");
  EXPECT_EQ(issues[0].component, "str");
  EXPECT_EQ(issues[0].t, 10.0);
  EXPECT_EQ(issues[0].detail, "trial neither recovered nor parked by end of trace");
}

// --- Golden traces from real trials ----------------------------------------

station::TrialSpec quick_spec(const std::string& component) {
  station::TrialSpec spec;
  spec.tree = core::MercuryTree::kTreeIV;
  spec.oracle = station::OracleKind::kPerfect;
  spec.fail_component = component;
  spec.seed = 11;
  return spec;
}

TEST(TraceChecker, GoldenTracesFromRecoveredTrialsPassClean) {
  for (const std::string component : {"ses", "rtu", "fedr"}) {
    const station::TracedTrial traced = station::run_trial_traced(
        quick_spec(component));
    ASSERT_FALSE(traced.result.timed_out);
    ASSERT_FALSE(traced.events.empty());
    const auto issues = check_trace(traced.events);
    EXPECT_TRUE(issues.empty()) << component << ":\n" << describe(issues);
  }
}

TEST(TraceChecker, GoldenEscalationAndSoftTracesPassClean) {
  // Heuristic oracle: leaf-first with escalation chains (multi-action runs).
  station::TrialSpec heuristic = quick_spec("fedr");
  heuristic.oracle = station::OracleKind::kHeuristic;
  const auto chain = station::run_trial_traced(heuristic);
  auto issues = check_trace(chain.events);
  EXPECT_TRUE(issues.empty()) << describe(issues);

  // Soft recovery (§7): rec.soft actions instead of restarts.
  station::TrialSpec soft = quick_spec("ses");
  soft.enable_soft_recovery = true;
  soft.mode = station::FailureMode::kStaleAttachment;
  const auto cured = station::run_trial_traced(soft);
  issues = check_trace(cured.events);
  EXPECT_TRUE(issues.empty()) << describe(issues);
}

TEST(TraceChecker, GoldenDagParallelTracePassesClean) {
  // A real multi-fault DAG-parallel trial: disjoint cells restart
  // concurrently, and the trace — including its overlapping rec.restart
  // spans — satisfies every invariant.
  station::TrialSpec spec = quick_spec("pbcom");
  spec.dispatch = core::DispatchMode::kDag;
  spec.extra_faults.push_back({"rtu", util::Duration::millis(50.0)});
  const station::TracedTrial traced = station::run_trial_traced(spec);
  ASSERT_FALSE(traced.result.timed_out);
  EXPECT_GE(traced.result.max_concurrent_restarts, 2);
  const auto issues = check_trace(traced.events);
  EXPECT_TRUE(issues.empty()) << describe(issues);
}

TEST(TraceChecker, GoldenTraceSurvivesJsonlRoundTrip) {
  const station::TracedTrial traced =
      station::run_trial_traced(quick_spec("str"));
  std::stringstream buffer;
  write_jsonl(traced.events, buffer);
  const std::vector<TraceEvent> reread = read_jsonl(buffer);
  ASSERT_EQ(reread.size(), traced.events.size());
  const auto issues = check_trace(reread);
  EXPECT_TRUE(issues.empty()) << describe(issues);
}

TEST(TraceChecker, DescribeNamesInvariantRunAndComponent) {
  const auto issues = check_trace(recovered_trial("3.000000"));
  ASSERT_FALSE(issues.empty());
  const std::string text = describe(issues);
  EXPECT_NE(text.find("phase-sum"), std::string::npos);
  EXPECT_NE(text.find("run 1"), std::string::npos);
  EXPECT_NE(text.find("ses"), std::string::npos);
}

}  // namespace
}  // namespace mercury::obs

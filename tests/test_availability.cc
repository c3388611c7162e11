// Unit tests: the §3.2 availability algebra and the analytic recovery model.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "core/availability.h"
#include "core/mercury_trees.h"

namespace mercury::core {
namespace {

namespace names = component_names;

// --- §3.2 bounds -----------------------------------------------------------------

TEST(Bounds, GroupMttfIsMinOfMembers) {
  EXPECT_DOUBLE_EQ(group_mttf_upper_bound({100.0, 5.0, 50.0}), 5.0);
  EXPECT_TRUE(std::isinf(group_mttf_upper_bound({})));
}

TEST(Bounds, GroupMttrIsMaxOfMembers) {
  EXPECT_DOUBLE_EQ(group_mttr_lower_bound({3.0, 21.0, 5.0}), 21.0);
  EXPECT_DOUBLE_EQ(group_mttr_lower_bound({}), 0.0);
}

TEST(Bounds, ExpectedGroupMttrWeightsByF) {
  // §4.1: MTTR_G^II <= sum f_ci MTTR_ci. With f concentrated on the cheap
  // component the expectation collapses toward its MTTR.
  EXPECT_DOUBLE_EQ(expected_group_mttr({0.5, 0.5}, {4.0, 20.0}), 12.0);
  EXPECT_DOUBLE_EQ(expected_group_mttr({1.0, 0.0}, {4.0, 20.0}), 4.0);
  // The §4.1 inequality: expected <= max whenever f sums to 1.
  EXPECT_LE(expected_group_mttr({0.9, 0.1}, {4.0, 20.0}),
            group_mttr_lower_bound({4.0, 20.0}) + 1e-12);
}

TEST(Availability, RatioAndDowntime) {
  EXPECT_DOUBLE_EQ(availability(99.0, 1.0), 0.99);
  EXPECT_DOUBLE_EQ(availability(0.0, 0.0), 1.0);
  EXPECT_NEAR(downtime_fraction(3600.0, 36.0), 36.0 / 3636.0, 1e-12);
}

// --- Analytic model vs the paper's Table 4 ------------------------------------------

/// A paper cell reproduced analytically: (tree, failure, p_low) -> seconds.
struct Case {
  MercuryTree tree;
  const char* component;
  bool joint;
  double p_low;
  double paper_value;

  // Names each instantiation after its paper cell (same scheme as the
  // simulated Table4Sweep). Without it gtest prints the raw struct bytes,
  // which embed the `component` pointer and padding and so change per run.
  friend std::ostream& operator<<(std::ostream& os, const Case& c) {
    return os << "tree" << to_string(c.tree) << "_"
              << (c.p_low > 0.0 ? "faulty" : "perfect") << "_" << c.component;
  }
};

class AnalyticVsPaper : public ::testing::TestWithParam<Case> {};

TEST_P(AnalyticVsPaper, PredictionNearPaperValue) {
  const Case c = GetParam();
  const SystemModel model =
      mercury_system_model(uses_split_fedrcom(c.tree), c.p_low);
  FailureClassModel failure;
  failure.manifest = c.component;
  failure.cure_set = c.joint ? std::vector<std::string>{names::kFedr, c.component}
                             : std::vector<std::string>{c.component};
  const double predicted =
      predicted_recovery_time(make_mercury_tree(c.tree), model, failure);
  // The analytic model must land within 10% of the paper's measurement.
  EXPECT_NEAR(predicted, c.paper_value, 0.10 * c.paper_value)
      << to_string(c.tree) << " " << c.component;
}

INSTANTIATE_TEST_SUITE_P(
    Table4, AnalyticVsPaper,
    ::testing::Values(
        Case{MercuryTree::kTreeI, "rtu", false, 0.0, 24.75},
        Case{MercuryTree::kTreeI, "ses", false, 0.0, 24.75},
        Case{MercuryTree::kTreeI, "fedrcom", false, 0.0, 24.75},
        Case{MercuryTree::kTreeII, "mbus", false, 0.0, 5.73},
        Case{MercuryTree::kTreeII, "ses", false, 0.0, 9.50},
        Case{MercuryTree::kTreeII, "str", false, 0.0, 9.76},
        Case{MercuryTree::kTreeII, "rtu", false, 0.0, 5.59},
        Case{MercuryTree::kTreeII, "fedrcom", false, 0.0, 20.93},
        Case{MercuryTree::kTreeIII, "fedr", false, 0.0, 5.76},
        Case{MercuryTree::kTreeIII, "pbcom", false, 0.0, 21.24},
        Case{MercuryTree::kTreeIII, "ses", false, 0.0, 9.50},
        Case{MercuryTree::kTreeIV, "ses", false, 0.0, 6.25},
        Case{MercuryTree::kTreeIV, "str", false, 0.0, 6.11},
        Case{MercuryTree::kTreeIV, "pbcom", true, 0.0, 21.24},
        Case{MercuryTree::kTreeIV, "pbcom", true, 0.3, 29.19},
        Case{MercuryTree::kTreeV, "pbcom", true, 0.3, 21.63}));

TEST(AnalyticModel, TreeOrderingMatchesPaper) {
  // System-level MTTR must strictly improve down the published sequence
  // (with the faulty oracle where the paper uses one).
  const SystemModel fused = mercury_system_model(false);
  const SystemModel split = mercury_system_model(true);
  const SystemModel split_faulty = mercury_system_model(true, 0.3);

  const double tree_i = predicted_system_mttr(make_tree_i(), fused);
  const double tree_ii = predicted_system_mttr(make_tree_ii(), fused);
  const double tree_iii = predicted_system_mttr(make_tree_iii(), split);
  const double tree_iv = predicted_system_mttr(make_tree_iv(), split);
  const double tree_iv_faulty =
      predicted_system_mttr(make_tree_iv(), split_faulty);
  const double tree_v_faulty =
      predicted_system_mttr(make_tree_v(), split_faulty);

  EXPECT_GT(tree_i, tree_ii);
  EXPECT_GT(tree_ii, tree_iii);  // the split pays off (fedr fails often)
  EXPECT_GT(tree_iii, tree_iv);  // consolidation pays off
  EXPECT_GT(tree_iv_faulty, tree_v_faulty);  // promotion pays off (faulty)
  // Perfect oracle: V cannot beat IV (§4.4).
  EXPECT_NEAR(predicted_system_mttr(make_tree_v(), split), tree_iv, 1e-9);
}

TEST(AnalyticModel, GroupRestartDurationAppliesContention) {
  const SystemModel model = mercury_system_model(false);
  const double solo = group_restart_duration(model, {names::kFedrcom});
  const double full = group_restart_duration(
      model, {names::kMbus, names::kFedrcom, names::kSes, names::kStr,
              names::kRtu});
  EXPECT_NEAR(solo, 20.28, 1e-9);
  EXPECT_NEAR(full, 20.28 * (1.0 + 0.0628 * 3), 1e-6);
}

TEST(AnalyticModel, FourFoldImprovementClaim) {
  // "By employing recursive restartability we were able to improve recovery
  // time of our ground station by a factor of four." Compare tree I against
  // the final system (tree V, split components) for the non-fedrcom failure
  // classes; the cheap-restart paths are ~4x faster.
  const SystemModel fused = mercury_system_model(false);
  const SystemModel split = mercury_system_model(true);
  FailureClassModel rtu_failure{names::kRtu, {names::kRtu}, 1.0};
  const double before =
      predicted_recovery_time(make_tree_i(), fused, rtu_failure);
  const double after =
      predicted_recovery_time(make_tree_v(), split, rtu_failure);
  EXPECT_NEAR(before / after, 4.4, 0.5);
}

TEST(AnalyticModel, MercuryAvailabilityOrdering) {
  const double fused_tree_i =
      predicted_availability(make_tree_i(), mercury_system_model(false));
  const double split_tree_v =
      predicted_availability(make_tree_v(), mercury_system_model(true));
  EXPECT_GT(split_tree_v, fused_tree_i);
  EXPECT_GT(fused_tree_i, 0.9);   // sane range
  EXPECT_LT(split_tree_v, 1.0);
}

TEST(AnalyticModel, UncoveredCureSetFallsBackToRoot) {
  const SystemModel model = mercury_system_model(true);
  FailureClassModel impossible{names::kSes, {names::kSes, "ghost"}, 1.0};
  const double predicted =
      predicted_recovery_time(make_tree_iv(), model, impossible);
  // Falls back to a full-system restart cost.
  EXPECT_GT(predicted, 20.0);
}

// --- Traffic-summary bin edges (ISSUE 10) ----------------------------------
// The goodput timeline is binned with integer truncation; these pin the
// boundary cases: a request resolving exactly on a bin edge, a dip running
// to the end of the evaluation window, and degenerate (zero-traffic /
// disabled-injection) trials.

/// Served request resolving at `done_t` against route "ses".
RequestRecord served_at(double done_t) {
  RequestRecord record;
  record.sent_t = done_t - 0.01;
  record.done_t = done_t;
  record.served = true;
  record.target = "ses";
  return record;
}

/// Steady pre-injection traffic: 8 served in [0, 2) -> baseline 4 rps with
/// inject_t = 2.0 (one resolves exactly on the 0.5 s edge at t=0.5).
TrafficAccount baseline_account() {
  TrafficAccount account;
  for (double t : {0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 1.875}) {
    account.record(served_at(t));
  }
  return account;
}

TEST(TrafficBinEdges, RequestOnBinBoundaryCountsTowardTheLaterBin) {
  // Full bins with inject=2.0, end=5.0, bin=0.5 are [2.5,3.0) .. [4.5,5.0).
  // Leave [2.5,3.0) empty and serve two requests per later bin, the first
  // of them at exactly t=3.0 — the edge. Truncation must put it in
  // [3.0,3.5): the dip is then exactly one empty bin deep and wide. If the
  // edge request leaked into [2.5,3.0), the dip would flatten to depth 0.5
  // and widen to two bins.
  TrafficAccount account = baseline_account();
  for (double t : {3.0, 3.25, 3.5, 3.75, 4.0, 4.25, 4.5, 4.75}) {
    account.record(served_at(t));
  }
  const TrafficSummary summary = account.summarize(2.0, 5.0);
  EXPECT_DOUBLE_EQ(summary.baseline_rps, 4.0);
  EXPECT_DOUBLE_EQ(summary.dip_depth, 1.0);      // one bin at rate 0
  EXPECT_DOUBLE_EQ(summary.dip_width_s, 0.5);    // exactly that bin
  EXPECT_DOUBLE_EQ(summary.dip_end_s, 1.0);      // [2.5,3.0) closes at 3.0
}

TEST(TrafficBinEdges, DipRunningToTraceEndClosesAtTheWindow) {
  // Healthy bins up to [4.0,4.5), then nothing: the last full bin is below
  // threshold, so the dip end lands exactly at end_t - inject_t.
  TrafficAccount account = baseline_account();
  for (double t : {2.5, 2.75, 3.0, 3.25, 3.5, 3.75, 4.0, 4.25}) {
    account.record(served_at(t));
  }
  const TrafficSummary summary = account.summarize(2.0, 5.0);
  EXPECT_DOUBLE_EQ(summary.dip_depth, 1.0);
  EXPECT_DOUBLE_EQ(summary.dip_width_s, 0.5);
  EXPECT_DOUBLE_EQ(summary.dip_end_s, 3.0);  // == end_t - inject_t
}

TEST(TrafficBinEdges, PartialBinsAtTheWindowEdgesAreIgnored) {
  // Requests in the injection-straddling bin [2.0,2.5) and the quiesce
  // bin [5.0,5.5) must not count as goodput — nor read as dips.
  TrafficAccount account = baseline_account();
  account.record(served_at(2.1));   // partial first bin
  account.record(served_at(5.25));  // past the window
  for (double t : {2.5, 2.75, 3.0, 3.25, 3.5, 3.75, 4.0, 4.25, 4.5, 4.75}) {
    account.record(served_at(t));
  }
  const TrafficSummary summary = account.summarize(2.0, 5.0);
  EXPECT_DOUBLE_EQ(summary.dip_depth, 0.0);
  EXPECT_DOUBLE_EQ(summary.dip_width_s, 0.0);
  EXPECT_DOUBLE_EQ(summary.dip_end_s, 0.0);
}

TEST(TrafficBinEdges, ZeroTrafficTrialSummarizesToZeros) {
  const TrafficAccount account;
  const TrafficSummary summary = account.summarize(2.0, 5.0);
  EXPECT_EQ(summary.issued, 0u);
  EXPECT_EQ(summary.served, 0u);
  EXPECT_EQ(summary.lost, 0u);
  EXPECT_DOUBLE_EQ(summary.baseline_rps, 0.0);
  EXPECT_DOUBLE_EQ(summary.dip_depth, 0.0);
  EXPECT_DOUBLE_EQ(summary.dip_width_s, 0.0);
  EXPECT_DOUBLE_EQ(summary.p50_ms, 0.0);
}

TEST(TrafficBinEdges, NonPositiveInjectionDisablesDipAccounting) {
  TrafficAccount account = baseline_account();
  const TrafficSummary summary = account.summarize(0.0, 5.0);
  EXPECT_EQ(summary.served, 8u);  // counts and percentiles still fill in
  EXPECT_GT(summary.p50_ms, 0.0);
  EXPECT_DOUBLE_EQ(summary.baseline_rps, 0.0);
  EXPECT_DOUBLE_EQ(summary.dip_depth, 0.0);
  EXPECT_DOUBLE_EQ(summary.dip_width_s, 0.0);
}

}  // namespace
}  // namespace mercury::core

// Integration tests: restart-time faults vs the hardened recovery path
// (ISSUE 2). The restart path is itself a fault domain — startups hang,
// crash, or are flaky — and the recoverer's hardening (per-restart deadline,
// same-cell backoff, attempt budgets, hard-failure parking with permanent FD
// masks) must turn every such fault into either a full recovery or an
// explicit degraded-operation outcome, never a stall.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "bus/dedicated_link.h"
#include "core/failure.h"
#include "core/mercury_trees.h"
#include "core/process_control.h"
#include "core/recoverer.h"
#include "sim/simulator.h"
#include "station/experiment.h"

namespace mercury::station {
namespace {

namespace names = core::component_names;
using core::MercuryTree;
using core::RestartFaultSpec;
using util::Duration;

TrialSpec hang_once_spec() {
  TrialSpec spec;
  spec.tree = MercuryTree::kTreeIV;
  spec.oracle = OracleKind::kHeuristic;
  spec.fail_component = names::kRtu;
  spec.seed = 4242;
  spec.timeout = Duration::seconds(150.0);
  RestartFaultSpec fault;
  fault.hang_first_attempts = 1;
  spec.restart_faults[names::kRtu] = fault;
  return spec;
}

// A hung startup never completes, so only the per-restart deadline notices
// it: the action is aborted, escalated and recovered from.

TEST(RestartFaults, HungRestartRecoversWithDeadline) {
  TrialSpec spec = hang_once_spec();
  const TrialResult result = run_trial(spec);
  EXPECT_FALSE(result.timed_out);
  EXPECT_FALSE(result.hard_failure);
  EXPECT_GE(result.restart_timeouts, 1);
  EXPECT_GE(result.escalations, 1);
  EXPECT_GT(result.recovery.to_seconds(), 0.0);
}

TEST(RestartFaults, CrashLoopingStartupRecoversViaEscalation) {
  TrialSpec spec = hang_once_spec();
  RestartFaultSpec fault;
  fault.fail_first_attempts = 2;  // first two startups run, then die
  spec.restart_faults[names::kRtu] = fault;
  const TrialResult result = run_trial(spec);
  EXPECT_FALSE(result.timed_out);
  EXPECT_FALSE(result.hard_failure);
  // A member that dies mid-startup never reports ready, so the group stays
  // in flight until the deadline aborts it — each crashed attempt surfaces
  // as a restart timeout, and only the final clean restart completes.
  EXPECT_GE(result.restart_timeouts, 2);
  EXPECT_GE(result.escalations, 1);
  EXPECT_GT(result.recovery.to_seconds(), 0.0);
}

TEST(RestartFaults, UnrestartableComponentParksAndStationRunsDegraded) {
  TrialSpec spec = hang_once_spec();
  spec.max_attempts_per_chain = 5;
  spec.timeout = Duration::seconds(500.0);
  RestartFaultSpec fault;
  fault.hang_prob = 1.0;  // every startup of rtu hangs, forever
  spec.restart_faults[names::kRtu] = fault;
  const TrialResult result = run_trial(spec);
  EXPECT_FALSE(result.timed_out);
  EXPECT_TRUE(result.hard_failure);
  ASSERT_EQ(result.parked, std::vector<std::string>{names::kRtu});
  // Everything outside the parked chain came back: degraded operation, not
  // a wedged station.
  EXPECT_TRUE(result.degraded_functional);
  // The attempt budget held (one failure chain; timed-out attempts count).
  EXPECT_LE(result.restarts, 2 * spec.max_attempts_per_chain);
}

TEST(RestartFaults, HardeningIsNoOpOnCleanTrials) {
  // With no restart faults the deadline never trips and no cell streaks:
  // one restart, no timeout, no backoff.
  TrialSpec spec;
  spec.tree = MercuryTree::kTreeIV;
  spec.fail_component = names::kSes;
  spec.seed = 777;
  const TrialResult result = run_trial(spec);
  EXPECT_FALSE(result.timed_out);
  EXPECT_FALSE(result.hard_failure);
  EXPECT_EQ(result.restarts, 1);
  EXPECT_EQ(result.restart_timeouts, 0);
  EXPECT_EQ(result.backoffs, 0);
}

TEST(RestartFaults, ProbabilisticFaultsAreDeterministicInSeed) {
  TrialSpec spec = hang_once_spec();
  RestartFaultSpec fault;
  fault.hang_prob = 0.3;
  fault.crash_prob = 0.3;
  spec.restart_faults[names::kRtu] = fault;
  const TrialResult a = run_trial(spec);
  const TrialResult b = run_trial(spec);
  EXPECT_EQ(a.recovery.to_seconds(), b.recovery.to_seconds());
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.restart_timeouts, b.restart_timeouts);
  EXPECT_EQ(a.hard_failure, b.hard_failure);
}

TEST(RestartFaults, HardenedDeadlineClearsWorstCaseStartup) {
  // The deadline must sit above the worst contended startup (a clean restart
  // never trips it) but well under the trial timeout (a hung one is caught
  // with time left to escalate and recover).
  const Calibration cal = default_calibration();
  const auto components =
      core::make_mercury_tree(MercuryTree::kTreeIV).all_components();
  const Duration deadline = hardened_restart_deadline(cal, components);
  double worst = 0.0;
  for (const auto& name : components) {
    const ComponentTiming timing = cal.timing_for(name);
    worst = std::max(worst, timing.startup_mean.to_seconds() +
                                3.0 * timing.startup_stddev.to_seconds());
  }
  EXPECT_GT(deadline.to_seconds(), worst);
  EXPECT_LT(deadline.to_seconds(), 120.0);
}

// --- Backoff interval clamp (ISSUE 8 satellite) ------------------------------
// Unit-level: the recoverer against a one-second fake ProcessControl, pinning
// the backoff shape REC fixes for every base: doubling per streak step,
// saturation at 30 s, and one streak step forgotten per quiet minute.

class OneSecondProcessControl : public core::ProcessControl {
 public:
  explicit OneSecondProcessControl(sim::Simulator& sim) : sim_(sim) {}

  std::vector<std::string> component_names() const override {
    return {"mbus", "ses", "str", "rtu", "fedr", "pbcom"};
  }
  void restart_group(const std::vector<std::string>& names,
                     std::function<void()> on_complete) override {
    groups.push_back(names);
    sim_.schedule_after(Duration::seconds(1.0), "fake-restart",
                        [on_complete = std::move(on_complete)] {
                          if (on_complete) on_complete();
                        });
  }
  bool restart_in_progress() const override { return false; }
  std::vector<std::string> restarting_now() const override { return {}; }

  std::vector<std::vector<std::string>> groups;

 private:
  sim::Simulator& sim_;
};

class BackoffClampTest : public ::testing::Test {
 protected:
  BackoffClampTest() : sim_(3), link_(sim_, "fd", "rec"), process_(sim_) {}

  void build(core::RecConfig config) {
    // A short window keeps every re-report a fresh chain at the same cell —
    // backoff pacing, not escalation, is under test.
    config.escalation_window = Duration::millis(500.0);
    rec_ = std::make_unique<core::Recoverer>(sim_, link_, core::make_tree_iv(),
                                             oracle_, process_, config);
    rec_->start();
  }

  void report(const std::string& component) {
    msg::Message m = msg::make_command("fd", "rec", ++seq_, "report-failure");
    m.body.set_attr("component", component);
    link_.send(m);
    sim_.run_for(Duration::millis(5.0));
  }

  sim::Simulator sim_;
  bus::DedicatedLink link_;
  OneSecondProcessControl process_;
  core::HeuristicOracle oracle_;
  std::unique_ptr<core::Recoverer> rec_;
  std::uint64_t seq_ = 0;
};

TEST_F(BackoffClampTest, GrowthSaturatesAtCap) {
  core::RecConfig config;
  config.backoff_base = Duration::seconds(20.0);
  build(config);

  report(names::kRtu);  // dispatches at ~0, completes at ~1
  sim_.run_for(Duration::seconds(2.0));
  report(names::kRtu);  // streak 1: waits out base, until t = 20
  EXPECT_EQ(rec_->backoffs_applied(), 1u);
  sim_.run_for(Duration::seconds(20.0));  // dispatched ~20, done ~21; t ~= 22
  EXPECT_EQ(process_.groups.size(), 2u);
  report(names::kRtu);
  // Streak 2 doubles the base to 40 s raw — capped at 30, so the third
  // attempt dispatches at ~50, not ~60.
  EXPECT_EQ(rec_->backoffs_applied(), 2u);
  sim_.run_for(Duration::seconds(27.0));  // t ~= 49: still waiting
  EXPECT_EQ(process_.groups.size(), 2u);
  sim_.run_for(Duration::seconds(2.0));  // t ~= 51: past last + cap
  EXPECT_EQ(process_.groups.size(), 3u);
}

TEST_F(BackoffClampTest, DecayedStreakPacesAtBase) {
  core::RecConfig config;
  config.backoff_base = Duration::seconds(4.0);
  build(config);

  report(names::kRtu);  // streak 1, last attempt began at ~0
  sim_.run_for(Duration::seconds(61.0));  // one full quiet minute
  report(names::kRtu);
  // The minute forgot the streak's one step: no wait, and the streak
  // restarts at 1 with this attempt (t ~= 61).
  EXPECT_EQ(process_.groups.size(), 2u);
  EXPECT_EQ(rec_->backoffs_applied(), 0u);
  sim_.run_for(Duration::seconds(2.0));  // done ~62; t ~= 63
  report(names::kRtu);
  // Streak 1 paces at exactly base: dispatch at ~65. An undecayed streak
  // (2 here) would hold it until ~69.
  EXPECT_EQ(rec_->backoffs_applied(), 1u);
  sim_.run_for(Duration::seconds(1.5));  // t ~= 64.5: still waiting
  EXPECT_EQ(process_.groups.size(), 2u);
  sim_.run_for(Duration::seconds(1.0));  // t ~= 65.5: base elapsed
  EXPECT_EQ(process_.groups.size(), 3u);
}

}  // namespace
}  // namespace mercury::station

// Unit tests: the recoverer in isolation, against a fake ProcessControl —
// oracle dispatch, masking protocol, serialization/queueing, escalation
// bookkeeping, hard-failure parking, planned restarts, soft recovery.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "bus/dedicated_link.h"
#include "core/mercury_trees.h"
#include "core/oracle.h"
#include "core/process_control.h"
#include "core/recoverer.h"
#include "sim/simulator.h"

namespace mercury::core {
namespace {

namespace names = component_names;
using util::Duration;

/// Fake process control: restarts take a configurable per-component time.
class FakeProcessControl : public ProcessControl {
 public:
  explicit FakeProcessControl(sim::Simulator& sim) : sim_(sim) {}

  std::vector<std::string> component_names() const override {
    return {"mbus", "ses", "str", "rtu", "fedr", "pbcom"};
  }

  void restart_group(const std::vector<std::string>& names,
                     std::function<void()> on_complete) override {
    groups.push_back(names);
    ++in_flight_;
    double slowest = 1.0;
    for (const auto& name : names) {
      const auto it = durations.find(name);
      slowest = std::max(slowest, it != durations.end() ? it->second : 1.0);
    }
    sim_.schedule_after(Duration::seconds(slowest), "fake-restart",
                        [this, on_complete = std::move(on_complete)] {
                          --in_flight_;
                          if (on_complete) on_complete();
                        });
  }

  bool restart_in_progress() const override { return in_flight_ > 0; }
  std::vector<std::string> restarting_now() const override { return {}; }

  bool supports_soft_recovery() const override { return soft_supported; }
  void soft_recover(const std::string& component,
                    std::function<void()> on_complete) override {
    soft_recoveries.push_back(component);
    ++in_flight_;
    sim_.schedule_after(Duration::millis(250.0), "fake-soft",
                        [this, on_complete = std::move(on_complete)] {
                          --in_flight_;
                          if (on_complete) on_complete();
                        });
  }

  std::map<std::string, double> durations;
  std::vector<std::vector<std::string>> groups;
  std::vector<std::string> soft_recoveries;
  bool soft_supported = false;

 private:
  sim::Simulator& sim_;
  int in_flight_ = 0;
};

class RecTest : public ::testing::Test {
 protected:
  RecTest() : sim_(21), link_(sim_, "fd", "rec"), process_(sim_) {
    link_.bind("fd", [this](const msg::Message& m) {
      if (m.kind != msg::Kind::kCommand) return;
      const auto components = m.body.attr_or("components", "");
      if (m.verb == "mask") masks_.push_back(components);
      if (m.verb == "unmask") unmasks_.push_back(components);
    });
  }

  void build(RecConfig config = {}) {
    rec_ = std::make_unique<Recoverer>(sim_, link_, make_tree_iv(), oracle_,
                                       process_, config);
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
  FakeProcessControl process_;
  HeuristicOracle oracle_;
  std::unique_ptr<Recoverer> rec_;
  std::vector<std::string> masks_;
  std::vector<std::string> unmasks_;
  std::uint64_t seq_ = 0;
};

TEST_F(RecTest, RestartsTheReportedComponentsCell) {
  build();
  report(names::kRtu);
  ASSERT_EQ(process_.groups.size(), 1u);
  EXPECT_EQ(process_.groups[0], std::vector<std::string>{names::kRtu});
  EXPECT_TRUE(rec_->restart_in_progress());
  sim_.run_for(Duration::seconds(2.0));
  EXPECT_FALSE(rec_->restart_in_progress());
  ASSERT_EQ(rec_->history().size(), 1u);
  EXPECT_EQ(rec_->history()[0].escalation_level, 0);
}

TEST_F(RecTest, ConsolidatedCellRestartsPair) {
  build();
  report(names::kSes);
  ASSERT_EQ(process_.groups.size(), 1u);
  EXPECT_EQ(process_.groups[0],
            (std::vector<std::string>{names::kSes, names::kStr}));
}

TEST_F(RecTest, MaskBeforeRestartUnmaskAfter) {
  build();
  report(names::kRtu);
  ASSERT_EQ(masks_.size(), 1u);
  EXPECT_EQ(masks_[0], "rtu");
  EXPECT_TRUE(unmasks_.empty());
  sim_.run_for(Duration::seconds(2.0));
  ASSERT_EQ(unmasks_.size(), 1u);
  EXPECT_EQ(unmasks_[0], "rtu");
}

TEST_F(RecTest, DuplicateReportsIgnoredWhileInFlight) {
  build();
  report(names::kRtu);
  report(names::kRtu);
  report(names::kRtu);
  sim_.run_for(Duration::seconds(2.0));
  EXPECT_EQ(process_.groups.size(), 1u);
}

TEST_F(RecTest, ConcurrentReportsQueueAndDedupe) {
  build();
  report(names::kRtu);   // in flight (1 s)
  report(names::kMbus);  // queued
  report(names::kMbus);  // deduped
  EXPECT_EQ(process_.groups.size(), 1u);
  sim_.run_for(Duration::seconds(3.0));
  ASSERT_EQ(process_.groups.size(), 2u);
  EXPECT_EQ(process_.groups[1], std::vector<std::string>{names::kMbus});
}

TEST_F(RecTest, QueuedReportCoveredByFinishedRestartIsDropped) {
  build();
  report(names::kSes);  // restarts {ses, str}
  report(names::kStr);  // queued, but covered by the in-flight group
  sim_.run_for(Duration::seconds(3.0));
  EXPECT_EQ(process_.groups.size(), 1u);
}

TEST_F(RecTest, PromptReFailureEscalatesToParent) {
  build();
  report(names::kPbcom);
  sim_.run_for(Duration::seconds(2.0));  // leaf restart (1 s) completes
  report(names::kPbcom);                 // within the escalation window
  ASSERT_EQ(process_.groups.size(), 2u);
  EXPECT_EQ(process_.groups[1],
            (std::vector<std::string>{names::kFedr, names::kPbcom}));
  EXPECT_EQ(rec_->escalations(), 1u);
}

TEST_F(RecTest, LateReFailureStartsAFreshChain) {
  RecConfig config;
  config.escalation_window = Duration::seconds(2.5);
  build(config);
  report(names::kPbcom);
  sim_.run_for(Duration::seconds(2.0));  // completes at ~1 s
  sim_.run_for(Duration::seconds(3.0));  // well past the window
  report(names::kPbcom);
  ASSERT_EQ(process_.groups.size(), 2u);
  EXPECT_EQ(process_.groups[1], std::vector<std::string>{names::kPbcom});
  EXPECT_EQ(rec_->escalations(), 0u);
}

TEST_F(RecTest, PersistentFailureClimbsToRootThenParks) {
  RecConfig config;
  config.max_root_restarts = 2;
  build(config);
  // pbcom keeps failing promptly after every restart.
  for (int i = 0; i < 8; ++i) {
    report(names::kPbcom);
    sim_.run_for(Duration::seconds(1.5));
  }
  // Chain: leaf -> joint -> root -> root -> parked.
  int roots = 0;
  for (const auto& group : process_.groups) roots += group.size() == 6u;
  EXPECT_EQ(roots, 2);
  ASSERT_EQ(rec_->hard_failures().size(), 1u);
  EXPECT_EQ(rec_->hard_failures()[0], names::kPbcom);
  const auto actions = process_.groups.size();
  report(names::kPbcom);  // parked: ignored
  EXPECT_EQ(process_.groups.size(), actions);
}

TEST_F(RecTest, UnrelatedFailureAfterRootRestartDoesNotPark) {
  build();  // default max_root_restarts = 2
  // Drive rtu's chain to a root restart.
  report(names::kRtu);
  sim_.run_for(Duration::seconds(1.5));
  report(names::kRtu);  // escalate -> root
  sim_.run_for(Duration::seconds(1.5));
  // A *different* component fails right after the root restart. Within the
  // escalation window it is indistinguishable from persistence (the paper
  // escalates on "another failure" too), so it rides the chain to a root
  // restart — but the per-component history must not let rtu's chain get
  // ses parked.
  report(names::kSes);
  sim_.run_for(Duration::seconds(1.5));
  EXPECT_TRUE(rec_->hard_failures().empty());
  // And rtu's own history is per-component too: a fresh rtu failure later
  // starts at its leaf, not in jail.
  sim_.run_for(Duration::seconds(5.0));
  report(names::kRtu);
  sim_.run_for(Duration::millis(10.0));
  EXPECT_EQ(process_.groups.back(), std::vector<std::string>{names::kRtu});
  EXPECT_TRUE(rec_->hard_failures().empty());
}

TEST_F(RecTest, RootRestartsFurtherApartThanTheRetryWindowDoNotPark) {
  build();  // default max_root_restarts = 2; REC's root-retry window is 90 s
  // Drive rtu's chain to a counted root restart: leaf, root, then a prompt
  // re-failure after the root restart.
  const auto fail_through_a_root_restart = [this] {
    report(names::kRtu);
    sim_.run_for(Duration::seconds(1.5));
    report(names::kRtu);  // escalate -> root
    sim_.run_for(Duration::seconds(1.5));
    report(names::kRtu);  // failed again after the root restart: counted
    sim_.run_for(Duration::seconds(1.5));
  };
  fail_through_a_root_restart();
  EXPECT_TRUE(rec_->hard_failures().empty());

  // About 100 s later, outside the window: the count starts over at 1
  // instead of reaching max_root_restarts.
  sim_.run_for(Duration::seconds(100.0));
  fail_through_a_root_restart();
  EXPECT_TRUE(rec_->hard_failures().empty());
  int roots = 0;
  for (const auto& group : process_.groups) roots += group.size() == 6u;
  EXPECT_EQ(roots, 4);

  // Inside the window the restarted count does reach 2, and rtu parks.
  report(names::kRtu);
  ASSERT_EQ(rec_->hard_failures().size(), 1u);
  EXPECT_EQ(rec_->hard_failures()[0], names::kRtu);
}

TEST_F(RecTest, CrashedRecIgnoresReports) {
  build();
  rec_->crash();
  report(names::kRtu);
  sim_.run_for(Duration::seconds(2.0));
  EXPECT_TRUE(process_.groups.empty());
  rec_->restart_complete();
  report(names::kRtu);
  sim_.run_for(Duration::seconds(2.0));
  EXPECT_EQ(process_.groups.size(), 1u);
}

TEST_F(RecTest, PlannedRestartUsesMinimalCellAndYieldsToReactive) {
  build();
  EXPECT_TRUE(rec_->planned_restart(names::kFedr));
  ASSERT_EQ(process_.groups.size(), 1u);
  EXPECT_EQ(process_.groups[0], std::vector<std::string>{names::kFedr});
  // Busy: a second planned request is declined, not queued.
  EXPECT_FALSE(rec_->planned_restart(names::kRtu));
  sim_.run_for(Duration::seconds(2.0));
  ASSERT_EQ(rec_->history().size(), 1u);
  EXPECT_TRUE(rec_->history()[0].planned);
  EXPECT_EQ(rec_->planned_restarts(), 1u);
}

TEST_F(RecTest, PlannedRestartRejectsUnknownComponent) {
  build();
  EXPECT_FALSE(rec_->planned_restart("no-such-component"));
}

TEST_F(RecTest, SoftRecoveryRungRunsFirstThenRestart) {
  RecConfig config;
  config.enable_soft_recovery = true;
  process_.soft_supported = true;
  build(config);

  report(names::kRtu);
  ASSERT_EQ(process_.soft_recoveries.size(), 1u);
  EXPECT_TRUE(process_.groups.empty());
  sim_.run_for(Duration::seconds(1.0));
  ASSERT_EQ(rec_->history().size(), 1u);
  EXPECT_TRUE(rec_->history()[0].soft);

  // The failure persists: next report climbs to the restart rung.
  report(names::kRtu);
  ASSERT_EQ(process_.groups.size(), 1u);
  EXPECT_EQ(process_.groups[0], std::vector<std::string>{names::kRtu});
  EXPECT_EQ(rec_->soft_recoveries(), 1u);
}

TEST_F(RecTest, SoftRungSkippedWithoutProcessSupport) {
  RecConfig config;
  config.enable_soft_recovery = true;
  process_.soft_supported = false;
  build(config);
  report(names::kRtu);
  EXPECT_TRUE(process_.soft_recoveries.empty());
  EXPECT_EQ(process_.groups.size(), 1u);
}

// --- Restart-path hardening (ISSUE 2) ---------------------------------------

TEST_F(RecTest, RestartDeadlineAbortsHungRestartAndEscalates) {
  RecConfig config;
  config.restart_deadline = Duration::seconds(2.0);
  build(config);
  process_.durations[names::kRtu] = 100.0;  // rtu's startup hangs

  report(names::kRtu);
  ASSERT_EQ(process_.groups.size(), 1u);
  sim_.run_for(Duration::seconds(3.0));
  // The deadline fired and escalated to the parent (root) cell; the hung
  // leaf action never produced a history record.
  EXPECT_EQ(rec_->restart_timeouts(), 1u);
  EXPECT_EQ(rec_->escalations(), 1u);
  ASSERT_EQ(process_.groups.size(), 2u);
  EXPECT_EQ(process_.groups[1].size(), 6u);
}

TEST_F(RecTest, RepeatedRestartTimeoutsParkTheChain) {
  RecConfig config;
  config.restart_deadline = Duration::seconds(2.0);
  config.max_root_restarts = 2;
  build(config);
  process_.durations[names::kRtu] = 100.0;  // every restart of rtu hangs

  report(names::kRtu);
  sim_.run_for(Duration::seconds(10.0));
  // leaf timeout -> root timeout -> root timeout -> parked.
  EXPECT_EQ(rec_->restart_timeouts(), 3u);
  ASSERT_EQ(rec_->hard_failures().size(), 1u);
  EXPECT_EQ(rec_->hard_failures()[0], names::kRtu);
  EXPECT_EQ(rec_->parked(), std::set<std::string>{names::kRtu});
  // Parked means permanently masked: no unmask for rtu was ever sent after
  // the parking, and further reports are ignored.
  const auto actions = process_.groups.size();
  report(names::kRtu);
  sim_.run_for(Duration::seconds(1.0));
  EXPECT_EQ(process_.groups.size(), actions);
}

TEST_F(RecTest, AttemptBudgetParksWithoutRootClimb) {
  RecConfig config;
  config.restart_deadline = Duration::seconds(2.0);
  config.max_attempts_per_chain = 2;
  config.max_root_restarts = 100;  // budget must park first
  build(config);
  process_.durations[names::kRtu] = 100.0;

  report(names::kRtu);
  sim_.run_for(Duration::seconds(10.0));
  EXPECT_EQ(rec_->parked(), std::set<std::string>{names::kRtu});
  // Two attempts consumed (leaf, then the escalated retry), then parked.
  EXPECT_EQ(process_.groups.size(), 2u);
}

TEST_F(RecTest, BackoffPacesSameCellRestarts) {
  RecConfig config;
  config.escalation_window = Duration::millis(500.0);  // re-reports are fresh
  config.backoff_base = Duration::seconds(4.0);
  build(config);

  report(names::kRtu);
  sim_.run_for(Duration::seconds(2.0));  // first restart completes at ~1 s
  report(names::kRtu);                   // fresh chain, same cell, streak = 1
  // Attempt 2 may start no earlier than 4 s after attempt 1 began: the
  // action is current (serialization holds) but the kill/start waits.
  EXPECT_EQ(process_.groups.size(), 1u);
  EXPECT_TRUE(rec_->restart_in_progress());
  EXPECT_EQ(rec_->backoffs_applied(), 1u);
  sim_.run_for(Duration::seconds(2.5));  // past t = 4.001
  EXPECT_EQ(process_.groups.size(), 2u);
}

TEST_F(RecTest, BackoffStreakDecays) {
  RecConfig config;
  config.escalation_window = Duration::millis(500.0);
  config.backoff_base = Duration::seconds(4.0);
  build(config);

  report(names::kRtu);                   // streak 1, began at ~0
  sim_.run_for(Duration::seconds(2.0));
  report(names::kRtu);                   // waits until ~4; streak 2
  EXPECT_EQ(rec_->backoffs_applied(), 1u);
  sim_.run_for(Duration::seconds(62.0));  // done ~5; quiet until t ~= 66
  report(names::kRtu);
  // A quiet minute forgets one step (2 -> 1), whose 4 s wait has long
  // elapsed: dispatched at once, and the streak is 2 again.
  EXPECT_EQ(process_.groups.size(), 3u);
  EXPECT_EQ(rec_->backoffs_applied(), 1u);
  sim_.run_for(Duration::seconds(2.0));   // done ~67; t ~= 68
  report(names::kRtu);
  // Streak 2 waits 8 s, until ~74. Forgetting the whole streak would
  // dispatch at ~70; no decay (streak 3) would wait until ~82.
  EXPECT_EQ(rec_->backoffs_applied(), 2u);
  sim_.run_for(Duration::seconds(5.0));   // t ~= 73
  EXPECT_EQ(process_.groups.size(), 3u);
  sim_.run_for(Duration::seconds(2.0));   // t ~= 75
  EXPECT_EQ(process_.groups.size(), 4u);
}

// The escalation window edge, pinned exactly. These use a zero-latency link
// and exactly representable times (restart completes at t = 1.0, window
// 2.5 s) so the boundary comparison is exact in double arithmetic.
class RecWindowEdgeTest : public ::testing::Test {
 protected:
  RecWindowEdgeTest()
      : sim_(7), link_(sim_, "fd", "rec", Duration::zero()), process_(sim_) {
    RecConfig config;
    config.escalation_window = Duration::seconds(2.5);
    rec_ = std::make_unique<Recoverer>(sim_, link_, make_tree_iv(), oracle_,
                                       process_, config);
    rec_->start();
  }

  void report(const std::string& component) {
    msg::Message m = msg::make_command("fd", "rec", ++seq_, "report-failure");
    m.body.set_attr("component", component);
    link_.send(m);
  }

  sim::Simulator sim_;
  bus::DedicatedLink link_;
  FakeProcessControl process_;
  HeuristicOracle oracle_;
  std::unique_ptr<Recoverer> rec_;
  std::uint64_t seq_ = 0;
};

TEST_F(RecWindowEdgeTest, ReportAtExactWindowEdgeStartsFreshChain) {
  report(names::kPbcom);                 // delivered at t = 0
  sim_.run_for(Duration::seconds(3.5));  // restart completed at exactly 1.0
  report(names::kPbcom);  // delivered at 3.5 = complete + window, exactly
  sim_.run_for(Duration::millis(5.0));
  // The window is exclusive (elapsed < window escalates): an elapsed time of
  // exactly the window is a fresh chain at the leaf, not an escalation.
  ASSERT_EQ(process_.groups.size(), 2u);
  EXPECT_EQ(process_.groups[1], std::vector<std::string>{names::kPbcom});
  EXPECT_EQ(rec_->escalations(), 0u);
}

TEST_F(RecWindowEdgeTest, ReportJustInsideWindowEscalates) {
  report(names::kPbcom);
  sim_.run_for(Duration::seconds(3.375));  // complete at 1.0; 2.375 < 2.5
  report(names::kPbcom);
  sim_.run_for(Duration::millis(5.0));
  ASSERT_EQ(process_.groups.size(), 2u);
  EXPECT_EQ(process_.groups[1],
            (std::vector<std::string>{names::kFedr, names::kPbcom}));
  EXPECT_EQ(rec_->escalations(), 1u);
}

// --- Parallel recovery: DAG dispatch (ISSUE 8) ------------------------------

TEST_F(RecTest, DagDispatchesDisjointCellsConcurrently) {
  RecConfig config;
  config.dispatch = DispatchMode::kDag;
  build(config);
  report(names::kRtu);    // leaf cell {rtu}
  report(names::kPbcom);  // leaf cell {pbcom}: disjoint, dispatches now
  EXPECT_EQ(process_.groups.size(), 2u);
  EXPECT_EQ(rec_->restarts_in_flight(), 2u);
  sim_.run_for(Duration::seconds(2.0));
  EXPECT_FALSE(rec_->restart_in_progress());
  EXPECT_EQ(rec_->history().size(), 2u);
  EXPECT_EQ(rec_->max_concurrent_restarts(), 2u);
  EXPECT_EQ(rec_->absorbed_restarts(), 0u);
}

TEST_F(RecTest, SerialDispatchStillQueuesDisjointCells) {
  build();  // default kSerial
  report(names::kRtu);
  report(names::kPbcom);
  EXPECT_EQ(process_.groups.size(), 1u);
  EXPECT_EQ(rec_->max_concurrent_restarts(), 1u);
  sim_.run_for(Duration::seconds(3.0));
  EXPECT_EQ(process_.groups.size(), 2u);
  EXPECT_EQ(rec_->max_concurrent_restarts(), 1u);
}

TEST_F(RecTest, DagEscalationAbsorbsConflictingDescendantAction) {
  RecConfig config;
  config.dispatch = DispatchMode::kDag;
  build(config);
  process_.durations[names::kRtu] = 20.0;  // rtu's restart stays in flight

  report(names::kRtu);    // in flight until ~20 s
  report(names::kPbcom);  // concurrent leaf restart, done at ~1 s
  sim_.run_for(Duration::seconds(2.0));
  report(names::kPbcom);  // escalates to {fedr,pbcom}: still disjoint from rtu
  ASSERT_EQ(process_.groups.size(), 3u);
  EXPECT_EQ(process_.groups[2],
            (std::vector<std::string>{names::kFedr, names::kPbcom}));
  sim_.run_for(Duration::seconds(2.0));
  report(names::kPbcom);  // escalates to root: absorbs the in-flight rtu action
  EXPECT_EQ(rec_->absorbed_restarts(), 1u);
  ASSERT_EQ(process_.groups.size(), 4u);
  EXPECT_EQ(process_.groups[3].size(), 6u);
  // Exactly one action remains (the root restart); the absorbed rtu action's
  // eventual completion callback must be discarded as stale.
  EXPECT_EQ(rec_->restarts_in_flight(), 1u);
  sim_.run_for(Duration::seconds(25.0));
  EXPECT_FALSE(rec_->restart_in_progress());
}

TEST_F(RecTest, DagQueuedConflictDispatchesAfterBlockerCompletes) {
  // Tree V: pbcom's lowest cell R_pbcom+ covers {fedr,pbcom} and contains
  // R_fedr — a pbcom report while fedr restarts is the ancestor/descendant
  // overlap the DAG must serialize.
  RecConfig config;
  config.dispatch = DispatchMode::kDag;
  rec_ = std::make_unique<Recoverer>(sim_, link_, make_tree_v(), oracle_,
                                     process_, config);
  rec_->start();
  process_.durations[names::kFedr] = 3.0;

  report(names::kFedr);   // R_fedr in flight until ~3 s
  report(names::kPbcom);  // cell R_pbcom+ conflicts: queued, not dispatched
  EXPECT_EQ(process_.groups.size(), 1u);
  EXPECT_EQ(rec_->restarts_in_flight(), 1u);
  sim_.run_for(Duration::seconds(4.0));  // fedr completes; queue drains
  ASSERT_EQ(process_.groups.size(), 2u);
  EXPECT_EQ(process_.groups[1],
            (std::vector<std::string>{names::kFedr, names::kPbcom}));
  EXPECT_EQ(rec_->max_concurrent_restarts(), 1u);
}

TEST_F(RecTest, OnDemandQueueAlsoSerializesConflicts) {
  RecConfig config;
  config.dispatch = DispatchMode::kOnDemand;
  rec_ = std::make_unique<Recoverer>(sim_, link_, make_tree_v(), oracle_,
                                     process_, config);
  rec_->start();
  process_.durations[names::kFedr] = 3.0;

  report(names::kFedr);
  report(names::kPbcom);  // conflicts with the in-flight R_fedr: queued
  report(names::kRtu);    // disjoint: dispatches immediately past the queue
  EXPECT_EQ(process_.groups.size(), 2u);
  EXPECT_EQ(rec_->restarts_in_flight(), 2u);
  sim_.run_for(Duration::seconds(5.0));
  ASSERT_EQ(process_.groups.size(), 3u);
  EXPECT_EQ(process_.groups[2],
            (std::vector<std::string>{names::kFedr, names::kPbcom}));
}

// --- Traffic-driven on-demand recovery (ISSUE 9) -----------------------------

TEST_F(RecTest, TrafficDrivenQueuesEvenDisjointCellsLazily) {
  RecConfig config;
  config.dispatch = DispatchMode::kOnDemand;
  config.traffic_driven = true;
  config.lazy_drain_interval = Duration::seconds(60.0);  // keep lazy out
  build(config);

  report(names::kRtu);    // first action dispatches: the minimal phase
  report(names::kPbcom);  // disjoint — but under traffic mode it parks
  report(names::kSes);
  EXPECT_EQ(process_.groups.size(), 1u);
  EXPECT_EQ(rec_->restarts_in_flight(), 1u);

  // A client request touches pbcom: exactly that action is promoted and,
  // with no conflicting in-flight cell, dispatches immediately.
  EXPECT_EQ(rec_->touch(names::kPbcom), TouchResult::kPromoted);
  ASSERT_EQ(process_.groups.size(), 2u);
  EXPECT_EQ(process_.groups[1], std::vector<std::string>{names::kPbcom});
  EXPECT_EQ(rec_->touch_promotions(), 1u);
  // ses was not touched: it stays parked in the queue.
  sim_.run_for(Duration::seconds(3.0));
  EXPECT_EQ(process_.groups.size(), 2u);
}

TEST_F(RecTest, TouchReportsInFlightParkedAndIdleStates) {
  RecConfig config;
  config.dispatch = DispatchMode::kOnDemand;
  config.traffic_driven = true;
  build(config);

  EXPECT_EQ(rec_->touch(names::kRtu), TouchResult::kIdle);  // nothing queued
  report(names::kRtu);
  EXPECT_EQ(rec_->touch(names::kRtu), TouchResult::kRestarting);
  sim_.run_for(Duration::seconds(2.0));
  EXPECT_EQ(rec_->touch(names::kRtu), TouchResult::kIdle);
  EXPECT_EQ(rec_->touch_promotions(), 0u);
}

TEST_F(RecTest, TouchOfParkedComponentSignalsRejection) {
  RecConfig config;
  config.dispatch = DispatchMode::kOnDemand;
  config.traffic_driven = true;
  config.restart_deadline = Duration::seconds(2.0);
  config.max_attempts_per_chain = 2;
  config.max_root_restarts = 100;
  build(config);
  process_.durations[names::kRtu] = 100.0;  // every rtu restart hangs

  report(names::kRtu);
  sim_.run_for(Duration::seconds(10.0));
  ASSERT_EQ(rec_->parked(), std::set<std::string>{names::kRtu});
  // A request touching the parked cell gets a clean rejection signal; no
  // restart is spawned for it.
  const auto actions = process_.groups.size();
  EXPECT_EQ(rec_->touch(names::kRtu), TouchResult::kParked);
  sim_.run_for(Duration::seconds(1.0));
  EXPECT_EQ(process_.groups.size(), actions);
}

TEST_F(RecTest, PromotedConflictHoldsUntilAncestorOrderClears) {
  // Tree V: pbcom's lowest cell covers fedr. A touch while R_fedr is in
  // flight promotes pbcom to the queue front but must NOT dispatch until
  // the descendant action completes — promotion never breaks DAG order.
  RecConfig config;
  config.dispatch = DispatchMode::kOnDemand;
  config.traffic_driven = true;
  config.lazy_drain_interval = Duration::seconds(60.0);
  rec_ = std::make_unique<Recoverer>(sim_, link_, make_tree_v(), oracle_,
                                     process_, config);
  rec_->start();
  process_.durations[names::kFedr] = 3.0;

  report(names::kFedr);
  report(names::kPbcom);  // parks behind the traffic gate
  EXPECT_EQ(rec_->touch(names::kPbcom), TouchResult::kPromoted);
  EXPECT_EQ(process_.groups.size(), 1u);  // conflict: held at the front
  sim_.run_for(Duration::seconds(4.0));   // fedr completes; drain fires
  ASSERT_EQ(process_.groups.size(), 2u);
  EXPECT_EQ(process_.groups[1],
            (std::vector<std::string>{names::kFedr, names::kPbcom}));
  EXPECT_EQ(rec_->max_concurrent_restarts(), 1u);
}

TEST_F(RecTest, LazyDrainTricklesUntouchedCellsOnePerInterval) {
  RecConfig config;
  config.dispatch = DispatchMode::kOnDemand;
  config.traffic_driven = true;
  config.lazy_drain_interval = Duration::millis(500.0);
  build(config);

  report(names::kRtu);    // in flight for 1 s
  report(names::kPbcom);  // parked
  report(names::kMbus);   // parked behind pbcom
  EXPECT_EQ(process_.groups.size(), 1u);
  sim_.run_for(Duration::millis(600.0));  // first lazy tick
  EXPECT_EQ(process_.groups.size(), 2u);
  EXPECT_EQ(process_.groups[1], std::vector<std::string>{names::kPbcom});
  sim_.run_for(Duration::millis(500.0));  // second tick drains mbus
  EXPECT_EQ(process_.groups.size(), 3u);
  EXPECT_EQ(rec_->lazy_drains(), 2u);
  EXPECT_EQ(rec_->touch_promotions(), 0u);
}

TEST_F(RecTest, TrafficGateRequiresOnDemandDispatch) {
  // traffic_driven without on-demand dispatch is inert: serial default
  // behaviour is preserved and touch is a no-op.
  RecConfig config;
  config.traffic_driven = true;  // dispatch stays kSerial
  build(config);
  report(names::kRtu);
  report(names::kPbcom);
  EXPECT_EQ(rec_->touch(names::kPbcom), TouchResult::kIdle);
  EXPECT_EQ(process_.groups.size(), 1u);
  sim_.run_for(Duration::seconds(3.0));
  EXPECT_EQ(process_.groups.size(), 2u);  // plain serial queue drain
  EXPECT_EQ(rec_->touch_promotions(), 0u);
  EXPECT_EQ(rec_->lazy_drains(), 0u);
}

// Satellite regression (ISSUE 8): queued-report dedup/drop must key on the
// failure epoch, not the component name alone — a report queued *after* a
// covering restart completed is new evidence and must dispatch even though
// a stale completion for the same component exists.
TEST_F(RecTest, QueuedReportSurvivesStaleCompletionOfSameComponent) {
  RecConfig config;
  config.escalation_window = Duration::millis(500.0);
  config.restart_deadline = Duration::seconds(2.0);
  config.max_attempts_per_chain = 1;
  build(config);
  process_.durations[names::kRtu] = 100.0;  // rtu's restart hangs

  report(names::kSes);                   // restarts {ses,str}, done at ~1 s
  sim_.run_for(Duration::seconds(1.5));  // completion recorded for ses
  report(names::kRtu);                   // hangs; serializes everything after
  report(names::kSes);                   // queued: fresh failure, current epoch
  EXPECT_EQ(process_.groups.size(), 2u);
  // rtu's deadline fires, its chain's budget is exhausted, rtu parks. The
  // park's queue drain must dispatch the queued ses report — dropping it
  // against the pre-queue {ses,str} completion loses a live failure.
  sim_.run_for(Duration::seconds(3.0));
  EXPECT_EQ(rec_->parked(), std::set<std::string>{names::kRtu});
  ASSERT_EQ(process_.groups.size(), 3u);
  EXPECT_EQ(process_.groups[2],
            (std::vector<std::string>{names::kSes, names::kStr}));
}

TEST_F(RecTest, HistoryRecordsAreComplete) {
  build();
  report(names::kSes);
  sim_.run_for(Duration::seconds(2.0));
  ASSERT_EQ(rec_->history().size(), 1u);
  const RecoveryRecord& record = rec_->history()[0];
  EXPECT_EQ(record.reported_component, names::kSes);
  EXPECT_EQ(record.restarted, (std::vector<std::string>{names::kSes, names::kStr}));
  EXPECT_FALSE(record.planned);
  EXPECT_FALSE(record.soft);
  EXPECT_GT(record.complete_time, record.report_time);
}

}  // namespace
}  // namespace mercury::core

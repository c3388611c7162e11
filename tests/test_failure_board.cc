// Unit tests: the failure board's cure rule (§4's f_ci machinery).
#include <gtest/gtest.h>

#include "core/failure_board.h"
#include "obs/trace.h"

namespace mercury::core {
namespace {

using util::TimePoint;

TimePoint at(double seconds) { return TimePoint::from_seconds(seconds); }

TEST(FailureSpecs, CrashAndJointConstructors) {
  const FailureSpec crash = make_crash("ses");
  EXPECT_EQ(crash.manifest, "ses");
  EXPECT_EQ(crash.cure_set, std::vector<std::string>{"ses"});
  EXPECT_EQ(crash.kind, "crash");

  const FailureSpec joint = make_joint("pbcom", {"fedr", "pbcom", "fedr"});
  EXPECT_EQ(joint.manifest, "pbcom");
  EXPECT_EQ(joint.cure_set, (std::vector<std::string>{"fedr", "pbcom"}));
  EXPECT_EQ(joint.kind, "joint");
}

TEST(FailureBoard, InjectManifestsAtComponent) {
  FailureBoard board;
  EXPECT_FALSE(board.any_active());
  board.inject(make_crash("ses"), at(1.0));
  EXPECT_TRUE(board.any_active());
  EXPECT_TRUE(board.manifests_at("ses"));
  EXPECT_FALSE(board.manifests_at("str"));
  ASSERT_EQ(board.active_at("ses").size(), 1u);
  EXPECT_EQ(board.active_at("ses")[0].onset, at(1.0));
}

TEST(FailureBoard, RestartOfCureSetCures) {
  FailureBoard board;
  board.inject(make_crash("ses"), at(1.0));
  board.on_restart_complete("ses", at(5.0));
  EXPECT_FALSE(board.any_active());
  EXPECT_EQ(board.total_cured(), 1u);
}

TEST(FailureBoard, UnrelatedRestartDoesNotCure) {
  FailureBoard board;
  board.inject(make_crash("ses"), at(1.0));
  board.on_restart_complete("str", at(5.0));
  EXPECT_TRUE(board.manifests_at("ses"));
}

TEST(FailureBoard, JointFailureNeedsWholeCureSet) {
  FailureBoard board;
  board.inject(make_joint("pbcom", {"fedr", "pbcom"}), at(0.0));
  // Guess-too-low: pbcom alone does not cure (§4.4).
  board.on_restart_complete("pbcom", at(21.0));
  EXPECT_TRUE(board.manifests_at("pbcom"));
  // Completing the cure set does.
  board.on_restart_complete("fedr", at(43.0));
  EXPECT_FALSE(board.any_active());
}

TEST(FailureBoard, CureSetMembersMayRestartInAnyOrder) {
  FailureBoard board;
  board.inject(make_joint("pbcom", {"fedr", "pbcom"}), at(0.0));
  board.on_restart_complete("fedr", at(5.0));
  EXPECT_TRUE(board.manifests_at("pbcom"));
  board.on_restart_complete("pbcom", at(25.0));
  EXPECT_FALSE(board.any_active());
}

TEST(FailureBoard, DuplicateRestartCountsOnce) {
  FailureBoard board;
  board.inject(make_joint("pbcom", {"fedr", "pbcom"}), at(0.0));
  board.on_restart_complete("pbcom", at(5.0));
  board.on_restart_complete("pbcom", at(10.0));
  EXPECT_TRUE(board.manifests_at("pbcom"));  // fedr still pending
}

TEST(FailureBoard, IndependentFailuresCureIndependently) {
  FailureBoard board;
  const FailureId ses_failure = board.inject(make_crash("ses"), at(0.0));
  board.inject(make_crash("rtu"), at(1.0));
  (void)ses_failure;
  board.on_restart_complete("rtu", at(6.0));
  EXPECT_TRUE(board.manifests_at("ses"));
  EXPECT_FALSE(board.manifests_at("rtu"));
  EXPECT_EQ(board.active().size(), 1u);
}

TEST(FailureBoard, TwoFailuresSameComponentCureTogether) {
  FailureBoard board;
  board.inject(make_crash("ses"), at(0.0));
  board.inject(make_crash("ses"), at(1.0));
  EXPECT_EQ(board.active_at("ses").size(), 2u);
  board.on_restart_complete("ses", at(5.0));
  EXPECT_FALSE(board.any_active());
  EXPECT_EQ(board.total_cured(), 2u);
}

TEST(FailureBoard, ListenersFire) {
  FailureBoard board;
  int injected = 0;
  int cured = 0;
  TimePoint cure_time;
  board.add_inject_listener([&](const ActiveFailure&) { ++injected; });
  board.add_cure_listener([&](const ActiveFailure& failure, TimePoint now) {
    ++cured;
    cure_time = now;
    EXPECT_EQ(failure.spec->manifest, "ses");
  });
  board.inject(make_crash("ses"), at(0.0));
  EXPECT_EQ(injected, 1);
  board.on_restart_complete("ses", at(7.0));
  EXPECT_EQ(cured, 1);
  EXPECT_EQ(cure_time, at(7.0));
}

TEST(FailureBoard, ClearRemovesById) {
  FailureBoard board;
  const FailureId id = board.inject(make_crash("ses"), at(0.0));
  EXPECT_TRUE(board.clear(id));
  EXPECT_FALSE(board.clear(id));
  EXPECT_FALSE(board.any_active());
}

TEST(FailureBoard, ClearDoesNotFireListenersOrCountAsCured) {
  // clear() forcibly removes a failure (operator/test intervention); it was
  // removed, not cured, so cure listeners must stay silent — a listener
  // treating it as a cure would credit recovery machinery that never ran.
  FailureBoard board;
  int cures = 0;
  int injects = 0;
  board.add_cure_listener([&](const ActiveFailure&, util::TimePoint) { ++cures; });
  board.add_inject_listener([&](const ActiveFailure&) { ++injects; });

  const FailureId id = board.inject(make_crash("ses"), at(0.0));
  EXPECT_EQ(injects, 1);
  EXPECT_TRUE(board.clear(id));
  EXPECT_EQ(cures, 0);
  EXPECT_EQ(board.total_cured(), 0u);
  EXPECT_FALSE(board.any_active());

  // A real cure afterwards still fires: clear() removed one failure, not
  // the listener wiring.
  board.inject(make_crash("ses"), at(1.0));
  board.on_restart_complete("ses", at(2.0));
  EXPECT_EQ(cures, 1);
  EXPECT_EQ(injects, 2);
}

TEST(FailureBoard, RepeatedCureSetMemberNeedsOneRestart) {
  FailureBoard board;
  FailureSpec spec;
  spec.manifest = "ses";
  spec.cure_set = {"ses", "ses"};
  board.inject(std::move(spec), at(0.0));
  board.on_restart_complete("ses", at(5.0));
  EXPECT_FALSE(board.any_active());
  EXPECT_EQ(board.total_cured(), 1u);
}

TEST(FailureBoard, InjectDropsRepeatedMembersInFirstSeenOrder) {
  FailureBoard board;
  FailureSpec spec;
  spec.manifest = "str";
  spec.cure_set = {"str", "ses", "str", "rtu", "ses"};
  board.inject(std::move(spec), at(0.0));
  ASSERT_EQ(board.active().size(), 1u);
  EXPECT_EQ(board.active().front().spec->cure_set,
            (std::vector<std::string>{"str", "ses", "rtu"}));
}

TEST(FailureBoard, EqualSpecsShareOneInternedCopy) {
  FailureBoard board;
  board.inject(make_crash("ses"), at(0.0));
  board.inject(make_joint("pbcom", {"fedr", "pbcom"}), at(1.0));
  board.inject(make_crash("ses"), at(2.0));
  board.inject(make_stale_attachment("ses"), at(3.0));
  const auto& active = board.active();
  ASSERT_EQ(active.size(), 4u);
  EXPECT_EQ(active[0].spec, active[2].spec);
  EXPECT_NE(active[0].spec, active[3].spec);  // same component, other kind
  EXPECT_NE(active[0].spec, active[1].spec);
}

TEST(FailureBoard, CuresAtScaleInAscendingIdOrder) {
  // 100k crashes of fedr and pbcom with a joint {fedr,pbcom} failure after
  // every fourth: restarting fedr cures its crashes only; restarting pbcom
  // then cures the rest, crashes and joints interleaved by id.
  constexpr int kCrashes = 100000;
  obs::TraceRecorder recorder;
  obs::ScopedRecorder scope(recorder);
  FailureBoard board;
  std::vector<FailureId> cured_ids;
  board.add_cure_listener([&](const ActiveFailure& failure, TimePoint) {
    cured_ids.push_back(failure.id);
  });
  std::vector<FailureId> fedr_crashes, pbcom_cures;
  for (int i = 0; i < kCrashes; ++i) {
    const TimePoint now = at(i);
    if (i % 2 == 0) {
      fedr_crashes.push_back(board.inject(make_crash("fedr"), now));
    } else {
      pbcom_cures.push_back(board.inject(make_crash("pbcom"), now));
    }
    if (i % 4 == 3) {
      pbcom_cures.push_back(
          board.inject(make_joint("pbcom", {"fedr", "pbcom"}), now));
    }
  }
  const std::uint64_t joints = kCrashes / 4;
  ASSERT_EQ(board.total_injected(), kCrashes + joints);

  board.on_restart_complete("fedr", at(kCrashes));
  EXPECT_EQ(cured_ids, fedr_crashes);
  EXPECT_EQ(board.total_cured(), fedr_crashes.size());
  EXPECT_FALSE(board.manifests_at("fedr"));
  EXPECT_EQ(board.active().size(), pbcom_cures.size());

  board.on_restart_complete("pbcom", at(kCrashes + 1.0));
  std::vector<FailureId> expected = fedr_crashes;
  expected.insert(expected.end(), pbcom_cures.begin(), pbcom_cures.end());
  EXPECT_EQ(cured_ids, expected);
  EXPECT_EQ(board.total_cured(), board.total_injected());
  EXPECT_FALSE(board.any_active());

  // The trace's fault.cured events name the same ids in the same order.
  std::vector<FailureId> traced_ids;
  for (const obs::TraceEvent& event : recorder.events()) {
    if (event.name != "fault.cured") continue;
    std::uint64_t id = 0;
    ASSERT_TRUE(event.find_arg(obs::Label("id"))->to_u64(id));
    traced_ids.push_back(id);
  }
  EXPECT_EQ(recorder.dropped(), 0u);
  EXPECT_EQ(traced_ids, expected);
}

TEST(FailureBoard, CountersTrack) {
  FailureBoard board;
  board.inject(make_crash("a"), at(0.0));
  board.inject(make_crash("b"), at(0.0));
  EXPECT_EQ(board.total_injected(), 2u);
  board.on_restart_complete("a", at(1.0));
  EXPECT_EQ(board.total_cured(), 1u);
}

}  // namespace
}  // namespace mercury::core

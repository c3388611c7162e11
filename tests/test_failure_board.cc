// Unit tests: the failure board's cure rule (§4's f_ci machinery).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/failure_board.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "station/fault_injector.h"
#include "station/station.h"
#include "util/rng.h"
#include "util/strings.h"

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

// --- Differential against the per-failure-mask board -------------------------

/// The board as it stood before restart watermarks: one deque of every
/// active failure in id order, each carrying its own restarted mask, cured
/// by scanning the whole deque. Kept as the oracle the compact board must
/// match op for op.
class ReferenceBoard {
 public:
  FailureId inject(FailureSpec spec, TimePoint now) {
    auto& cure_set = spec.cure_set;
    for (auto it = cure_set.begin(); it != cure_set.end();) {
      it = std::find(cure_set.begin(), it, *it) != it ? cure_set.erase(it) : it + 1;
    }
    ActiveFailure failure;
    failure.id = next_id_++;
    failure.spec = &*specs_.insert(std::move(spec)).first;
    failure.onset = now;
    active_.push_back(failure);
    obs::instant(now, "fault", "fault.manifest", "board",
                 {{"manifest", failure.spec->manifest},
                  {"cure", util::join(failure.spec->cure_set, ",")},
                  {"kind", failure.spec->kind},
                  {"id", failure.id}});
    injected.push_back(failure);
    return failure.id;
  }

  void on_restart_complete(const std::string& component, TimePoint now) {
    std::vector<ActiveFailure> batch;
    for (auto& failure : active_) {
      const auto& cure_set = failure.spec->cure_set;
      const auto member = std::find(cure_set.begin(), cure_set.end(), component);
      if (member == cure_set.end()) continue;
      failure.restarted |= std::uint32_t{1} << (member - cure_set.begin());
      if (failure.cured()) batch.push_back(failure);
    }
    std::erase_if(active_, [](const ActiveFailure& f) { return f.cured(); });
    finish(batch, now);
  }

  void on_soft_recovery_complete(const std::string& component, TimePoint now) {
    const auto soft = [&](const ActiveFailure& f) {
      return f.spec->soft_curable && f.spec->manifest == component;
    };
    std::vector<ActiveFailure> batch;
    std::copy_if(active_.begin(), active_.end(), std::back_inserter(batch), soft);
    std::erase_if(active_, soft);
    finish(batch, now);
  }

  bool manifests_at(const std::string& component) const {
    return !active_at(component).empty();
  }

  std::vector<ActiveFailure> active_at(const std::string& component) const {
    std::vector<ActiveFailure> out;
    std::copy_if(active_.begin(), active_.end(), std::back_inserter(out),
                 [&](const ActiveFailure& f) { return f.spec->manifest == component; });
    return out;
  }

  bool clear(FailureId id) {
    return std::erase_if(active_, [id](const ActiveFailure& f) { return f.id == id; }) > 0;
  }

  const std::deque<ActiveFailure>& active() const { return active_; }
  std::uint64_t total_cured() const { return total_cured_; }

  std::vector<ActiveFailure> injected;
  std::vector<ActiveFailure> cured;

 private:
  void finish(const std::vector<ActiveFailure>& batch, TimePoint now) {
    total_cured_ += batch.size();
    for (const auto& failure : batch) {
      obs::instant(now, "fault", "fault.cured", "board",
                   {{"manifest", failure.spec->manifest},
                    {"id", failure.id},
                    {"kind", failure.spec->kind}});
      cured.push_back(failure);
    }
  }

  std::deque<ActiveFailure> active_;
  std::set<FailureSpec> specs_;
  FailureId next_id_ = 1;
  std::uint64_t total_cured_ = 0;
};

/// Equal failures, with specs compared by value (each board interns its own).
template <typename A, typename B>
::testing::AssertionResult same_failures(const A& got, const B& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " failures, want " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const ActiveFailure& g = got[i];
    const ActiveFailure& w = want[i];
    if (g.id != w.id || g.onset != w.onset || *g.spec != *w.spec ||
        g.restarted != w.restarted) {
      return ::testing::AssertionFailure()
             << "failure " << i << ": id " << g.id << " want " << w.id
             << ", restarted " << g.restarted << " want " << w.restarted;
    }
  }
  return ::testing::AssertionSuccess();
}

std::string jsonl_of(const obs::TraceRecorder& recorder) {
  std::ostringstream out;
  recorder.write_jsonl(out);
  return out.str();
}

TEST(FailureBoard, RandomizedDifferentialAgainstPerFailureMaskModel) {
  // Property fuzz: drive the board and the reference with the same random
  // injects (crash, joint, stale-attachment, repeated cure-set members),
  // restarts, soft recoveries and clears of live and unknown ids. After every
  // op the listener sequences, every query and the recorded trace must match.
  const std::vector<std::string> pool = {"fedr", "pbcom", "ses", "str", "rtu"};
  util::Rng rng(2024);
  const auto pick = [&]() -> const std::string& {
    return pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
  };

  FailureBoard board;
  ReferenceBoard reference;
  std::vector<ActiveFailure> injected, cured;
  board.add_inject_listener([&](const ActiveFailure& f) { injected.push_back(f); });
  board.add_cure_listener(
      [&](const ActiveFailure& f, TimePoint) { cured.push_back(f); });
  obs::TraceRecorder board_trace, reference_trace;

  // Runs `op` against each board under its own recorder.
  const auto both = [&](const auto& on_board, const auto& on_reference) {
    {
      obs::ScopedRecorder scope(board_trace);
      on_board();
    }
    obs::ScopedRecorder scope(reference_trace);
    on_reference();
  };

  for (int op = 0; op < 10'000 && !HasFailure(); ++op) {
    const TimePoint now = at(op);
    const auto kind = rng.uniform_int(0, 19);
    if (kind < 8) {
      FailureSpec spec;
      const auto shape = rng.uniform_int(0, 3);
      if (shape == 0) {
        spec = make_crash(pick());
      } else if (shape == 1) {
        spec = make_stale_attachment(pick());
      } else if (shape == 2) {  // make_joint requires the manifest in the cure set
        const std::string manifest = pick();
        spec = make_joint(manifest, {manifest, pick(), pick()});
      } else {  // repeated members, unsorted, maybe soft-curable
        spec.manifest = pick();
        spec.cure_set = {pick(), spec.manifest, pick(), spec.manifest};
        spec.soft_curable = rng.chance(0.5);
        spec.kind = "repeated";
      }
      FailureId got = 0, want = 0;
      both([&] { got = board.inject(spec, now); },
           [&] { want = reference.inject(spec, now); });
      EXPECT_EQ(got, want) << "op " << op;
    } else if (kind < 14) {
      const std::string& component = pick();
      both([&] { board.on_restart_complete(component, now); },
           [&] { reference.on_restart_complete(component, now); });
    } else if (kind < 16) {
      const std::string& component = pick();
      both([&] { board.on_soft_recovery_complete(component, now); },
           [&] { reference.on_soft_recovery_complete(component, now); });
    } else {
      // A live id when there is one, else (or one time in four) an id that
      // is cured, cleared or not yet issued.
      FailureId id = static_cast<FailureId>(rng.uniform_int(0, op + 2));
      if (!reference.active().empty() && kind < 19) {
        id = reference.active()[static_cast<std::size_t>(rng.uniform_int(
                 0, static_cast<std::int64_t>(reference.active().size()) - 1))]
                 .id;
      }
      bool got = false, want = false;
      both([&] { got = board.clear(id); }, [&] { want = reference.clear(id); });
      EXPECT_EQ(got, want) << "op " << op << " clear " << id;
    }

    EXPECT_TRUE(same_failures(injected, reference.injected)) << "op " << op;
    EXPECT_TRUE(same_failures(cured, reference.cured)) << "op " << op;
    EXPECT_TRUE(same_failures(board.active(), reference.active())) << "op " << op;
    for (const std::string& component : pool) {
      EXPECT_TRUE(same_failures(board.active_at(component),
                                reference.active_at(component)))
          << "op " << op << " " << component;
      EXPECT_EQ(board.manifests_at(component), reference.manifests_at(component))
          << "op " << op << " " << component;
    }
    EXPECT_EQ(board.any_active(), !reference.active().empty()) << "op " << op;
    EXPECT_EQ(board.active_count(), reference.active().size()) << "op " << op;
    EXPECT_EQ(board.total_cured(), reference.total_cured()) << "op " << op;
    EXPECT_EQ(jsonl_of(board_trace), jsonl_of(reference_trace)) << "op " << op;

    injected.clear();
    reference.injected.clear();
    cured.clear();
    reference.cured.clear();
    board_trace.clear();
    reference_trace.clear();
  }
  EXPECT_GT(board.total_cured(), 1000u);
}

TEST(FailureBoardFootprint, TwoYearTable1BoardIsCompact) {
  // bench_table1's untraced run: two simulated years of the Table-1
  // injector with no repair loop leave ~10^5 never-cured failures on the
  // board. Each must cost about one 16-byte entry.
  sim::Simulator sim(42);
  station::StationConfig config;
  config.split_fedrcom = false;
  config.enable_domain_behavior = false;
  station::Station station(sim, config);
  station.boot_instant();
  station::InjectorConfig injector_config;
  injector_config.suppress_double_faults = false;
  injector_config.fedr_weibull_shape = 1.0;
  station::FaultInjector injector(station, injector_config);
  injector.start();
  sim.run_for(util::Duration::days(2 * 365.0));

  const FailureBoard& board = station.board();
  ASSERT_GT(board.active_count(), 100'000u);
  const double bytes_per_failure = static_cast<double>(board.memory_bytes()) /
                                   static_cast<double>(board.active_count());
  RecordProperty("bytes_per_failure", std::to_string(bytes_per_failure));
  EXPECT_LE(bytes_per_failure, 20.0);
}

}  // namespace
}  // namespace mercury::core

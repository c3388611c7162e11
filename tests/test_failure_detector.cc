// Unit tests: the failure detector in isolation, against scripted endpoints
// (no station) — ping scheduling, timeout handling, mbus verification,
// masking, cooldowns, and FD's own lifecycle.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "bus/dedicated_link.h"
#include "bus/message_bus.h"
#include "core/failure_detector.h"
#include "sim/simulator.h"

namespace mercury::core {
namespace {

using util::Duration;

/// A scripted component on the bus: answers pings while `alive`.
class FakeEndpoint {
 public:
  FakeEndpoint(bus::MessageBus& bus, std::string name) : bus_(bus), name_(std::move(name)) {
    attach();
  }
  void attach() {
    bus_.attach(name_, [this](const msg::Message& m) {
      ++received_;
      if (alive && m.kind == msg::Kind::kPing) {
        bus_.send(msg::make_pong(m, name_));
      }
    });
  }
  bool alive = true;
  int received_ = 0;

 private:
  bus::MessageBus& bus_;
  std::string name_;
};

class FdTest : public ::testing::Test {
 protected:
  FdTest() : sim_(9), bus_(sim_, bus::BusConfig{}), link_(sim_, "fd", "rec") {
    // The REC side of the link records failure reports.
    link_.bind("rec", [this](const msg::Message& m) {
      if (m.kind == msg::Kind::kCommand && m.verb == "report-failure") {
        reports_.push_back(m.body.attr_or("component", "?"));
      }
    });
  }

  void build_fd(std::vector<std::string> targets, FdConfig config = {}) {
    for (const auto& target : targets) {
      endpoints_.emplace(target, std::make_unique<FakeEndpoint>(bus_, target));
    }
    fd_ = std::make_unique<FailureDetector>(sim_, bus_, link_, targets, config);
    fd_->start();
  }

  void mask(const std::string& component) { send_mask_command("mask", component); }
  void unmask(const std::string& component) {
    send_mask_command("unmask", component);
  }
  void send_mask_command(const std::string& verb, const std::string& component) {
    msg::Message command = msg::make_command("rec", "fd", 1, verb);
    command.body.set_attr("components", component);
    link_.send(command);
    sim_.run_for(Duration::millis(5.0));
  }

  sim::Simulator sim_;
  bus::MessageBus bus_;
  bus::DedicatedLink link_;
  std::map<std::string, std::unique_ptr<FakeEndpoint>> endpoints_;
  std::unique_ptr<FailureDetector> fd_;
  std::vector<std::string> reports_;
};

TEST_F(FdTest, HealthyTargetsNeverReported) {
  build_fd({"mbus", "a", "b"});
  sim_.run_for(Duration::minutes(2.0));
  EXPECT_TRUE(reports_.empty());
  EXPECT_GT(fd_->pings_sent(), 300u);
  // The very last ping's pong may still be in flight at the horizon.
  EXPECT_GE(fd_->pongs_received() + 1, fd_->pings_sent());
}

TEST_F(FdTest, PingLoopsAreStaggered) {
  build_fd({"mbus", "a", "b", "c"});
  // After one period every target has been pinged exactly once, and the
  // pings were not simultaneous: receive counters fill in gradually.
  sim_.run_for(Duration::millis(600.0));
  int pinged = 0;
  for (auto& [name, endpoint] : endpoints_) pinged += endpoint->received_ > 0;
  EXPECT_GT(pinged, 0);
  EXPECT_LT(pinged, 4);  // not all yet: staggered phases
  sim_.run_for(Duration::millis(500.0));
  for (auto& [name, endpoint] : endpoints_) {
    EXPECT_EQ(endpoint->received_, 1) << name;
  }
}

TEST_F(FdTest, DeadTargetReportedWithinPeriodPlusTimeout) {
  build_fd({"mbus", "a"});
  sim_.run_for(Duration::seconds(2.0));
  endpoints_["a"]->alive = false;
  sim_.run_for(Duration::seconds(2.0));
  // Detection within period (1 s) + timeout (0.15 s); the cooldown allows
  // one re-report of the still-dead target inside the 2 s horizon.
  ASSERT_GE(reports_.size(), 1u);
  ASSERT_LE(reports_.size(), 2u);
  for (const auto& component : reports_) EXPECT_EQ(component, "a");
}

TEST_F(FdTest, DeadMbusReportedNotTheInnocents) {
  build_fd({"mbus", "a", "b"});
  sim_.run_for(Duration::seconds(2.0));
  bus_.crash();  // total silence for everyone
  sim_.run_for(Duration::seconds(3.0));
  ASSERT_FALSE(reports_.empty());
  for (const auto& report : reports_) EXPECT_EQ(report, "mbus");
}

TEST_F(FdTest, DeadTargetIsReportedAboutOncePerPingPeriod) {
  build_fd({"mbus", "a"});
  endpoints_["a"]->alive = false;
  sim_.run_for(Duration::seconds(5.0));
  // Unmasked and persistently dead: each 1 s ping times out once, so about
  // one report per ping period, not more. (The report cooldown is shorter
  // than the period and never acts here; see the next test for it.)
  EXPECT_GE(reports_.size(), 3u);
  EXPECT_LE(reports_.size(), 6u);
}

TEST_F(FdTest, ReportCooldownSuppressesRepeatsInsideIt) {
  // Pinging every 400 ms, a dead target times out twice inside FD's fixed
  // 900 ms report cooldown and a third time just past it.
  FdConfig config;
  config.ping_period = Duration::millis(400.0);
  build_fd({"mbus", "a"}, config);
  sim_.run_for(Duration::seconds(1.0));
  endpoints_["a"]->alive = false;
  while (reports_.empty()) ASSERT_TRUE(sim_.step());
  const int pings_at_first_report = endpoints_["a"]->received_;

  // The misses at about +400 and +800 ms are suppressed.
  sim_.run_for(Duration::millis(850.0));
  EXPECT_EQ(endpoints_["a"]->received_, pings_at_first_report + 2);
  EXPECT_EQ(reports_.size(), 1u);

  // The miss at about +1200 ms is past the cooldown and goes through.
  sim_.run_for(Duration::millis(400.0));
  ASSERT_EQ(reports_.size(), 2u);
  EXPECT_EQ(reports_[1], "a");
}

TEST_F(FdTest, MaskSuppressesReportsUntilUnmask) {
  build_fd({"mbus", "a"});
  mask("a");
  EXPECT_TRUE(fd_->is_masked("a"));
  endpoints_["a"]->alive = false;
  sim_.run_for(Duration::seconds(3.0));
  EXPECT_TRUE(reports_.empty());

  unmask("a");
  sim_.run_for(Duration::seconds(2.0));
  ASSERT_FALSE(reports_.empty());
  EXPECT_EQ(reports_[0], "a");
}

TEST_F(FdTest, MaskingMbusPausesAllProbing) {
  build_fd({"mbus", "a"});
  mask("mbus");
  const auto pings_before = fd_->pings_sent();
  endpoints_["a"]->alive = false;
  sim_.run_for(Duration::seconds(3.0));
  EXPECT_EQ(fd_->pings_sent(), pings_before);  // nothing to probe while bus down
  EXPECT_TRUE(reports_.empty());
}

TEST_F(FdTest, CrashedFdDetectsNothing) {
  build_fd({"mbus", "a"});
  fd_->crash();
  endpoints_["a"]->alive = false;
  sim_.run_for(Duration::seconds(3.0));
  EXPECT_TRUE(reports_.empty());

  fd_->restart_complete();
  sim_.run_for(Duration::seconds(2.0));
  ASSERT_FALSE(reports_.empty());
  EXPECT_EQ(reports_[0], "a");
}

TEST_F(FdTest, AnswersRecLivenessPings) {
  build_fd({"mbus"});
  bool pong = false;
  link_.bind("rec", [&](const msg::Message& m) {
    if (m.kind == msg::Kind::kPong && m.from == "fd") pong = true;
  });
  link_.send(msg::make_ping("rec", "fd", 7));
  sim_.run_for(Duration::millis(10.0));
  EXPECT_TRUE(pong);

  fd_->crash();
  pong = false;
  link_.send(msg::make_ping("rec", "fd", 8));
  sim_.run_for(Duration::millis(10.0));
  EXPECT_FALSE(pong);  // fail-silent
}

TEST_F(FdTest, MonitorsRecAndTriggersRestart) {
  build_fd({"mbus"});
  int rec_restarts = 0;
  fd_->set_rec_restarter([&] { ++rec_restarts; });
  fd_->monitor_rec();
  // The REC binding above never answers pings (it only records reports), so
  // FD must decide REC is dead.
  sim_.run_for(Duration::seconds(3.0));
  EXPECT_EQ(rec_restarts, 1);  // grace period prevents a storm
  sim_.run_for(Duration::seconds(10.0));
  EXPECT_LE(rec_restarts, 3);
}

class LossyEndpoint {
 public:
  LossyEndpoint(bus::MessageBus& bus, std::string name) : bus_(bus), name_(std::move(name)) {
    bus_.attach(name_, [this](const msg::Message& m) {
      if (m.kind != msg::Kind::kPing) return;
      ++pings_;
      // Drop exactly one reply (the drop_seq-th ping seen).
      if (pings_ == drop_nth) return;
      bus_.send(msg::make_pong(m, name_));
    });
  }
  int drop_nth = -1;
  int pings_ = 0;

 private:
  bus::MessageBus& bus_;
  std::string name_;
};

TEST_F(FdTest, SingleMissThresholdReportsOnOneLostReply) {
  FdConfig config;
  config.misses_before_report = 1;
  LossyEndpoint mbus_endpoint(bus_, "mbus");
  LossyEndpoint flaky(bus_, "a");
  flaky.drop_nth = 3;
  fd_ = std::make_unique<FailureDetector>(
      sim_, bus_, link_, std::vector<std::string>{"mbus", "a"}, config);
  fd_->start();
  sim_.run_for(Duration::seconds(6.0));
  // One dropped pong => one (spurious) report under the paper's k=1.
  ASSERT_EQ(reports_.size(), 1u);
  EXPECT_EQ(reports_[0], "a");
}

TEST_F(FdTest, TwoMissThresholdToleratesOneLostReply) {
  FdConfig config;
  config.misses_before_report = 2;
  LossyEndpoint mbus_endpoint(bus_, "mbus");
  LossyEndpoint flaky(bus_, "a");
  flaky.drop_nth = 3;
  fd_ = std::make_unique<FailureDetector>(
      sim_, bus_, link_, std::vector<std::string>{"mbus", "a"}, config);
  fd_->start();
  sim_.run_for(Duration::seconds(6.0));
  EXPECT_TRUE(reports_.empty());
}

TEST_F(FdTest, TwoMissThresholdStillDetectsRealDeathOnePeriodLater) {
  FdConfig config;
  config.misses_before_report = 2;
  endpoints_.emplace("mbus", std::make_unique<FakeEndpoint>(bus_, "mbus"));
  endpoints_.emplace("a", std::make_unique<FakeEndpoint>(bus_, "a"));
  fd_ = std::make_unique<FailureDetector>(
      sim_, bus_, link_, std::vector<std::string>{"mbus", "a"}, config);
  fd_->start();
  sim_.run_for(Duration::seconds(2.0));
  endpoints_["a"]->alive = false;
  const auto killed = sim_.now();
  sim_.run_for(Duration::seconds(4.0));
  ASSERT_FALSE(reports_.empty());
  EXPECT_EQ(reports_[0], "a");
  (void)killed;
}

TEST_F(FdTest, ReattachSurvivesBusRestart) {
  build_fd({"mbus", "a"});
  // Pause at a moment with no ping in flight (pings go out on the half and
  // full second; pongs return within ~10 ms) so the instantaneous bus
  // bounce below loses no messages.
  sim_.run_for(Duration::seconds(1.2));
  bus_.crash();
  bus_.restart();
  for (auto& [name, endpoint] : endpoints_) endpoint->attach();
  fd_->reattach();
  const auto pongs_before = fd_->pongs_received();
  sim_.run_for(Duration::seconds(2.0));
  EXPECT_GT(fd_->pongs_received(), pongs_before);
  EXPECT_TRUE(reports_.empty());
}

}  // namespace
}  // namespace mercury::core

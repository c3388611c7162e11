// Unit tests: station components, coordination protocols, hardware models,
// and the process manager.
#include <gtest/gtest.h>

#include "core/mercury_trees.h"
#include "sim/simulator.h"
#include "station/fault_injector.h"
#include "orbit/pass_predictor.h"
#include "station/station.h"

namespace mercury::station {
namespace {

namespace names = core::component_names;
using util::Duration;
using util::TimePoint;

class StationTest : public ::testing::Test {
 protected:
  StationTest() : sim_(1) {}

  Station& make_station(bool split = true, bool domain = false) {
    StationConfig config;
    config.split_fedrcom = split;
    config.enable_domain_behavior = domain;
    station_ = std::make_unique<Station>(sim_, config);
    station_->boot_instant();
    return *station_;
  }

  /// Ping `component` over the bus and report whether a pong arrives.
  bool answers_ping(Station& station, const std::string& component) {
    bool answered = false;
    station.bus().attach("probe", [&](const msg::Message& m) {
      if (m.kind == msg::Kind::kPong && m.from == component) answered = true;
    });
    station.bus().send(msg::make_ping("probe", component, ++probe_seq_));
    sim_.run_for(Duration::millis(50.0));
    station.bus().detach("probe");
    return answered;
  }

  sim::Simulator sim_;
  std::unique_ptr<Station> station_;
  std::uint64_t probe_seq_ = 0;
};

// --- Basic lifecycle ---------------------------------------------------------

TEST_F(StationTest, InstantBootIsFullyFunctional) {
  Station& station = make_station();
  EXPECT_TRUE(station.all_functional());
  for (const auto& name : station.component_names()) {
    EXPECT_TRUE(station.component(name)->functional()) << name;
  }
}

TEST_F(StationTest, SplitConfigurationComponentSet) {
  Station& split = make_station(true);
  const auto split_names = split.component_names();
  EXPECT_EQ(split_names.size(), 6u);
  EXPECT_NE(split.component(names::kFedr), nullptr);
  EXPECT_NE(split.component(names::kPbcom), nullptr);
  EXPECT_EQ(split.component(names::kFedrcom), nullptr);
  EXPECT_EQ(split.radio_frontend_name(), names::kFedr);
}

TEST_F(StationTest, FusedConfigurationComponentSet) {
  Station& fused = make_station(false);
  EXPECT_EQ(fused.component_names().size(), 5u);
  EXPECT_NE(fused.component(names::kFedrcom), nullptr);
  EXPECT_EQ(fused.component(names::kFedr), nullptr);
  EXPECT_EQ(fused.radio_frontend_name(), names::kFedrcom);
}

TEST_F(StationTest, ComponentsAnswerPingsWhenHealthy) {
  Station& station = make_station();
  for (const auto& name : station.component_names()) {
    EXPECT_TRUE(answers_ping(station, name)) << name;
  }
}

TEST_F(StationTest, CrashedComponentIsFailSilent) {
  Station& station = make_station();
  station.inject_crash(names::kRtu);
  EXPECT_FALSE(answers_ping(station, names::kRtu));
  EXPECT_FALSE(station.component(names::kRtu)->responsive());
  EXPECT_TRUE(station.component(names::kRtu)->up());  // zombie process
  EXPECT_FALSE(station.all_functional());
  // Others unaffected.
  EXPECT_TRUE(answers_ping(station, names::kSes));
}

TEST_F(StationTest, RestartCuresCrash) {
  Station& station = make_station();
  station.inject_crash(names::kRtu);
  bool completed = false;
  station.process_manager().restart_group({names::kRtu},
                                          [&] { completed = true; });
  EXPECT_TRUE(station.component(names::kRtu)->restarting());
  sim_.run_for(Duration::seconds(6.0));
  EXPECT_TRUE(completed);
  EXPECT_FALSE(station.board().any_active());
  EXPECT_TRUE(answers_ping(station, names::kRtu));
}

TEST_F(StationTest, RestartDurationMatchesCalibration) {
  Station& station = make_station();
  TimePoint done;
  station.process_manager().restart_group({names::kRtu},
                                          [&] { done = sim_.now(); });
  sim_.run_all();
  EXPECT_NEAR((done - TimePoint::origin()).to_seconds(),
              station.cal().rtu.startup_mean.to_seconds(), 0.5);
}

TEST_F(StationTest, KilledComponentDetachesFromBus) {
  Station& station = make_station();
  station.component(names::kRtu)->kill();
  EXPECT_FALSE(station.bus().attached(names::kRtu));
  EXPECT_FALSE(answers_ping(station, names::kRtu));
}

// --- Contention (§4.1) --------------------------------------------------------

TEST_F(StationTest, WholeSystemRestartContends) {
  Station& station = make_station(false);
  TimePoint done;
  station.process_manager().restart_group(station.component_names(),
                                          [&] { done = sim_.now(); });
  sim_.run_all();
  const double base = station.cal().fedrcom.startup_mean.to_seconds();
  const double contended = (done - TimePoint::origin()).to_seconds();
  // 5 concurrent restarts: factor 1 + 0.0628*3 ~ 1.19.
  EXPECT_GT(contended, base * 1.15);
  EXPECT_LT(contended, base * 1.25);
}

TEST_F(StationTest, PairRestartDoesNotContend) {
  Station& station = make_station();
  TimePoint done;
  station.process_manager().restart_group({names::kFedr, names::kPbcom},
                                          [&] { done = sim_.now(); });
  sim_.run_all();
  EXPECT_NEAR((done - TimePoint::origin()).to_seconds(),
              station.cal().pbcom.startup_mean.to_seconds(), 0.8);
}

TEST_F(StationTest, OverlappingGroupsSupersedeInFlightMembers) {
  Station& station = make_station();
  int completions = 0;
  station.process_manager().restart_group({names::kRtu}, [&] { ++completions; });
  // Overlapping second group: rtu already in flight, ses fresh. The second
  // group supersedes rtu's stale attempt (re-kill, fresh start) instead of
  // folding into it — a hung first attempt must not absorb the retry.
  station.process_manager().restart_group({names::kRtu, names::kSes},
                                          [&] { ++completions; });
  sim_.run_all();
  // Both groups complete: the abandoned one drains via supersession (its
  // initiator guards with action ids), the new one finishes for real.
  EXPECT_EQ(completions, 2);
  // rtu attempted twice (original + superseding), ses once.
  EXPECT_EQ(station.process_manager().restarts_performed(), 3u);
  EXPECT_FALSE(station.process_manager().restart_in_progress());
}

// --- mbus semantics -------------------------------------------------------------

TEST_F(StationTest, MbusCrashTakesBusDown) {
  Station& station = make_station();
  station.inject_crash(names::kMbus);
  EXPECT_FALSE(station.bus().online());
  EXPECT_FALSE(station.all_functional());
  EXPECT_FALSE(answers_ping(station, names::kSes));  // everyone silent
}

TEST_F(StationTest, MbusRestartReattachesEveryone) {
  Station& station = make_station();
  station.inject_crash(names::kMbus);
  station.process_manager().restart_group({names::kMbus}, nullptr);
  sim_.run_for(Duration::seconds(7.0));
  EXPECT_TRUE(station.bus().online());
  EXPECT_TRUE(station.all_functional());
  for (const auto& name : station.component_names()) {
    EXPECT_TRUE(answers_ping(station, name)) << name;
  }
}

TEST_F(StationTest, BusRestartListenerFires) {
  Station& station = make_station();
  int fired = 0;
  station.add_bus_restart_listener([&] { ++fired; });
  station.process_manager().restart_group({names::kMbus}, nullptr);
  sim_.run_for(Duration::seconds(7.0));
  EXPECT_EQ(fired, 1);
}

// --- ses/str sync (§4.3) ----------------------------------------------------------

TEST_F(StationTest, SesRestartWedgesStr) {
  Station& station = make_station();
  station.inject_crash(names::kSes);
  station.process_manager().restart_group({names::kSes}, nullptr);
  sim_.run_for(Duration::seconds(5.0));
  // ses came back and initiated a resync against str's stale session: str
  // wedges (the §4.3 induced failure).
  EXPECT_TRUE(station.board().manifests_at(names::kStr));
  EXPECT_FALSE(station.component(names::kStr)->functional());
  EXPECT_EQ(station.ses_str_sync().state(names::kSes),
            SyncCoordinator::State::kListenWait);
}

TEST_F(StationTest, StrRestartAfterWedgeCompletesQuickly) {
  Station& station = make_station();
  station.inject_crash(names::kSes);
  station.process_manager().restart_group({names::kSes}, nullptr);
  sim_.run_for(Duration::seconds(5.0));
  station.process_manager().restart_group({names::kStr}, nullptr);
  sim_.run_for(Duration::seconds(4.5));
  // Listen-mode handshake (~50 ms) right after str's startup.
  EXPECT_TRUE(station.ses_str_sync().synced(names::kSes));
  EXPECT_TRUE(station.ses_str_sync().synced(names::kStr));
  EXPECT_TRUE(station.all_functional());
}

TEST_F(StationTest, ParallelSesStrRestartCollidesOnce) {
  Station& station = make_station();
  station.inject_crash(names::kSes);
  TimePoint started;
  station.process_manager().restart_group({names::kSes, names::kStr},
                                          [&] { started = sim_.now(); });
  sim_.run_for(Duration::seconds(10.0));
  EXPECT_TRUE(station.all_functional());
  // Functional after the collide negotiation (~1.39 s past group restart).
  const double sync_done =
      station.cal().sync_collide.to_seconds();
  EXPECT_TRUE(station.ses_str_sync().synced(names::kSes));
  EXPECT_GT(sync_done, 1.0);
  // No induced failure this time: consolidation avoids the second round.
  EXPECT_FALSE(station.board().any_active());
}

// --- fedr/pbcom link (§4.2) --------------------------------------------------------

TEST_F(StationTest, FedrFunctionalNeedsConnection) {
  Station& station = make_station();
  EXPECT_TRUE(station.fedr_pbcom_link().connected());
  station.process_manager().restart_group({names::kPbcom}, nullptr);
  // pbcom down: fedr alive (answers pings) but not functional.
  sim_.run_for(Duration::seconds(1.0));
  EXPECT_TRUE(station.component(names::kFedr)->responsive());
  EXPECT_FALSE(station.component(names::kFedr)->functional());
  sim_.run_for(Duration::seconds(25.0));
  EXPECT_TRUE(station.fedr_pbcom_link().connected());
  EXPECT_TRUE(station.component(names::kFedr)->functional());
}

TEST_F(StationTest, FedrKillsAgePbcomUntilItFails) {
  Station& station = make_station();
  const int threshold = station.cal().pbcom_aging_threshold;
  for (int i = 0; i < threshold; ++i) {
    EXPECT_FALSE(station.board().manifests_at(names::kPbcom)) << "at age " << i;
    station.process_manager().restart_group({names::kFedr}, nullptr);
    sim_.run_for(Duration::seconds(7.0));
  }
  // "at some point, the aging leads to its total failure" (§4.2).
  EXPECT_TRUE(station.board().manifests_at(names::kPbcom));
}

TEST_F(StationTest, PbcomRestartResetsAge) {
  Station& station = make_station();
  station.process_manager().restart_group({names::kFedr}, nullptr);
  sim_.run_for(Duration::seconds(7.0));
  EXPECT_GT(station.fedr_pbcom_link().pbcom_age(), 0);
  station.process_manager().restart_group({names::kPbcom}, nullptr);
  sim_.run_for(Duration::seconds(25.0));
  EXPECT_EQ(station.fedr_pbcom_link().pbcom_age(), 0);
}

TEST_F(StationTest, FedrCrashSeversConnection) {
  Station& station = make_station();
  station.inject_crash(names::kFedr);
  EXPECT_FALSE(station.fedr_pbcom_link().connected());
  EXPECT_EQ(station.fedr_pbcom_link().pbcom_age(), 1);
}

// --- Domain behaviour: telemetry -> antenna -> radio --------------------------------

TEST_F(StationTest, EphemerisDrivesAntennaAndRadio) {
  // Place the satellite in a pass: pick a time inside the first predicted
  // pass and fast-forward there with domain behaviour on.
  Station& station = make_station(true, /*domain=*/true);
  const auto passes = orbit::predict_passes(
      station.site(), station.satellite(), sim_.now(),
      sim_.now() + Duration::hours(24.0));
  ASSERT_FALSE(passes.empty());
  sim_.run_until(passes.front().max_elevation_time);

  const auto* ses =
      dynamic_cast<const SesComponent*>(station.component(names::kSes));
  const auto* str =
      dynamic_cast<const StrComponent*>(station.component(names::kStr));
  const auto* rtu =
      dynamic_cast<const RtuComponent*>(station.component(names::kRtu));
  ASSERT_NE(ses, nullptr);
  EXPECT_GT(ses->ephemerides_published(), 100u);
  EXPECT_GT(str->pointings_commanded(), 10u);
  EXPECT_GT(rtu->tunes_commanded(), 10u);
  // The tune commands made it through fedr -> pbcom -> serial -> radio.
  EXPECT_GT(station.radio().commands_applied(), 10u);
  // Radio is near the Doppler-shifted downlink.
  EXPECT_NEAR(station.radio().frequency_hz(), 437.1e6, 15e3);
  // Antenna tracks the satellite (small pointing error at 1 Hz updates).
  EXPECT_LT(station.antenna().pointing_error_deg(sim_.now()), 5.0);
}

TEST_F(StationTest, FusedFedrcomAlsoDrivesRadio) {
  Station& station = make_station(false, /*domain=*/true);
  const auto passes = orbit::predict_passes(
      station.site(), station.satellite(), sim_.now(),
      sim_.now() + Duration::hours(24.0));
  ASSERT_FALSE(passes.empty());
  sim_.run_until(passes.front().max_elevation_time);
  EXPECT_GT(station.radio().commands_applied(), 10u);
}

TEST_F(StationTest, SerialPortClosedDropsCommands) {
  Station& station = make_station();
  station.serial_port().close();
  EXPECT_FALSE(station.serial_port().write("FREQ 437100000"));
  EXPECT_EQ(station.serial_port().writes_dropped(), 1u);
}

// --- Hardware models ------------------------------------------------------------

TEST(Antenna, SlewsAtBoundedRate) {
  Antenna antenna;  // parks at az 0, el 90
  antenna.point(30.0, 60.0, TimePoint::origin());
  // After 1 s at 6 deg/s the pedestal has moved 6 degrees along each axis.
  const TimePoint later = TimePoint::from_seconds(1.0);
  EXPECT_NEAR(antenna.azimuth_deg(later), 6.0, 1e-9);
  EXPECT_NEAR(antenna.elevation_deg(later), 84.0, 1e-9);
  // Eventually it arrives and stops.
  const TimePoint arrived = TimePoint::from_seconds(30.0);
  EXPECT_NEAR(antenna.azimuth_deg(arrived), 30.0, 1e-9);
  EXPECT_NEAR(antenna.elevation_deg(arrived), 60.0, 1e-9);
  EXPECT_NEAR(antenna.pointing_error_deg(arrived), 0.0, 1e-9);
}

TEST(Antenna, TakesShortWayAroundAzimuth) {
  Antenna antenna;
  antenna.point(350.0, 90.0, TimePoint::origin());  // 10 deg the short way
  EXPECT_NEAR(antenna.azimuth_deg(TimePoint::from_seconds(1.0)), 354.0, 1e-9);
  EXPECT_NEAR(antenna.azimuth_deg(TimePoint::from_seconds(5.0)), 350.0, 1e-9);
}

TEST(Antenna, ElevationClamped) {
  Antenna antenna;
  antenna.point(0.0, 120.0, TimePoint::origin());
  EXPECT_DOUBLE_EQ(antenna.target_elevation_deg(), 90.0);
}

TEST(Radio, AppliesFreqAndModeCommands) {
  Radio radio;
  radio.apply_command("FREQ 437090000");
  EXPECT_DOUBLE_EQ(radio.frequency_hz(), 437090000.0);
  radio.apply_command("MODE SSB");
  EXPECT_EQ(radio.mode(), "SSB");
  EXPECT_EQ(radio.commands_applied(), 2u);
}

TEST(Radio, RejectsGarbage) {
  Radio radio;
  const double before = radio.frequency_hz();
  radio.apply_command("FREQ banana");
  radio.apply_command("WAT");
  radio.apply_command("FREQ -5");
  EXPECT_DOUBLE_EQ(radio.frequency_hz(), before);
  EXPECT_EQ(radio.commands_rejected(), 3u);
}

// --- Background fault injector ----------------------------------------------------

TEST_F(StationTest, InjectorRealizesConfiguredRates) {
  StationConfig config;
  config.split_fedrcom = false;
  config.enable_domain_behavior = false;
  config.cal.mttf_fedrcom = Duration::minutes(10.0);
  station_ = std::make_unique<Station>(sim_, config);
  station_->boot_instant();

  InjectorConfig injector_config;
  injector_config.suppress_double_faults = false;
  injector_config.fedr_weibull_shape = 1.0;
  FaultInjector injector(*station_, injector_config);
  injector.start();
  sim_.run_for(Duration::days(10.0));

  const double measured =
      injector.mean_inter_failure(names::kFedrcom) / 60.0;
  EXPECT_NEAR(measured, 10.0, 1.0);
  EXPECT_GT(injector.injected(names::kFedrcom), 1000u);
  EXPECT_EQ(injector.total_injected(),
            injector.injected(names::kMbus) + injector.injected(names::kFedrcom) +
                injector.injected(names::kSes) + injector.injected(names::kStr) +
                injector.injected(names::kRtu));
}

TEST_F(StationTest, InjectorSuppressesDoubleFaults) {
  StationConfig config;
  config.split_fedrcom = false;
  config.cal.mttf_fedrcom = Duration::seconds(30.0);  // very hot
  station_ = std::make_unique<Station>(sim_, config);
  station_->boot_instant();

  InjectorConfig injector_config;  // suppress_double_faults = true
  FaultInjector injector(*station_, injector_config);
  injector.start();
  sim_.run_for(Duration::hours(1.0));
  // Nothing repairs failures here, so after the first crash every further
  // draw is suppressed: exactly one active failure per component at most.
  EXPECT_LE(station_->board().active_at(names::kFedrcom).size(), 1u);
}

}  // namespace
}  // namespace mercury::station

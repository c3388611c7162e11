// A satellite pass, end to end — with a failure in the middle.
//
//   $ ./build/examples/mercury_pass
//
// The station tracks a Sapphire-like LEO satellite: ses propagates the
// orbit and publishes ephemerides over mbus, str slews the antenna, rtu
// Doppler-corrects the downlink and commands the radio through fedr ->
// pbcom -> serial port. Mid-pass we kill fedr; §5.2's point is made by the
// numbers: recovery is fast enough (~6 s) that the pass survives, where a
// full reboot (~25 s) would have risked the whole session.
#include <cstdio>

#include "core/mercury_trees.h"
#include "orbit/pass_predictor.h"
#include "sim/simulator.h"
#include "station/experiment.h"

int main() {
  using namespace mercury;
  namespace names = core::component_names;

  sim::Simulator sim(/*seed=*/7);

  station::TrialSpec spec;
  spec.tree = core::MercuryTree::kTreeV;
  spec.oracle = station::OracleKind::kHeuristic;  // no ground-truth oracle
  spec.enable_domain_behavior = true;             // ephemerides, tuning, ...
  station::MercuryRig rig(sim, spec);
  station::Station& station = rig.station();

  // Predict the next pass over Stanford.
  const auto passes = orbit::predict_passes(
      station.site(), station.satellite(), sim.now(),
      sim.now() + util::Duration::hours(24.0));
  if (passes.empty()) {
    std::printf("no pass in the next 24 h (unexpected for this orbit)\n");
    return 1;
  }
  const orbit::Pass& pass = passes.front();
  std::printf("Next pass over %s: AOS t=%.0fs, LOS t=%.0fs (%.1f min, max "
              "elevation %.1f deg)\n",
              station.site().name().c_str(), pass.aos.to_seconds(),
              pass.los.to_seconds(), pass.duration().to_seconds() / 60.0,
              orbit::rad_to_deg(pass.max_elevation_rad));

  rig.start();

  // Run up to mid-pass, then kill the radio front-end driver.
  const util::TimePoint mid = pass.aos + pass.duration() / 2.0;
  sim.run_until(mid);
  const auto look = station.site().look_at(station.satellite(), sim.now());
  std::printf("\nt=%.0fs mid-pass: el=%.1f deg, range=%.0f km, antenna "
              "error=%.2f deg, radio tuned to %.3f MHz (Doppler offset "
              "%+.1f kHz)\n",
              sim.now().to_seconds(), orbit::rad_to_deg(look.elevation_rad),
              look.range_km, station.antenna().pointing_error_deg(sim.now()),
              station.radio().frequency_hz() / 1e6,
              (station.radio().frequency_hz() - 437.1e6) / 1e3);

  std::printf("\n>>> killing fedr mid-pass\n");
  const util::TimePoint injected = sim.now();
  station.inject_crash(names::kFedr);
  while (!station.all_functional() && sim.now() < pass.los) sim.step();
  const double outage = (sim.now() - injected).to_seconds();
  std::printf(">>> link recovered in %.2f s — %s\n", outage,
              outage < 30.0 ? "pass survives (paper §5.2: a short MTTR gives "
                              "high assurance we will not lose the whole pass)"
                            : "pass lost");

  // Ride out the rest of the pass.
  sim.run_until(pass.los + util::Duration::seconds(5.0));
  const auto* ses =
      dynamic_cast<const station::SesComponent*>(station.component(names::kSes));
  const auto* str =
      dynamic_cast<const station::StrComponent*>(station.component(names::kStr));
  const auto* rtu =
      dynamic_cast<const station::RtuComponent*>(station.component(names::kRtu));
  std::printf("\nPass complete: %llu ephemerides published, %llu antenna "
              "pointings, %llu radio tunings, %llu radio commands applied\n",
              static_cast<unsigned long long>(ses ? ses->ephemerides_published() : 0),
              static_cast<unsigned long long>(str ? str->pointings_commanded() : 0),
              static_cast<unsigned long long>(rtu ? rtu->tunes_commanded() : 0),
              static_cast<unsigned long long>(station.radio().commands_applied()));
  std::printf("mbus traffic: %llu sent, %llu delivered, %llu dropped while "
              "bus/endpoints down\n",
              static_cast<unsigned long long>(station.bus().stats().sent),
              static_cast<unsigned long long>(station.bus().stats().delivered),
              static_cast<unsigned long long>(
                  station.bus().stats().dropped_bus_down +
                  station.bus().stats().dropped_no_endpoint +
                  station.bus().stats().rejected_restarting));
  return 0;
}

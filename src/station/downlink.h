// Downlink session accounting — the economics of downtime (paper §5.2).
//
// "Downtime during satellite passes (typically about 4 per day per
// satellite, lasting about 15 minutes each) is very expensive because we
// may lose some science data and telemetry. Additionally, if the failure
// involves the tracking subsystem and the recovery time is too long, the
// communication link will break and the entire session will be lost. ...
// a short MTTR can provide high assurance that we will not lose the whole
// pass as a result of a failure."
//
// A DownlinkSession runs for the duration of one pass. While the station is
// functional and the satellite visible, science data accumulates at the
// link rate (38.4 kbps, §2.1). A station outage pauses the stream; an
// outage of 15 s breaks carrier lock and the remainder of the session is
// lost.
#pragma once

#include <cstdint>

#include "orbit/pass_predictor.h"
#include "sim/simulator.h"
#include "station/station.h"
#include "util/time.h"

namespace mercury::station {

/// Outcome of one pass.
struct SessionReport {
  orbit::Pass pass;
  double captured_bits = 0.0;
  /// Bits the pass offered with a perfectly available station.
  double offered_bits = 0.0;
  util::Duration outage = util::Duration::zero();
  util::Duration longest_outage = util::Duration::zero();
  bool link_broken = false;

  double capture_fraction() const {
    return offered_bits > 0.0 ? captured_bits / offered_bits : 0.0;
  }
};

/// Tracks one pass. Construct before AOS, run the simulation through LOS,
/// then read report(). Samples the station's functional state on a periodic
/// task; no component behaviour is altered.
class DownlinkSession {
 public:
  DownlinkSession(Station& station, orbit::Pass pass);
  ~DownlinkSession();

  DownlinkSession(const DownlinkSession&) = delete;
  DownlinkSession& operator=(const DownlinkSession&) = delete;

  /// Begin sampling (arms a periodic task; safe to call before AOS).
  void start();

  bool finished() const;
  const SessionReport& report() const { return report_; }

 private:
  void sample();

  Station& station_;
  SessionReport report_;
  std::unique_ptr<sim::PeriodicTask> sampler_;
  util::Duration current_outage_ = util::Duration::zero();
  bool done_ = false;
};

}  // namespace mercury::station

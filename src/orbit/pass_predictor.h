// Satellite pass prediction.
//
// A "pass" is the window when the satellite is above the station's elevation
// mask — when Mercury collects telemetry (paper §1: "When a satellite
// appears in the patch of sky whose angle is subtended by the antenna...").
// Prediction scans the elevation profile with a coarse step and refines the
// AOS/LOS crossings by bisection.
#pragma once

#include <vector>

#include "orbit/ground_station.h"
#include "orbit/propagator.h"
#include "util/time.h"

namespace mercury::orbit {

struct Pass {
  util::TimePoint aos;           ///< acquisition of signal (rise above mask)
  util::TimePoint los;           ///< loss of signal (set below mask)
  util::TimePoint max_elevation_time;
  double max_elevation_rad = 0.0;

  util::Duration duration() const { return los - aos; }
};

/// All passes of `satellite` over `station` in [start, end): a 30 s coarse
/// scan, with AOS/LOS refined by bisection to 50 ms.
std::vector<Pass> predict_passes(const GroundStation& station,
                                 const Propagator& satellite,
                                 util::TimePoint start, util::TimePoint end);

}  // namespace mercury::orbit

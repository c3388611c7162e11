// Antenna pedestal model: az/el pointing with slew-rate limits.
//
// str "points antennas to track a satellite during a pass" (§2.1). The
// pedestal slews toward its commanded angles at a bounded rate; pointing
// error is the angular distance between the commanded and actual boresight.
#pragma once

#include "util/time.h"

namespace mercury::station {

class Antenna {
 public:
  /// Command a new target; actual position keeps slewing toward the most
  /// recent target at the slew limit.
  void point(double azimuth_deg, double elevation_deg, util::TimePoint now);

  /// Command the park position.
  void park(util::TimePoint now);

  double azimuth_deg(util::TimePoint now) const;
  double elevation_deg(util::TimePoint now) const;
  double target_azimuth_deg() const { return target_az_; }
  double target_elevation_deg() const { return target_el_; }

  /// Great-circle angle between boresight and target, degrees.
  double pointing_error_deg(util::TimePoint now) const;

 private:
  /// Advance the pedestal's physical position to `now` (lazy integration;
  /// mutable state because observation itself settles the model).
  void settle(util::TimePoint now) const;
  static double step_toward(double from, double to, double max_step,
                            bool wrap_azimuth);

  /// Slew rate limit on both axes.
  static constexpr double kMaxSlewDegPerSec = 6.0;
  /// Park position when idle (the pedestal starts there).
  static constexpr double kParkAzimuthDeg = 0.0;
  static constexpr double kParkElevationDeg = 90.0;

  mutable double az_ = kParkAzimuthDeg;
  mutable double el_ = kParkElevationDeg;
  double target_az_ = kParkAzimuthDeg;
  double target_el_ = kParkElevationDeg;
  mutable util::TimePoint last_update_;
};

}  // namespace mercury::station

#include "station/antenna.h"

#include <algorithm>
#include <cmath>

#include "orbit/elements.h"

namespace mercury::station {

void Antenna::point(double azimuth_deg, double elevation_deg, util::TimePoint now) {
  settle(now);
  target_az_ = azimuth_deg;
  target_el_ = std::clamp(elevation_deg, 0.0, 90.0);
}

void Antenna::park(util::TimePoint now) {
  point(kParkAzimuthDeg, kParkElevationDeg, now);
}

double Antenna::step_toward(double from, double to, double max_step,
                            bool wrap_azimuth) {
  double delta = to - from;
  if (wrap_azimuth) {
    // Take the short way around the azimuth circle.
    while (delta > 180.0) delta -= 360.0;
    while (delta < -180.0) delta += 360.0;
  }
  if (std::abs(delta) <= max_step) return to;
  double moved = from + (delta > 0 ? max_step : -max_step);
  if (wrap_azimuth) {
    while (moved >= 360.0) moved -= 360.0;
    while (moved < 0.0) moved += 360.0;
  }
  return moved;
}

void Antenna::settle(util::TimePoint now) const {
  const double dt = (now - last_update_).to_seconds();
  last_update_ = now;
  if (dt <= 0.0) return;
  const double max_step = kMaxSlewDegPerSec * dt;
  az_ = step_toward(az_, target_az_, max_step, /*wrap_azimuth=*/true);
  el_ = step_toward(el_, target_el_, max_step, /*wrap_azimuth=*/false);
}

double Antenna::azimuth_deg(util::TimePoint now) const {
  settle(now);
  return az_;
}

double Antenna::elevation_deg(util::TimePoint now) const {
  settle(now);
  return el_;
}

double Antenna::pointing_error_deg(util::TimePoint now) const {
  settle(now);
  // Angular distance between (az_, el_) and target on the sphere.
  const double az1 = orbit::deg_to_rad(az_);
  const double el1 = orbit::deg_to_rad(el_);
  const double az2 = orbit::deg_to_rad(target_az_);
  const double el2 = orbit::deg_to_rad(target_el_);
  const double cos_angle = std::sin(el1) * std::sin(el2) +
                           std::cos(el1) * std::cos(el2) * std::cos(az1 - az2);
  return orbit::rad_to_deg(std::acos(std::clamp(cos_angle, -1.0, 1.0)));
}

}  // namespace mercury::station

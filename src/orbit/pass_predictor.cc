#include "orbit/pass_predictor.h"

#include <cassert>

namespace mercury::orbit {
namespace {

using util::Duration;
using util::TimePoint;

/// Coarse scan step; must be well below the pass duration (~minutes).
constexpr Duration kCoarseStep = Duration::seconds(30.0);
/// Bisection refinement tolerance on AOS/LOS times.
constexpr Duration kRefineTolerance = Duration::millis(50.0);

/// Bisect for the visibility transition in (lo, hi]; `rising` selects which
/// crossing. Precondition: visible(lo) != visible(hi).
TimePoint refine_crossing(const GroundStation& station, const Propagator& satellite,
                          TimePoint lo, TimePoint hi, Duration tolerance) {
  const bool lo_visible = station.visible(satellite, lo);
  while (hi - lo > tolerance) {
    const TimePoint mid = lo + (hi - lo) / 2.0;
    if (station.visible(satellite, mid) == lo_visible) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

/// Golden-section search for peak elevation in [lo, hi].
void find_max_elevation(const GroundStation& station, const Propagator& satellite,
                        TimePoint lo, TimePoint hi, Pass& pass) {
  constexpr double kInvPhi = 0.6180339887498949;
  TimePoint a = lo;
  TimePoint b = hi;
  TimePoint x1 = b - (b - a) * kInvPhi;
  TimePoint x2 = a + (b - a) * kInvPhi;
  double f1 = station.look_at(satellite, x1).elevation_rad;
  double f2 = station.look_at(satellite, x2).elevation_rad;
  while (b - a > Duration::millis(100.0)) {
    if (f1 < f2) {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + (b - a) * kInvPhi;
      f2 = station.look_at(satellite, x2).elevation_rad;
    } else {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - (b - a) * kInvPhi;
      f1 = station.look_at(satellite, x1).elevation_rad;
    }
  }
  pass.max_elevation_time = a + (b - a) / 2.0;
  pass.max_elevation_rad =
      station.look_at(satellite, pass.max_elevation_time).elevation_rad;
}

}  // namespace

std::vector<Pass> predict_passes(const GroundStation& station,
                                 const Propagator& satellite, TimePoint start,
                                 TimePoint end) {
  assert(end > start);
  std::vector<Pass> passes;

  bool was_visible = station.visible(satellite, start);
  TimePoint prev = start;
  TimePoint aos = start;  // valid only while inside a pass
  bool in_pass = was_visible;

  for (TimePoint t = start + kCoarseStep;; t += kCoarseStep) {
    if (t > end) t = end;
    const bool now_visible = station.visible(satellite, t);
    if (now_visible != was_visible) {
      const TimePoint crossing =
          refine_crossing(station, satellite, prev, t, kRefineTolerance);
      if (now_visible) {
        aos = crossing;
        in_pass = true;
      } else if (in_pass) {
        Pass pass;
        pass.aos = aos;
        pass.los = crossing;
        find_max_elevation(station, satellite, pass.aos, pass.los, pass);
        passes.push_back(pass);
        in_pass = false;
      }
      was_visible = now_visible;
    }
    prev = t;
    if (t == end) break;
  }

  // A pass still open at the horizon of the scan is truncated at `end`.
  if (in_pass && !was_visible) in_pass = false;
  if (in_pass) {
    Pass pass;
    pass.aos = aos;
    pass.los = end;
    find_max_elevation(station, satellite, pass.aos, pass.los, pass);
    passes.push_back(pass);
  }
  return passes;
}

}  // namespace mercury::orbit

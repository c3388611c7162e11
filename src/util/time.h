// Strongly-typed simulation time.
//
// The simulator works in seconds of virtual time. Using distinct types for
// instants and durations catches unit mistakes (adding two instants, passing
// a duration where a point is expected) at compile time.
#pragma once

#include <chrono>
#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>
#include <string>

namespace mercury::util {

/// A span of virtual time, in seconds. May be negative in intermediate
/// arithmetic but most APIs require non-negative spans.
class Duration {
 public:
  constexpr Duration() = default;
  /// Implicit from any std::chrono duration, so wall-clock configs (the
  /// POSIX backend's milliseconds) set the same fields as simulated ones.
  template <typename Rep, typename Period>
  constexpr Duration(std::chrono::duration<Rep, Period> d)  // NOLINT(google-explicit-constructor)
      : secs_(std::chrono::duration<double>(d).count()) {}
  constexpr static Duration seconds(double s) { return Duration{s}; }
  constexpr static Duration millis(double ms) { return Duration{ms / 1e3}; }
  constexpr static Duration minutes(double m) { return Duration{m * 60.0}; }
  constexpr static Duration hours(double h) { return Duration{h * 3600.0}; }
  constexpr static Duration days(double d) { return Duration{d * 86400.0}; }
  constexpr static Duration zero() { return Duration{0.0}; }
  constexpr static Duration infinity() {
    return Duration{std::numeric_limits<double>::infinity()};
  }

  constexpr double to_seconds() const { return secs_; }
  constexpr double to_millis() const { return secs_ * 1e3; }
  constexpr double to_hours() const { return secs_ / 3600.0; }

  constexpr bool is_finite() const { return std::isfinite(secs_); }
  constexpr bool is_zero() const { return secs_ == 0.0; }
  constexpr bool is_negative() const { return secs_ < 0.0; }

  constexpr Duration operator+(Duration o) const { return Duration{secs_ + o.secs_}; }
  constexpr Duration operator-(Duration o) const { return Duration{secs_ - o.secs_}; }
  constexpr Duration operator*(double k) const { return Duration{secs_ * k}; }
  constexpr Duration operator/(double k) const { return Duration{secs_ / k}; }
  constexpr double operator/(Duration o) const { return secs_ / o.secs_; }
  constexpr Duration& operator+=(Duration o) { secs_ += o.secs_; return *this; }
  constexpr Duration& operator-=(Duration o) { secs_ -= o.secs_; return *this; }
  constexpr auto operator<=>(const Duration&) const = default;

  std::string str() const;

 private:
  constexpr explicit Duration(double s) : secs_(s) {}
  double secs_ = 0.0;
};

constexpr Duration operator*(double k, Duration d) { return d * k; }

/// An instant on the virtual timeline, measured from simulation start.
class TimePoint {
 public:
  constexpr TimePoint() = default;
  constexpr static TimePoint from_seconds(double s) { return TimePoint{s}; }
  constexpr static TimePoint origin() { return TimePoint{0.0}; }
  constexpr static TimePoint infinity() {
    return TimePoint{std::numeric_limits<double>::infinity()};
  }

  constexpr double to_seconds() const { return secs_; }
  constexpr bool is_finite() const { return std::isfinite(secs_); }

  constexpr TimePoint operator+(Duration d) const {
    return TimePoint{secs_ + d.to_seconds()};
  }
  constexpr TimePoint operator-(Duration d) const {
    return TimePoint{secs_ - d.to_seconds()};
  }
  constexpr Duration operator-(TimePoint o) const {
    return Duration::seconds(secs_ - o.secs_);
  }
  constexpr TimePoint& operator+=(Duration d) {
    secs_ += d.to_seconds();
    return *this;
  }
  constexpr auto operator<=>(const TimePoint&) const = default;

  std::string str() const;

 private:
  constexpr explicit TimePoint(double s) : secs_(s) {}
  double secs_ = 0.0;
};

}  // namespace mercury::util

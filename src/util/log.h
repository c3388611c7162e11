// Minimal leveled logger.
//
// Components log against virtual (simulation) time, so the sink takes an
// explicit timestamp instead of reading a wall clock. Global level filtering
// keeps benches quiet and lets examples run verbose.
#pragma once

#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "util/time.h"

namespace mercury::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

std::string_view to_string(LogLevel level);

/// Process-wide log configuration. Not thread-safe by design: the simulator
/// is single-threaded, and the POSIX supervisor configures logging before
/// spawning children.
class Logger {
 public:
  using Sink = std::function<void(LogLevel, TimePoint, std::string_view component,
                                  std::string_view message)>;

  static Logger& instance();

  void set_level(LogLevel level) { level_ = level; }
  LogLevel level() const { return level_; }
  bool enabled(LogLevel level) const { return level >= level_ && level_ != LogLevel::kOff; }

  /// Replace the sink (default writes to stderr). Pass nullptr to restore
  /// the default sink.
  void set_sink(Sink sink);

  void log(LogLevel level, TimePoint t, std::string_view component,
           std::string_view message);

 private:
  Logger();
  LogLevel level_ = LogLevel::kWarn;
  Sink sink_;
};

/// True when a line at `level` would be written. Guard a log statement with
/// it when computing its arguments costs something (joins, formatting).
inline bool log_enabled(LogLevel level) {
  return Logger::instance().enabled(level);
}

/// Stream-style helper: LogLine(kInfo, now, "ses") << "locked on pass";
/// A line whose level is disabled copies nothing, constructs no stream and
/// formats nothing.
class LogLine {
 public:
  LogLine(LogLevel level, TimePoint t, std::string_view component)
      : level_(level), t_(t) {
    if (!log_enabled(level)) return;
    component_ = component;
    os_.emplace();
  }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  ~LogLine();

  template <typename T>
  LogLine& operator<<(const T& v) {
    if (os_) *os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  TimePoint t_;
  std::string component_;
  std::optional<std::ostringstream> os_;
};

}  // namespace mercury::util

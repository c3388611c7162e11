#include "util/log.h"

#include <cstdio>

namespace mercury::util {

std::string_view to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

Logger::Logger() { set_sink(nullptr); }

void Logger::set_sink(Sink sink) {
  if (sink) {
    sink_ = std::move(sink);
    return;
  }
  sink_ = [](LogLevel level, TimePoint t, std::string_view component,
             std::string_view message) {
    std::fprintf(stderr, "[%10.3f] %-5s %-10.*s %.*s\n", t.to_seconds(),
                 std::string(to_string(level)).c_str(),
                 static_cast<int>(component.size()), component.data(),
                 static_cast<int>(message.size()), message.data());
  };
}

void Logger::log(LogLevel level, TimePoint t, std::string_view component,
                 std::string_view message) {
  if (!enabled(level)) return;
  sink_(level, t, component, message);
}

LogLine::~LogLine() {
  if (os_) Logger::instance().log(level_, t_, component_, os_->str());
}

}  // namespace mercury::util

#include "station/radio.h"

#include <cstdlib>

#include "util/strings.h"

namespace mercury::station {

void Radio::apply_command(const std::string& line) {
  const auto parts = util::split(std::string{util::trim(line)}, ' ');
  if (parts.size() == 2 && parts[0] == "FREQ") {
    char* end = nullptr;
    const double hz = std::strtod(parts[1].c_str(), &end);
    if (end != parts[1].c_str() && hz > 0.0) {
      frequency_hz_ = hz;
      ++commands_applied_;
      return;
    }
  } else if (parts.size() == 2 && parts[0] == "MODE") {
    mode_ = parts[1];
    ++commands_applied_;
    return;
  }
  ++commands_rejected_;
}

bool SerialPort::write(const std::string& line) {
  if (!open_) {
    ++writes_dropped_;
    return false;
  }
  radio_->apply_command(line);
  return true;
}

}  // namespace mercury::station

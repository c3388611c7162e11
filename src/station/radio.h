// Radio and serial-port models.
//
// pbcom "maps a serial port to a TCP socket"; the radio hangs off the
// serial port and is tuned by commands that originated at rtu, crossed
// mbus to fedr, and were translated into low-level radio commands (§2.1,
// §4.2). The serial negotiation at pbcom startup is what makes pbcom's
// restart slow; here the Radio just tracks its tuned state so examples and
// tests can assert end-to-end command flow.
#pragma once

#include <cstdint>
#include <string>

namespace mercury::station {

class Radio {
 public:
  /// Apply a low-level radio command line ("FREQ <hz>", "MODE <name>").
  /// Unknown commands are counted but otherwise ignored (real COTS radios
  /// NAK silently at this layer).
  void apply_command(const std::string& line);

  double frequency_hz() const { return frequency_hz_; }
  const std::string& mode() const { return mode_; }
  std::uint64_t commands_applied() const { return commands_applied_; }
  std::uint64_t commands_rejected() const { return commands_rejected_; }

 private:
  double frequency_hz_ = 437.1e6;  // Sapphire-band default
  std::string mode_ = "FM";
  std::uint64_t commands_applied_ = 0;
  std::uint64_t commands_rejected_ = 0;
};

/// The serial line between pbcom and the radio. Writes are applied to the
/// radio; the port is unusable while closed (pbcom down).
class SerialPort {
 public:
  explicit SerialPort(Radio& radio) : radio_(&radio) {}

  void open() { open_ = true; }
  void close() { open_ = false; }
  bool is_open() const { return open_; }

  /// Write a command line; returns false (and drops it) when closed.
  bool write(const std::string& line);

  std::uint64_t writes_dropped() const { return writes_dropped_; }

 private:
  Radio* radio_;
  bool open_ = false;
  std::uint64_t writes_dropped_ = 0;
};

}  // namespace mercury::station

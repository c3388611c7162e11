// The fedr <-> pbcom TCP link and pbcom's aging bug (paper §4.2).
//
// After the fedrcom split, "the two components must explicitly communicate
// via IPC": fedr holds a TCP connection to pbcom. We model:
//
//   * fedr is functional only while connected;
//   * fedr connecting at its own startup to a healthy pbcom is quick
//     (fedr_connect); reconnecting after pbcom restarts under it costs a
//     retry poll (fedr_reconnect) — "the increased value of pbcom's
//     recovery time is due to communication overhead";
//   * "when fedr fails, its connection to pbcom is severed; due to bugs,
//     pbcom ages every time it loses the connection and, at some point, the
//     aging leads to its total failure" — each severed connection bumps an
//     age counter; at the threshold pbcom suffers an aging crash. A pbcom
//     restart rejuvenates it (age resets), which is what makes tree V's
//     "free" joint restarts improve MTTF (§4.4).
#pragma once

#include <cstdint>
#include <string>

#include "station/calibration.h"

namespace mercury::station {

class Station;

class FedrPbcomLink {
 public:
  explicit FedrPbcomLink(Station& station);

  bool connected() const { return connected_; }
  int pbcom_age() const { return pbcom_age_; }

  /// Lifecycle notifications.
  void on_fedr_killed();
  void on_fedr_started();
  void on_fedr_crash_manifested();  ///< fedr wedged by an injected failure
  void on_pbcom_killed();
  void on_pbcom_started();
  void on_instant_boot();

 private:
  void sever(bool ages_pbcom);
  void try_connect(util::Duration delay, std::uint64_t epoch);
  void retry_loop(std::uint64_t epoch);

  Station& station_;
  bool connected_ = false;
  int pbcom_age_ = 0;
  std::uint64_t epoch_ = 0;  ///< voids stale connect attempts
};

}  // namespace mercury::station

#include "station/downlink.h"

namespace mercury::station {

using util::Duration;

namespace {
/// Link data rate, bits per second ("up to 38.4 kbps", §2.1).
constexpr double kDataRateBps = 38'400.0;
/// An outage this long breaks the communication link; the rest of the
/// session is unrecoverable (re-acquisition is not attempted within the
/// pass).
constexpr Duration kLinkBreakThreshold = Duration::seconds(15.0);
/// Sampling resolution of the link state.
constexpr Duration kSamplePeriod = Duration::millis(250.0);
}  // namespace

DownlinkSession::DownlinkSession(Station& station, orbit::Pass pass)
    : station_(station) {
  report_.pass = pass;
}

DownlinkSession::~DownlinkSession() = default;

void DownlinkSession::start() {
  sampler_ = std::make_unique<sim::PeriodicTask>(
      station_.sim(), "downlink.sample", kSamplePeriod,
      [this] { sample(); });
  sampler_->start();
}

bool DownlinkSession::finished() const { return done_; }

void DownlinkSession::sample() {
  const auto now = station_.sim().now();
  if (now < report_.pass.aos) return;
  if (done_) return;
  if (now >= report_.pass.los) {
    done_ = true;
    sampler_->stop();
    return;
  }

  const double dt = kSamplePeriod.to_seconds();
  report_.offered_bits += kDataRateBps * dt;
  if (report_.link_broken) return;

  if (station_.all_functional()) {
    report_.captured_bits += kDataRateBps * dt;
    current_outage_ = Duration::zero();
    return;
  }

  // Station down mid-pass: the stream pauses; a long outage breaks lock.
  current_outage_ += kSamplePeriod;
  report_.outage += kSamplePeriod;
  if (current_outage_ > report_.longest_outage) {
    report_.longest_outage = current_outage_;
  }
  if (current_outage_ >= kLinkBreakThreshold) {
    report_.link_broken = true;
  }
}

}  // namespace mercury::station

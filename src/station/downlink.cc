#include "station/downlink.h"

namespace mercury::station {

using util::Duration;

DownlinkSession::DownlinkSession(Station& station, orbit::Pass pass,
                                 DownlinkConfig config)
    : station_(station), config_(config) {
  report_.pass = pass;
}

DownlinkSession::~DownlinkSession() = default;

void DownlinkSession::start() {
  sampler_ = std::make_unique<sim::PeriodicTask>(
      station_.sim(), "downlink.sample", config_.sample_period,
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

  const double dt = config_.sample_period.to_seconds();
  report_.offered_bits += config_.data_rate_bps * dt;
  if (report_.link_broken) return;

  if (station_.all_functional()) {
    report_.captured_bits += config_.data_rate_bps * dt;
    current_outage_ = Duration::zero();
    return;
  }

  // Station down mid-pass: the stream pauses; a long outage breaks lock.
  current_outage_ += config_.sample_period;
  report_.outage += config_.sample_period;
  if (current_outage_ > report_.longest_outage) {
    report_.longest_outage = current_outage_;
  }
  if (current_outage_ >= config_.link_break_threshold) {
    report_.link_broken = true;
  }
}

}  // namespace mercury::station

#include "station/components.h"

#include <memory>

#include "core/mercury_trees.h"
#include "orbit/doppler.h"
#include "station/fedr_pbcom_link.h"
#include "station/station.h"
#include "station/sync_coordinator.h"
#include "util/strings.h"

namespace mercury::station {

namespace names = core::component_names;

// --- mbus -----------------------------------------------------------------

MbusComponent::MbusComponent(Station& station, ComponentTiming timing)
    : Component(station, names::kMbus, timing) {}

void MbusComponent::on_killed() { station_.bus().crash(); }

void MbusComponent::on_started() {
  station_.bus().restart();
  station_.reattach_all();
  station_.notify_bus_restarted();
}

// --- ses --------------------------------------------------------------------

SesComponent::SesComponent(Station& station, ComponentTiming timing,
                           SyncCoordinator& sync)
    : Component(station, names::kSes, timing), sync_(sync) {
  if (station_.config().enable_domain_behavior) {
    // The estimator publishes an ephemeris once a second while functional.
    ephemeris_task_ = std::make_unique<sim::PeriodicTask>(
        station_.sim(), "ses.ephemeris", util::Duration::seconds(1.0),
        [this] { publish_ephemeris(); });
    ephemeris_task_->start_with_phase(util::Duration::millis(500.0));
  }
}

bool SesComponent::functional() const {
  return responsive() && sync_.synced(name());
}

void SesComponent::publish_ephemeris() {
  if (!functional()) return;
  const auto now = station_.sim().now();
  const orbit::LookAngles look = station_.site().look_at(station_.satellite(), now);
  const bool visible =
      look.elevation_rad >= station_.site().min_elevation_rad();

  msg::Message ephemeris = msg::make_event(name(), next_seq(), "ephemeris");
  ephemeris.body.set_attr("az_deg", orbit::rad_to_deg(look.azimuth_rad));
  ephemeris.body.set_attr("el_deg", orbit::rad_to_deg(look.elevation_rad));
  ephemeris.body.set_attr("range_km", look.range_km);
  ephemeris.body.set_attr("range_rate_km_s", look.range_rate_km_s);
  ephemeris.body.set_attr("visible", std::string{visible ? "1" : "0"});
  send(ephemeris);
  ++published_;
}

void SesComponent::on_killed() { sync_.on_killed(name()); }
void SesComponent::on_started() { sync_.on_started(name()); }
void SesComponent::on_instant_boot() { sync_.on_instant_boot(); }

// --- str --------------------------------------------------------------------

StrComponent::StrComponent(Station& station, ComponentTiming timing,
                           SyncCoordinator& sync)
    : Component(station, names::kStr, timing), sync_(sync) {}

bool StrComponent::functional() const {
  return responsive() && sync_.synced(name());
}

void StrComponent::handle_message(const msg::Message& message) {
  if (message.kind != msg::Kind::kEvent || message.verb != "ephemeris") return;
  if (!functional()) return;
  const auto az = message.body.attr_double("az_deg");
  const auto el = message.body.attr_double("el_deg");
  const auto visible = message.body.attr_or("visible", "0") == "1";
  if (!az || !el) return;
  if (visible) {
    station_.antenna().point(*az, *el, station_.sim().now());
  } else {
    station_.antenna().park(station_.sim().now());
  }
  ++pointings_;
}

void StrComponent::on_killed() { sync_.on_killed(name()); }
void StrComponent::on_started() { sync_.on_started(name()); }
void StrComponent::on_instant_boot() { sync_.on_instant_boot(); }

// --- rtu --------------------------------------------------------------------

RtuComponent::RtuComponent(Station& station, ComponentTiming timing)
    : Component(station, names::kRtu, timing) {}

void RtuComponent::handle_message(const msg::Message& message) {
  if (message.kind != msg::Kind::kEvent || message.verb != "ephemeris") return;
  const auto rate = message.body.attr_double("range_rate_km_s");
  const auto visible = message.body.attr_or("visible", "0") == "1";
  if (!rate || !visible) return;

  constexpr double kNominalDownlinkHz = 437.1e6;  // Sapphire downlink band
  const double tuned = orbit::doppler_shifted_hz(kNominalDownlinkHz, *rate);
  msg::Message tune = msg::make_command(name(), station_.radio_frontend_name(),
                                        next_seq(), "tune");
  tune.body.set_attr("freq_hz", tuned);
  send(tune);
  ++tunes_;
  last_tuned_hz_ = tuned;
  save_tuning_checkpoint();
}

void RtuComponent::save_tuning_checkpoint() {
  // rtu's soft state is its tuning table: the last Doppler-corrected
  // frequency it derived from ses ephemerides. A warm rtu reloads it instead
  // of waiting for a fresh ephemeris round.
  station_.save_checkpoint(
      name(), {{"last_tuned_hz",
                last_tuned_hz_ ? util::format_fixed(*last_tuned_hz_, 0) : "none"}});
}

void RtuComponent::on_started() { save_tuning_checkpoint(); }
void RtuComponent::on_instant_boot() { save_tuning_checkpoint(); }

// --- fedrcom (fused) ----------------------------------------------------------

FedrcomComponent::FedrcomComponent(Station& station, ComponentTiming timing)
    : Component(station, names::kFedrcom, timing) {}

void FedrcomComponent::handle_message(const msg::Message& message) {
  if (message.kind != msg::Kind::kCommand || message.verb != "tune") return;
  const auto freq = message.body.attr_double("freq_hz");
  if (!freq) {
    send(msg::make_nack(message, name(), "missing freq_hz"));
    return;
  }
  // Translate the XML command to a low-level radio command on the serial
  // line the fused proxy owns.
  station_.serial_port().write("FREQ " + util::format_fixed(*freq, 0));
  send(msg::make_ack(message, name()));
}

void FedrcomComponent::on_killed() { station_.serial_port().close(); }

void FedrcomComponent::on_started() {
  station_.serial_port().open();
  // The fused proxy's soft state is the negotiated serial configuration —
  // the ~20 s negotiation a warm restart skips by reloading it.
  station_.save_checkpoint(name(), {{"serial", "negotiated"},
                                    {"baud", "9600"}});
}

void FedrcomComponent::on_instant_boot() {
  station_.serial_port().open();
  station_.save_checkpoint(name(), {{"serial", "negotiated"},
                                    {"baud", "9600"}});
}

// --- fedr (split front-end driver) ---------------------------------------------

FedrComponent::FedrComponent(Station& station, ComponentTiming timing,
                             FedrPbcomLink& link)
    : Component(station, names::kFedr, timing), link_(link) {}

bool FedrComponent::functional() const { return responsive() && link_.connected(); }

void FedrComponent::handle_message(const msg::Message& message) {
  if (message.kind != msg::Kind::kCommand || message.verb != "tune") return;
  const auto freq = message.body.attr_double("freq_hz");
  if (!freq) {
    send(msg::make_nack(message, name(), "missing freq_hz"));
    return;
  }
  if (!link_.connected()) {
    send(msg::make_nack(message, name(), "pbcom link down"));
    return;
  }
  // Forward the translated line over the fedr->pbcom TCP connection (a
  // direct pipe, not mbus traffic).
  auto* pbcom =
      dynamic_cast<PbcomComponent*>(station_.component(names::kPbcom));
  if (pbcom == nullptr) return;
  const std::string line = "FREQ " + util::format_fixed(*freq, 0);
  station_.sim().schedule_after(util::Duration::millis(2.0), "fedr.tcp",
                                [this, pbcom, line] {
                                  if (link_.connected()) pbcom->deliver_line(line);
                                });
  send(msg::make_ack(message, name()));
}

void FedrComponent::on_killed() { link_.on_fedr_killed(); }

void FedrComponent::on_started() {
  link_.on_fedr_started();
  // fedr's soft state is modest (the pbcom session context); the warm win is
  // mostly the translator's warmed caches, not the cheap TCP reconnect.
  station_.save_checkpoint(name(), {{"pbcom_session", "cached"}});
}

void FedrComponent::on_instant_boot() {
  link_.on_instant_boot();
  station_.save_checkpoint(name(), {{"pbcom_session", "cached"}});
}

// --- pbcom (split serial proxy) -------------------------------------------------

PbcomComponent::PbcomComponent(Station& station, ComponentTiming timing,
                               FedrPbcomLink& link)
    : Component(station, names::kPbcom, timing), link_(link) {}

void PbcomComponent::handle_message(const msg::Message& message) {
  // pbcom speaks raw radio lines over TCP, not the command language; its
  // only mbus traffic is liveness pings (handled by the base class).
  (void)message;
}

void PbcomComponent::deliver_line(const std::string& line) {
  if (!responsive()) return;  // dead or wedged proxy drops the line
  station_.serial_port().write(line);
}

void PbcomComponent::on_killed() {
  station_.serial_port().close();
  link_.on_pbcom_killed();
}

void PbcomComponent::on_started() {
  station_.serial_port().open();
  link_.on_pbcom_started();
  // pbcom's soft state is the negotiated serial-port parameters — the slow
  // hardware negotiation ("over 21 seconds") a warm restart skips.
  station_.save_checkpoint(name(), {{"serial", "negotiated"},
                                    {"baud", "9600"}});
}

void PbcomComponent::on_instant_boot() {
  station_.serial_port().open();
  station_.save_checkpoint(name(), {{"serial", "negotiated"},
                                    {"baud", "9600"}});
}

}  // namespace mercury::station

#include "station/component.h"

#include "station/station.h"

namespace mercury::station {

Component::Component(Station& station, std::string name, ComponentTiming timing)
    : station_(station), name_(std::move(name)), timing_(timing) {}

Component::~Component() = default;

bool Component::responsive() const {
  return up_ && station_.bus().attached(name_) &&
         !station_.board().manifests_at(name_);
}

void Component::kill() {
  up_ = false;
  restarting_ = true;
  warm_started_ = false;
  station_.bus().detach(name_);  // the process died; its TCP endpoint closes
  on_killed();
}

void Component::complete_start(bool warm) {
  restarting_ = false;
  up_ = true;
  warm_started_ = warm;
  last_start_ = station_.sim().now();
  attach_to_bus();
  on_started();
}

void Component::instant_boot() {
  restarting_ = false;
  up_ = true;
  last_start_ = station_.sim().now();
  attach_to_bus();
  on_instant_boot();
}

void Component::attach_to_bus() {
  if (!up_) return;
  station_.bus().attach(name_,
                        [this](const msg::Message& message) { receive(message); });
}

void Component::send(const msg::Message& message) { station_.bus().send(message); }

void Component::receive(const msg::Message& message) {
  // Fail-silence (§2.2): a manifesting or down component consumes the
  // message and never answers.
  if (!responsive()) return;
  if (message.kind == msg::Kind::kPing) {
    send(msg::make_pong(message, name_));
    return;
  }
  handle_message(message);
}

}  // namespace mercury::station

#include "station/fedr_pbcom_link.h"

#include "core/failure.h"
#include "core/mercury_trees.h"
#include "station/station.h"

namespace mercury::station {

namespace names = core::component_names;

FedrPbcomLink::FedrPbcomLink(Station& station) : station_(station) {}

void FedrPbcomLink::on_fedr_killed() {
  ++epoch_;
  sever(/*ages_pbcom=*/true);
}

void FedrPbcomLink::on_fedr_crash_manifested() {
  // The crashed fedr's TCP connection drops immediately; the kill that
  // follows during recovery must not age pbcom a second time for the same
  // incident, so the restart path only ages when still connected.
  sever(/*ages_pbcom=*/true);
}

void FedrPbcomLink::on_pbcom_killed() {
  ++epoch_;
  // pbcom going down severs the connection but rejuvenates pbcom itself.
  sever(/*ages_pbcom=*/false);
  pbcom_age_ = 0;
}

void FedrPbcomLink::sever(bool ages_pbcom) {
  if (!connected_) return;
  connected_ = false;
  if (!ages_pbcom) return;

  ++pbcom_age_;
  if (pbcom_age_ >= station_.cal().pbcom_aging_threshold &&
      !station_.board().manifests_at(names::kPbcom)) {
    core::FailureSpec aging = core::make_crash(names::kPbcom);
    aging.kind = "aging";
    station_.board().inject(std::move(aging), station_.sim().now());
  }
}

void FedrPbcomLink::on_fedr_started() {
  try_connect(station_.cal().fedr_connect, epoch_);
}

void FedrPbcomLink::on_pbcom_started() {
  // fedr (if alive) notices the dropped connection and reconnects on its
  // retry poll — the "communication overhead" behind pbcom's 21.24 s.
  Component* fedr = station_.component(names::kFedr);
  if (fedr != nullptr && fedr->up() && !fedr->restarting()) {
    try_connect(station_.cal().fedr_reconnect, epoch_);
  }
}

void FedrPbcomLink::try_connect(util::Duration delay, std::uint64_t epoch) {
  station_.sim().schedule_after(delay, "fedr.connect", [this, epoch] {
    if (epoch != epoch_) return;  // a kill intervened
    retry_loop(epoch);
  });
}

void FedrPbcomLink::retry_loop(std::uint64_t epoch) {
  if (epoch != epoch_) return;
  Component* fedr = station_.component(names::kFedr);
  Component* pbcom = station_.component(names::kPbcom);
  if (fedr == nullptr || pbcom == nullptr) return;
  if (!fedr->up() || fedr->restarting()) return;
  if (pbcom->responsive()) {
    connected_ = true;
    return;
  }
  // pbcom not ready (restarting or manifesting): poll again.
  station_.sim().schedule_after(station_.cal().fedr_reconnect, "fedr.retry",
                                [this, epoch] { retry_loop(epoch); });
}

void FedrPbcomLink::on_instant_boot() {
  connected_ = true;
  pbcom_age_ = 0;
}

}  // namespace mercury::station

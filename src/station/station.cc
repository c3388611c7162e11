#include "station/station.h"

#include <cassert>

#include "core/mercury_trees.h"

namespace mercury::station {

namespace names = core::component_names;

Station::Station(sim::Simulator& sim, StationConfig config)
    : sim_(sim),
      config_(std::move(config)),
      serial_port_(radio_),
      satellite_(config_.satellite) {
  bus_ = std::make_unique<bus::MessageBus>(sim_, config_.bus);
  sync_ = std::make_unique<SyncCoordinator>(*this, names::kSes, names::kStr);
  checkpoints_.configure(config_.checkpoints);
  process_manager_ = std::make_unique<ProcessManager>(*this);

  const Calibration& cal = config_.cal;
  components_[names::kMbus] = std::make_unique<MbusComponent>(*this, cal.mbus);
  components_[names::kSes] =
      std::make_unique<SesComponent>(*this, cal.ses, *sync_);
  components_[names::kStr] =
      std::make_unique<StrComponent>(*this, cal.str, *sync_);
  components_[names::kRtu] = std::make_unique<RtuComponent>(*this, cal.rtu);

  if (config_.split_fedrcom) {
    link_ = std::make_unique<FedrPbcomLink>(*this);
    components_[names::kFedr] =
        std::make_unique<FedrComponent>(*this, cal.fedr, *link_);
    components_[names::kPbcom] =
        std::make_unique<PbcomComponent>(*this, cal.pbcom, *link_);
    radio_frontend_ = names::kFedr;

    // §4.2: "when fedr fails, its connection to pbcom is severed" — a crash
    // (not only a kill) drops the TCP connection and ages pbcom.
    board_.add_inject_listener([this](const core::ActiveFailure& failure) {
      if (failure.spec->manifest == names::kFedr && failure.spec->kind == "crash") {
        link_->on_fedr_crash_manifested();
      }
    });
  } else {
    components_[names::kFedrcom] =
        std::make_unique<FedrcomComponent>(*this, cal.fedrcom);
    radio_frontend_ = names::kFedrcom;
  }

  // An mbus *crash* (not just a restart) takes the whole bus down: the paper
  // calls mbus failures fail-silent JVM deaths, and a dead bus silences
  // every endpoint, which is how FD's mbus-verification path attributes the
  // outage correctly. Soft-curable transients (a stale attachment) leave
  // the bus process running.
  board_.add_inject_listener([this](const core::ActiveFailure& failure) {
    if (failure.spec->manifest == names::kMbus && !failure.spec->soft_curable) {
      bus_->crash();
    }
  });

  // An L1 replica lives in its host component's memory: a crash of the host
  // (anything that kills the process, i.e. not a soft-curable transient)
  // takes every replica it held down with it. This is what makes the
  // correlated-failure cases real — a fault that fells both a component and
  // its partner leaves only stable storage between it and a cold start.
  if (config_.checkpoints.enabled) {
    board_.add_inject_listener([this](const core::ActiveFailure& failure) {
      if (!failure.spec->soft_curable) {
        checkpoints_.on_host_down(failure.spec->manifest);
      }
    });
  }
}

FedrPbcomLink& Station::fedr_pbcom_link() {
  assert(link_ && "fedr/pbcom link only exists in split configuration");
  return *link_;
}

Component* Station::component(const std::string& name) {
  const auto it = components_.find(name);
  return it == components_.end() ? nullptr : it->second.get();
}

const Component* Station::component(const std::string& name) const {
  const auto it = components_.find(name);
  return it == components_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Station::component_names() const {
  std::vector<std::string> out;
  out.reserve(components_.size());
  for (const auto& [name, component] : components_) out.push_back(name);
  return out;
}

void Station::boot_instant() {
  for (auto& [name, component] : components_) component->instant_boot();
}

void Station::reattach_all() {
  for (auto& [name, component] : components_) component->attach_to_bus();
}

void Station::add_bus_restart_listener(std::function<void()> listener) {
  bus_restart_listeners_.push_back(std::move(listener));
}

void Station::notify_bus_restarted() {
  for (const auto& listener : bus_restart_listeners_) listener();
}

void Station::add_restart_listener(
    std::function<void(const std::string&, util::TimePoint)> listener) {
  restart_listeners_.push_back(std::move(listener));
}

void Station::notify_component_restarted(const std::string& name) {
  for (const auto& listener : restart_listeners_) listener(name, sim_.now());
}

bool Station::all_functional() const {
  if (!bus_->online()) return false;
  if (board_.any_active()) return false;
  if (process_manager_->restart_in_progress()) return false;
  for (const auto& [name, component] : components_) {
    if (!component->functional()) return false;
  }
  return true;
}

bool Station::functional_except(const std::set<std::string>& excluded) const {
  if (!bus_->online()) return false;
  for (const auto& failure : board_.active()) {
    if (!excluded.contains(failure.spec->manifest)) return false;
  }
  for (const auto& [name, component] : components_) {
    if (excluded.contains(name)) continue;
    if (!component->functional() || component->restarting()) return false;
  }
  return true;
}

void Station::set_restart_faults(const std::string& component_name,
                                 core::RestartFaultSpec spec) {
  assert(component(component_name) != nullptr);
  board_.set_restart_faults(component_name, spec);
}

void Station::save_checkpoint(
    const std::string& component_name,
    std::vector<std::pair<std::string, std::string>> payload) {
  if (!config_.checkpoints.enabled) return;
  assert(component(component_name) != nullptr);
  checkpoints_.save(component_name, std::move(payload), sim_.now());
}

core::FailureId Station::inject_crash(const std::string& component_name) {
  assert(component(component_name) != nullptr);
  return board_.inject(core::make_crash(component_name), sim_.now());
}

core::FailureId Station::inject_joint_fedr_pbcom() {
  assert(config_.split_fedrcom);
  return board_.inject(
      core::make_joint(names::kPbcom, {names::kFedr, names::kPbcom}), sim_.now());
}

core::FailureId Station::inject_stale_attachment(const std::string& component_name) {
  assert(component(component_name) != nullptr);
  // The stale endpoint really is gone from the bus; the soft procedure (or
  // a restart) re-attaches it.
  bus_->detach(component_name);
  return board_.inject(core::make_stale_attachment(component_name), sim_.now());
}

}  // namespace mercury::station

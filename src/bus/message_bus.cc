#include "bus/message_bus.h"

#include <functional>
#include <string_view>

namespace mercury::bus {

namespace {
/// Message size limit; oversized messages are dropped and counted.
constexpr std::size_t kMaxWireBytes = 64 * 1024;
}  // namespace

MessageBus::MessageBus(sim::Simulator& sim, BusConfig config)
    : sim_(sim), config_(config), rng_(sim.rng().fork("mbus")) {}

void MessageBus::attach(const std::string& name, Receiver receiver) {
  endpoints_.insert_or_assign(name, std::move(receiver));
  ++endpoints_version_;  // invalidate cached routes: re-register semantics
  restarting_.erase(name);  // back on the bus: no longer mid-restart
}

MessageBus::Receiver* MessageBus::find_receiver(const std::string& to) {
  RouteEntry& entry =
      route_cache_[std::hash<std::string_view>{}(to) & (kRouteCacheSize - 1)];
  if (entry.version == endpoints_version_ && entry.to == to) {
    return &endpoints_.at_index(entry.index).second;
  }
  const auto it = endpoints_.find(to);
  if (it == endpoints_.end()) return nullptr;
  entry.to = to;
  entry.index = static_cast<std::uint32_t>(endpoints_.index_of(it));
  entry.version = endpoints_version_;
  return &it->second;
}

void MessageBus::note_restarting(const std::string& name, std::uint64_t epoch) {
  restarting_.insert_or_assign(name, epoch);
}

bool MessageBus::restarting(const std::string& name) const {
  return restarting_.contains(name);
}

void MessageBus::set_touch_listener(TouchListener listener) {
  touch_listener_ = std::move(listener);
}

void MessageBus::detach(const std::string& name) {
  if (endpoints_.erase(name) > 0) ++endpoints_version_;
}

bool MessageBus::attached(const std::string& name) const {
  return endpoints_.contains(name);
}

std::vector<std::string> MessageBus::endpoint_names() const {
  std::vector<std::string> names;
  names.reserve(endpoints_.size());
  for (const auto& [name, receiver] : endpoints_) names.push_back(name);
  return names;
}

void MessageBus::send(const msg::Message& message) {
  ++stats_.sent;
  if (!online_) {
    ++stats_.dropped_bus_down;
    return;
  }
  if (msg::encode(message).size() > kMaxWireBytes) {
    ++stats_.dropped_oversize;
    return;
  }
  // A frame with no return or destination address has no valid header
  // (decode() rejects it): drop it, once per target for a broadcast.
  if (message.from.empty() || message.to.empty()) {
    if (message.to == "*") {
      for (const auto& [name, receiver] : endpoints_) {
        if (name != message.from) ++stats_.dropped_no_endpoint;
      }
    } else {
      ++stats_.dropped_no_endpoint;
    }
    return;
  }

  // Every delivery shares one immutable copy of the message as sent.
  const auto shared = std::make_shared<const msg::Message>(message);
  if (message.to == "*") {
    // Scheduling deliveries never mutates the endpoint table, so broadcasts
    // iterate it directly (same order the old targets vector was built in).
    for (const auto& [name, receiver] : endpoints_) {
      if (name != message.from) dispatch(name, shared);
    }
  } else {
    dispatch(message.to, shared);
  }
}

void MessageBus::dispatch(const std::string& target,
                          const std::shared_ptr<const msg::Message>& message) {
  if (config_.loss_probability > 0.0 && rng_.chance(config_.loss_probability)) {
    ++stats_.dropped_lossy;
    return;
  }
  const Duration latency =
      config_.latency +
      Duration::seconds(rng_.uniform(0.0, config_.latency_jitter.to_seconds()));
  const std::uint64_t epoch = epoch_;
  if (target == message->to) {
    // Point-to-point: the message already names the target — no
    // per-delivery string copy in the closure.
    sim_.schedule_after(latency, "mbus.deliver:" + target,
                        [this, epoch, message] { deliver(epoch, message->to, message); });
  } else {
    sim_.schedule_after(latency, "mbus.deliver:" + target,
                        [this, epoch, target, message] { deliver(epoch, target, message); });
  }
}

void MessageBus::deliver(std::uint64_t epoch, const std::string& to,
                         const std::shared_ptr<const msg::Message>& message) {
  if (!online_ || epoch != epoch_) {
    ++stats_.dropped_bus_down;
    return;
  }
  Receiver* receiver_slot = find_receiver(to);
  if (receiver_slot == nullptr) {
    // Mid-restart endpoint (ISSUE 9): the process backend marked it at kill
    // time. The touch listener sees the request (traffic-driven recovery),
    // and the sender gets a kNack carrying the component and its failure
    // epoch — a fast, actionable retry signal — instead of a silent drop.
    const auto mid_restart = restarting_.find(to);
    if (mid_restart != restarting_.end()) {
      const msg::Message& request = *message;
      if (touch_listener_) touch_listener_(to, request.from);
      // Never answer a nack with a nack (no error-on-error loops), and
      // never answer our own error messages. (send() already dropped any
      // message without a return address.)
      if (request.kind != msg::Kind::kNack && request.from != "mbus") {
        ++stats_.rejected_restarting;
        msg::Message error = msg::make_nack(request, "mbus", "restarting");
        error.body.set_attr("component", to);
        error.body.set_attr("epoch", std::to_string(mid_restart->second));
        send(error);
        return;
      }
    }
    ++stats_.dropped_no_endpoint;
    return;
  }
  ++stats_.delivered;
  // Copy the receiver: the callback may detach/re-attach endpoints, which
  // moves flat-map slots out from under the pointer.
  Receiver receiver = *receiver_slot;
  receiver(*message);
}

void MessageBus::crash() {
  if (!online_) return;
  online_ = false;
  ++epoch_;  // voids in-flight deliveries
  endpoints_.clear();
  ++endpoints_version_;
}

void MessageBus::restart() {
  online_ = true;
}

}  // namespace mercury::bus

#include "station/sync_coordinator.h"

#include <cassert>

#include "core/failure.h"
#include "station/station.h"

namespace mercury::station {

SyncCoordinator::SyncCoordinator(Station& station, std::string a, std::string b)
    : station_(station) {
  a_.name = std::move(a);
  b_.name = std::move(b);
}

SyncCoordinator::Side& SyncCoordinator::side(const std::string& component) {
  assert(component == a_.name || component == b_.name);
  return component == a_.name ? a_ : b_;
}

const SyncCoordinator::Side& SyncCoordinator::side(const std::string& component) const {
  assert(component == a_.name || component == b_.name);
  return component == a_.name ? a_ : b_;
}

SyncCoordinator::Side& SyncCoordinator::peer_of(const std::string& component) {
  return component == a_.name ? b_ : a_;
}

bool SyncCoordinator::synced(const std::string& component) const {
  return side(component).state == State::kSynced;
}

SyncCoordinator::State SyncCoordinator::state(const std::string& component) const {
  return side(component).state;
}

void SyncCoordinator::on_killed(const std::string& component) {
  ++epoch_;  // void any in-flight handshake completion
  Side& self = side(component);
  self.state = State::kNoSession;
  // The survivor's session now dangles at a dead peer; it does not notice
  // (the peer is fail-silent). Its state intentionally stays kSynced-stale
  // until the fresh peer's resync attempt trips the bug.
}

void SyncCoordinator::on_started(const std::string& component) {
  Side& self = side(component);
  Side& peer = peer_of(component);
  Component* peer_component = station_.component(peer.name);
  assert(peer_component != nullptr);

  if (peer_component->restarting()) {
    // Group restart: wait for the peer, then collide (handled when the peer
    // completes and finds us in kAwaitPeer).
    self.state = State::kAwaitPeer;
    return;
  }

  if (peer.state == State::kAwaitPeer) {
    // Both sides fresh from a near-simultaneous restart: simultaneous
    // handshake initiation collides and renegotiates (§4.3 consolidation
    // cost — cheap compared to a second detect+restart round). When both
    // sides warm-started they hold matching checkpointed offsets and resume
    // the saved session instead of renegotiating from scratch (ISSUE 3).
    Component* self_component = station_.component(component);
    const bool both_warm = self_component != nullptr &&
                           self_component->warm_started() &&
                           peer_component->warm_started();
    self.state = State::kNegotiating;
    peer.state = State::kNegotiating;
    complete_handshake(
        both_warm ? station_.cal().sync_listen : station_.cal().sync_collide,
        epoch_);
    return;
  }

  if (peer.state == State::kListenWait) {
    // The peer has been parked listening; a fresh initiator syncs quickly.
    self.state = State::kNegotiating;
    peer.state = State::kNegotiating;
    complete_handshake(station_.cal().sync_listen, epoch_);
    return;
  }

  if (peer_component->responsive() && peer.state == State::kSynced) {
    Component* self_component = station_.component(component);
    if (self_component != nullptr && self_component->warm_started()) {
      // Warm restart (ISSUE 3): the checkpointed offsets let the fresh side
      // *resume* the session the peer still holds instead of initiating a
      // new one — the stale-session resync bug is never tripped, so the
      // induced peer wedge (and its whole second detect+restart round) is
      // avoided. This is the ses/str chain's warm-restart win.
      self.state = State::kNegotiating;
      peer.state = State::kNegotiating;
      complete_handshake(station_.cal().sync_listen, epoch_);
      return;
    }
    // The resync bug (§4.3): a fresh session initiation against a peer
    // holding a stale session wedges the peer. "A failure/restart in one of
    // these components substantially always leads to a subsequent
    // failure/restart in the other."
    core::FailureSpec wedge = core::make_crash(peer.name);
    wedge.kind = "induced-resync";
    station_.board().inject(std::move(wedge), station_.sim().now());
    peer.state = State::kNoSession;
    self.state = State::kListenWait;
    return;
  }

  // Peer is up but unresponsive (crashed/manifesting) or has no session:
  // park and wait for its recovery.
  self.state = State::kListenWait;
}

void SyncCoordinator::complete_handshake(util::Duration delay, std::uint64_t epoch) {
  station_.sim().schedule_after(delay, "sync.handshake", [this, epoch] {
    if (epoch != epoch_) return;  // a kill intervened
    if (a_.state == State::kNegotiating && b_.state == State::kNegotiating) {
      a_.state = State::kSynced;
      b_.state = State::kSynced;
      save_session_checkpoints();
    }
  });
}

void SyncCoordinator::save_session_checkpoints() {
  ++session_;
  const std::string session = std::to_string(session_);
  station_.save_checkpoint(a_.name, {{"peer", b_.name}, {"session", session}});
  station_.save_checkpoint(b_.name, {{"peer", a_.name}, {"session", session}});
}

void SyncCoordinator::on_instant_boot() {
  a_.state = State::kSynced;
  b_.state = State::kSynced;
  save_session_checkpoints();
}

}  // namespace mercury::station

#include "core/checkpoint.h"

#include <algorithm>

#include "core/restart_tree.h"
#include "util/hash.h"

namespace mercury::core {

std::string_view to_string(CheckpointVerdict verdict) {
  switch (verdict) {
    case CheckpointVerdict::kValid: return "valid";
    case CheckpointVerdict::kMissing: return "missing";
    case CheckpointVerdict::kStale: return "stale";
    case CheckpointVerdict::kVersionMismatch: return "version-mismatch";
    case CheckpointVerdict::kCorrupt: return "corrupt";
  }
  return "?";
}

std::uint64_t checkpoint_checksum(const Checkpoint& checkpoint) {
  std::uint64_t hash = util::kFnv1aBasis;
  // Each field ends in a 0xFF separator, so {"ab","c"} and {"a","bc"} differ.
  const auto mix = [&hash](std::string_view field) {
    hash = util::fnv1a("\xFF", util::fnv1a(field, hash));
  };
  mix(checkpoint.component);
  mix(std::to_string(checkpoint.version));
  for (const auto& [key, value] : checkpoint.payload) {
    mix(key);
    mix(value);
  }
  return hash;
}

void CheckpointStore::save(
    const std::string& component,
    std::vector<std::pair<std::string, std::string>> payload,
    util::TimePoint now) {
  Checkpoint checkpoint;
  checkpoint.component = component;
  checkpoint.saved_at = now;
  checkpoint.payload = std::move(payload);
  checkpoint.checksum = checkpoint_checksum(checkpoint);
  checkpoints_[component] = std::move(checkpoint);
  ++saves_;
}

void CheckpointStore::put(Checkpoint checkpoint) {
  const std::string component = checkpoint.component;
  checkpoints_[component] = std::move(checkpoint);
  ++saves_;
}

const Checkpoint* CheckpointStore::find(const std::string& component) const {
  const auto it = checkpoints_.find(component);
  return it == checkpoints_.end() ? nullptr : &it->second;
}

CheckpointVerdict CheckpointStore::validate(const std::string& component,
                                            util::TimePoint now,
                                            util::Duration ttl) const {
  const Checkpoint* checkpoint = find(component);
  if (checkpoint == nullptr) return CheckpointVerdict::kMissing;
  if (checkpoint->checksum != checkpoint_checksum(*checkpoint)) {
    return CheckpointVerdict::kCorrupt;
  }
  if (checkpoint->version != kCheckpointSchemaVersion) {
    return CheckpointVerdict::kVersionMismatch;
  }
  if (now - checkpoint->saved_at > ttl) return CheckpointVerdict::kStale;
  return CheckpointVerdict::kValid;
}

bool CheckpointStore::discard(const std::string& component) {
  if (checkpoints_.erase(component) == 0) return false;
  ++discards_;
  return true;
}

void CheckpointStore::clear() { checkpoints_.clear(); }

bool CheckpointStore::corrupt(const std::string& component) {
  const auto it = checkpoints_.find(component);
  if (it == checkpoints_.end()) return false;
  it->second.payload.emplace_back("bitrot", "1");
  return true;
}

bool CheckpointStore::poison(const std::string& component) {
  if (!corrupt(component)) return false;
  Checkpoint& checkpoint = checkpoints_[component];
  checkpoint.checksum = checkpoint_checksum(checkpoint);
  checkpoint.poisoned = true;
  return true;
}

bool CheckpointStore::stale_date(const std::string& component,
                                 util::TimePoint saved_at) {
  const auto it = checkpoints_.find(component);
  if (it == checkpoints_.end()) return false;
  it->second.saved_at = saved_at;
  return true;
}

std::string_view to_string(CheckpointTier tier) {
  switch (tier) {
    case CheckpointTier::kL0Local: return "l0-local";
    case CheckpointTier::kL1Partner: return "l1-partner";
    case CheckpointTier::kL2Stable: return "l2-stable";
  }
  return "?";
}

std::map<std::string, std::string> choose_partners(const RestartTree& tree) {
  const std::vector<std::string> components = tree.all_components();
  std::map<std::string, std::string> partner_of;
  if (components.size() < 2) return partner_of;
  for (std::size_t i = 0; i < components.size(); ++i) {
    const std::string& component = components[i];
    const std::optional<NodeId> own_cell = tree.find_component(component);
    // Prefer the first ring successor attached to a different cell: the
    // minimal restart of this component's cell then cannot take the replica
    // host down with it. Fall back to the plain ring neighbour.
    std::string chosen = components[(i + 1) % components.size()];
    for (std::size_t step = 1; step < components.size(); ++step) {
      const std::string& candidate = components[(i + step) % components.size()];
      if (tree.find_component(candidate) != own_cell) {
        chosen = candidate;
        break;
      }
    }
    partner_of[component] = std::move(chosen);
  }
  return partner_of;
}

std::string TierLookup::miss_reason() const {
  if (hit || probes.empty()) return std::string(to_string(CheckpointVerdict::kMissing));
  return std::string(to_string(probes.front().verdict));
}

void TieredCheckpointStore::set_partners(
    std::map<std::string, std::string> partner_of) {
  partner_of_ = std::move(partner_of);
  hosted_by_.clear();
  for (const auto& [component, host] : partner_of_) {
    hosted_by_[host].push_back(component);
  }
}

const std::string& TieredCheckpointStore::partner_of(
    const std::string& component) const {
  static const std::string kNone;
  const auto it = partner_of_.find(component);
  return it == partner_of_.end() ? kNone : it->second;
}

bool TieredCheckpointStore::l1_available_for(
    const std::string& component) const {
  return policy_.tier_enabled(CheckpointTier::kL1Partner) &&
         partner_of_.count(component) != 0;
}

void TieredCheckpointStore::save(
    const std::string& component,
    std::vector<std::pair<std::string, std::string>> payload,
    util::TimePoint now) {
  if (!policy_.enabled) return;
  ++saves_;
  if (l1_available_for(component)) {
    tier(CheckpointTier::kL1Partner).save(component, payload, now);
  }
  if (policy_.tier_enabled(CheckpointTier::kL2Stable)) {
    tier(CheckpointTier::kL2Stable).save(component, payload, now);
  }
  tier(CheckpointTier::kL0Local).save(component, std::move(payload), now);
}

TierLookup TieredCheckpointStore::lookup(const std::string& component,
                                         util::TimePoint now) {
  TierLookup result;
  for (std::size_t i = 0; i < kCheckpointTierCount; ++i) {
    const CheckpointTier t = static_cast<CheckpointTier>(i);
    if (!policy_.tier_enabled(t)) continue;
    TierProbe probe;
    probe.tier = t;
    probe.verdict = tier(t).validate(component, now, policy_.ttl);
    if (probe.verdict == CheckpointVerdict::kValid) {
      result.probes.push_back(probe);
      result.hit = true;
      result.tier = t;
      result.checkpoint = tier(t).find(component);
      ++tier_hits_[i];
      return result;
    }
    // Detectably-bad copies are deleted as the walk passes them: a corrupt
    // or version-skewed snapshot can never serve, and keeping it would just
    // re-fail the next lookup. Stale copies are kept — a later rebuild from
    // a fresher tier overwrites them, and TTL judgments depend on `now`.
    if (probe.verdict == CheckpointVerdict::kCorrupt ||
        probe.verdict == CheckpointVerdict::kVersionMismatch) {
      probe.discarded = tier(t).discard(component);
    }
    result.probes.push_back(probe);
  }
  return result;
}

std::size_t TieredCheckpointStore::rebuild(const std::string& component,
                                           util::TimePoint now) {
  // Find the newest valid copy across tiers (ties go to the lower tier).
  const Checkpoint* source = nullptr;
  for (std::size_t i = 0; i < kCheckpointTierCount; ++i) {
    const CheckpointTier t = static_cast<CheckpointTier>(i);
    if (!policy_.tier_enabled(t)) continue;
    if (tier(t).validate(component, now, policy_.ttl) !=
        CheckpointVerdict::kValid) {
      continue;
    }
    const Checkpoint* candidate = tier(t).find(component);
    if (source == nullptr || candidate->saved_at > source->saved_at) {
      source = candidate;
    }
  }
  if (source == nullptr) return 0;

  // Re-replicate it into every enabled tier lacking a valid copy. The copy
  // keeps the source's saved_at: replication does not refresh state.
  const Checkpoint snapshot = *source;  // source may be in a tier we touch
  std::size_t repopulated = 0;
  for (std::size_t i = 0; i < kCheckpointTierCount; ++i) {
    const CheckpointTier t = static_cast<CheckpointTier>(i);
    if (!policy_.tier_enabled(t)) continue;
    if (t == CheckpointTier::kL1Partner && !l1_available_for(component)) {
      continue;
    }
    if (tier(t).validate(component, now, policy_.ttl) ==
        CheckpointVerdict::kValid) {
      continue;
    }
    tier(t).put(snapshot);
    ++repopulated;
  }
  rebuilds_ += repopulated;
  return repopulated;
}

bool TieredCheckpointStore::suspect_discard(const std::string& component) {
  const bool had = tier(CheckpointTier::kL0Local).discard(component);
  if (had) ++suspect_discards_;
  return had;
}

bool TieredCheckpointStore::discard(const std::string& component) {
  bool any = false;
  for (auto& store : tiers_) any = store.discard(component) || any;
  return any;
}

bool TieredCheckpointStore::discard_tier(const std::string& component,
                                         CheckpointTier t) {
  return tier(t).discard(component);
}

std::size_t TieredCheckpointStore::kill_tier(CheckpointTier t) {
  const std::size_t dropped = tier(t).size();
  tier(t).clear();
  return dropped;
}

std::size_t TieredCheckpointStore::on_host_down(const std::string& host) {
  const auto it = hosted_by_.find(host);
  if (it == hosted_by_.end()) return 0;
  std::size_t dropped = 0;
  for (const std::string& component : it->second) {
    if (tier(CheckpointTier::kL1Partner).discard(component)) ++dropped;
  }
  host_loss_drops_ += dropped;
  return dropped;
}

std::size_t TieredCheckpointStore::on_host_parked(const std::string& host,
                                                  util::TimePoint now) {
  if (!parked_hosts_.insert(host).second) return 0;
  // The parked host's in-memory replicas are as gone as a crashed host's
  // (usually already dropped by on_host_down during the failed restarts).
  on_host_down(host);
  if (!policy_.tier_enabled(CheckpointTier::kL1Partner)) return 0;

  // Reassign every component whose replica host is now parked. The sorted
  // component ring is walked past parked hosts and the component itself to
  // the next live host; cell affinity is not re-derived here (the tree is
  // long gone) — a live host in the same cell still beats a dead one.
  std::vector<std::string> ring;
  ring.reserve(partner_of_.size());
  for (const auto& [component, partner] : partner_of_) ring.push_back(component);
  std::size_t reassigned = 0;
  for (auto& [component, partner] : partner_of_) {
    if (!parked_hosts_.contains(partner)) continue;
    if (parked_hosts_.contains(component)) continue;  // orphan is parked too
    const auto it = std::lower_bound(ring.begin(), ring.end(), component);
    const std::size_t base = static_cast<std::size_t>(it - ring.begin());
    std::string chosen;
    for (std::size_t step = 1; step < ring.size(); ++step) {
      const std::string& candidate = ring[(base + step) % ring.size()];
      if (candidate == component || parked_hosts_.contains(candidate)) continue;
      chosen = candidate;
      break;
    }
    if (chosen.empty()) continue;  // no live host left; L1 stays lost
    partner = std::move(chosen);
    ++reassigned;
    // Rebuild the orphaned replica at the new host from surviving tiers, so
    // the component's next failure still warm-hits L1.
    rebuild(component, now);
  }
  if (reassigned > 0) {
    hosted_by_.clear();
    for (const auto& [component, partner] : partner_of_) {
      hosted_by_[partner].push_back(component);
    }
  }
  parked_reassigns_ += reassigned;
  return reassigned;
}

void TieredCheckpointStore::clear() {
  for (auto& store : tiers_) store.clear();
}

bool TieredCheckpointStore::corrupt(const std::string& component,
                                    CheckpointTier t) {
  return tier(t).corrupt(component);
}

bool TieredCheckpointStore::poison(const std::string& component,
                                   CheckpointTier t) {
  return tier(t).poison(component);
}

bool TieredCheckpointStore::stale_date(const std::string& component,
                                       CheckpointTier t,
                                       util::TimePoint saved_at) {
  return tier(t).stale_date(component, saved_at);
}

const Checkpoint* TieredCheckpointStore::find(const std::string& component,
                                              CheckpointTier t) const {
  return tier(t).find(component);
}

bool TieredCheckpointStore::has(const std::string& component,
                                CheckpointTier t) const {
  return tier(t).find(component) != nullptr;
}

}  // namespace mercury::core

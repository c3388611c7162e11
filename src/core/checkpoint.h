// Checkpoint storage for warm restarts: a single-tier store (PR 3) grown
// into a multi-tier, replicated subsystem (ISSUE 7).
//
// The paper's recovery times are dominated by state reconstruction, not
// process respawn: pbcom's serial negotiation ("takes over 21 seconds") and
// the ses/str resynchronization are what make Tables 1/2 slow. Microreboot
// and ReStore showed that separating recoverable state from process
// lifetime makes restarts drastically cheaper: if the soft state a
// component would otherwise rebuild survives the process in a checkpoint,
// the restarted process can reload it and skip the slow part — a *warm*
// restart.
//
// A single local store leaves a cliff, though: lose or corrupt that one
// snapshot and the component falls all the way back to cold. So checkpoints
// are tiered, SCR/ReStore-style:
//
//   L0 local    — the component's own snapshot (PR 3's store). Fastest
//                 reload; first casualty of the fault that killed the
//                 component, and shed outright on fault suspicion.
//   L1 partner  — an in-memory replica held by a buddy component chosen
//                 from the restart tree (choose_partners). Survives the
//                 victim's own crash; dies with its *host* — a whole-group
//                 restart or a correlated failure that takes the partner
//                 down loses the replica too.
//   L2 stable   — file-backed stable storage. Slowest reload; survives
//                 process deaths, lost only to explicit (injected) damage.
//
// save() writes through every enabled tier at snapshot commit; lookup()
// walks the tiers newest-first and the first valid copy warm-starts the
// restart; rebuild() re-replicates the serving copy into tiers lost to the
// fault, so the *next* failure of the same cell still warm-hits.
//
// Validity stays strict and the default stays cold:
//
//   * every snapshot carries a schema version and an FNV-1a checksum over
//     its payload; a mismatch of either is kCorrupt/kVersionMismatch and
//     that tier's copy is discarded (never retried) — the walk continues;
//   * a snapshot older than the policy TTL is kStale — the world may have
//     moved on (the serial peer renegotiated, the sync session expired);
//   * a component whose previous startup attempt in the current failure
//     chain already failed is *fault-suspected*: its L0 copy is discarded
//     without inspection (suspect_discard), because corrupted-but-
//     checksum-valid state is indistinguishable from a restart-path fault.
//     The partner and stable tiers are NOT suspected — they did not feed
//     the failed attempt — so the retry still tries them before going cold.
//
// Damage-injection hooks are per-tier (corrupt / poison / stale_date /
// discard_tier / kill_tier), so chaos benches can kill one tier at a time
// and measure warm-hit rate per redundancy scheme.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/time.h"

namespace mercury::core {

class RestartTree;

/// Current snapshot schema; bump when payload layout changes. Snapshots
/// from other versions never warm-start a component.
inline constexpr int kCheckpointSchemaVersion = 1;

/// One saved soft-state snapshot for a component.
struct Checkpoint {
  std::string component;
  int version = kCheckpointSchemaVersion;
  util::TimePoint saved_at;
  /// Ordered key/value soft state (sync offsets, serial params, ...).
  std::vector<std::pair<std::string, std::string>> payload;
  /// FNV-1a over component | version | payload (see checkpoint_checksum).
  std::uint64_t checksum = 0;
  /// Ground truth for the fault injector: the payload was corrupted and the
  /// checksum recomputed, so validation cannot tell. A warm start consuming
  /// a poisoned snapshot crashes during startup (a restart-path fault).
  bool poisoned = false;
};

enum class CheckpointVerdict {
  kValid,
  kMissing,
  kStale,
  kVersionMismatch,
  kCorrupt,
};

std::string_view to_string(CheckpointVerdict verdict);

/// The redundancy tiers, in lookup (newest-first) order.
enum class CheckpointTier : int {
  kL0Local = 0,
  kL1Partner = 1,
  kL2Stable = 2,
};
inline constexpr std::size_t kCheckpointTierCount = 3;

std::string_view to_string(CheckpointTier tier);

/// Warm-restart policy knobs, carried in the station configuration. Off by
/// default so legacy configurations reproduce the seed's numbers
/// bit-for-bit; with only `enabled` set, the subsystem is exactly PR 3's
/// single local store (L0).
struct CheckpointPolicy {
  bool enabled = false;
  /// Snapshots older than this at restart time are stale (cold fallback).
  util::Duration ttl = util::Duration::minutes(10.0);
  /// Replicate snapshots to a partner-hosted in-memory tier (needs a
  /// partner map, see TieredCheckpointStore::set_partners).
  bool l1_partner = false;
  /// Replicate snapshots to stable file-backed storage.
  bool l2_stable = false;

  bool tier_enabled(CheckpointTier tier) const {
    switch (tier) {
      case CheckpointTier::kL0Local: return enabled;
      case CheckpointTier::kL1Partner: return enabled && l1_partner;
      case CheckpointTier::kL2Stable: return enabled && l2_stable;
    }
    return false;
  }
  /// Warm reload slowdown per tier, relative to the local copy: fetching
  /// the replica from the partner / re-reading stable storage costs a
  /// little more than a local reload, but both remain far below cold.
  static double reload_factor(CheckpointTier tier) {
    switch (tier) {
      case CheckpointTier::kL0Local: return 1.0;
      case CheckpointTier::kL1Partner: return 1.1;
      case CheckpointTier::kL2Stable: return 1.25;
    }
    return 1.0;
  }
};

std::uint64_t checkpoint_checksum(const Checkpoint& checkpoint);

/// One tier's worth of snapshot storage (PR 3's store, unchanged). The
/// tiered store owns one per tier; it also remains directly usable where a
/// single flat store is all that is needed.
class CheckpointStore {
 public:
  /// Save (or overwrite) `component`'s snapshot; computes the checksum.
  void save(const std::string& component,
            std::vector<std::pair<std::string, std::string>> payload,
            util::TimePoint now);

  /// Insert a caller-built snapshot verbatim, checksum included. Test and
  /// injection hook; save() is the component-facing API.
  void put(Checkpoint checkpoint);

  /// nullptr when no snapshot is stored for `component`.
  const Checkpoint* find(const std::string& component) const;

  /// Validity of `component`'s snapshot for a warm restart at `now`.
  CheckpointVerdict validate(const std::string& component, util::TimePoint now,
                             util::Duration ttl) const;

  /// Drop `component`'s snapshot; returns whether one was present.
  bool discard(const std::string& component);
  void clear();
  std::size_t size() const { return checkpoints_.size(); }

  // --- Fault-injection hooks ----------------------------------------------
  /// Flip the payload without updating the checksum: detectably corrupt.
  /// Returns false when no snapshot exists.
  bool corrupt(const std::string& component);
  /// Flip the payload AND recompute the checksum: validation passes, the
  /// warm start consuming it crashes (undetectable corruption).
  bool poison(const std::string& component);
  /// Backdate the snapshot to `saved_at` (typically beyond the TTL).
  bool stale_date(const std::string& component, util::TimePoint saved_at);

  std::uint64_t saves() const { return saves_; }
  std::uint64_t discards() const { return discards_; }

 private:
  std::map<std::string, Checkpoint> checkpoints_;
  std::uint64_t saves_ = 0;
  std::uint64_t discards_ = 0;
};

/// Deterministic L1 partner assignment from the restart tree: each
/// component's replica is hosted by the next component in the sorted ring
/// that is attached to a *different* cell (so the minimal restart of the
/// component's own cell cannot take the replica host down with it). When
/// every other component shares the cell, the ring neighbour is used
/// regardless — a replica in a doomed host still beats no replica.
std::map<std::string, std::string> choose_partners(const RestartTree& tree);

/// Outcome of probing one tier during a lookup walk.
struct TierProbe {
  CheckpointTier tier = CheckpointTier::kL0Local;
  CheckpointVerdict verdict = CheckpointVerdict::kMissing;
  /// The probe found a detectably-invalid copy and deleted it.
  bool discarded = false;
};

/// Result of the newest-valid-tier walk.
struct TierLookup {
  bool hit = false;
  CheckpointTier tier = CheckpointTier::kL0Local;
  /// The serving snapshot; valid until the store is next mutated.
  const Checkpoint* checkpoint = nullptr;
  /// Every tier probed, in walk order, with its verdict.
  std::vector<TierProbe> probes;

  /// Why the walk came up empty (first probe's verdict — for the flat
  /// L0-only scheme this is exactly the legacy cold reason).
  std::string miss_reason() const;
};

/// The multi-tier store: write-through saves, newest-valid-tier lookup,
/// rebuild of lost tiers, per-tier damage hooks.
class TieredCheckpointStore {
 public:
  /// Install the policy (which tiers exist, TTL). Call once at wiring time.
  void configure(const CheckpointPolicy& policy) { policy_ = policy; }
  const CheckpointPolicy& policy() const { return policy_; }

  /// Install the L1 partner map (component -> replica host). Without it the
  /// partner tier never populates. Typically choose_partners(tree).
  void set_partners(std::map<std::string, std::string> partner_of);
  /// Replica host for `component`; empty when unassigned.
  const std::string& partner_of(const std::string& component) const;

  /// Write-through save: the snapshot lands in every enabled tier (L1 only
  /// when `component` has a partner assigned).
  void save(const std::string& component,
            std::vector<std::pair<std::string, std::string>> payload,
            util::TimePoint now);

  /// Walk the enabled tiers newest-first; the first valid copy wins.
  /// Detectably-invalid copies (corrupt / version skew) are deleted as the
  /// walk passes them, and every probe is reported for logs and counters.
  TierLookup lookup(const std::string& component, util::TimePoint now);

  /// Re-replicate `component`'s newest valid copy into every enabled tier
  /// that lost its own (the post-recovery tier rebuild). Returns the number
  /// of tiers repopulated.
  std::size_t rebuild(const std::string& component, util::TimePoint now);

  /// Fault-suspicion shed: drop the L0 copy only. The partner and stable
  /// tiers did not feed the failed attempt and are kept — the retry walks
  /// them before going cold. Returns whether an L0 copy was present.
  bool suspect_discard(const std::string& component);

  /// Drop `component`'s copies from every tier (full discard).
  bool discard(const std::string& component);
  /// Drop one tier's copy of `component`.
  bool discard_tier(const std::string& component, CheckpointTier tier);
  /// Drop an entire tier (every component's copy) — tier loss injection.
  /// Returns the number of copies dropped.
  std::size_t kill_tier(CheckpointTier tier);
  /// An L1 replica lives in its host's memory: when `host` dies (kill or
  /// crash), every replica it held dies with it. Returns the number of
  /// replicas dropped.
  std::size_t on_host_down(const std::string& host);
  /// A *parked* (hard-failed) host never restarts: the replicas it held are
  /// dropped (idempotent with on_host_down) and every component it hosted is
  /// re-partnered — the sorted component ring is walked past parked hosts
  /// (and the component itself) to the next live host, and the orphaned
  /// replica is rebuilt there from the surviving tiers, so the component's
  /// *next* failure still warm-hits L1. Returns the number of components
  /// re-partnered.
  std::size_t on_host_parked(const std::string& host, util::TimePoint now);
  /// Hosts declared parked so far (never chosen as replica hosts again).
  const std::set<std::string>& parked_hosts() const { return parked_hosts_; }

  void clear();

  // --- Per-tier damage-injection hooks ------------------------------------
  bool corrupt(const std::string& component, CheckpointTier tier);
  bool poison(const std::string& component, CheckpointTier tier);
  bool stale_date(const std::string& component, CheckpointTier tier,
                  util::TimePoint saved_at);

  // --- Introspection -------------------------------------------------------
  const Checkpoint* find(const std::string& component,
                         CheckpointTier tier) const;
  bool has(const std::string& component, CheckpointTier tier) const;

  std::uint64_t saves() const { return saves_; }
  std::uint64_t tier_hits(CheckpointTier tier) const {
    return tier_hits_[static_cast<std::size_t>(tier)];
  }
  std::uint64_t rebuilds() const { return rebuilds_; }
  std::uint64_t suspect_discards() const { return suspect_discards_; }
  std::uint64_t host_loss_drops() const { return host_loss_drops_; }
  std::uint64_t parked_reassigns() const { return parked_reassigns_; }

 private:
  CheckpointStore& tier(CheckpointTier t) {
    return tiers_[static_cast<std::size_t>(t)];
  }
  const CheckpointStore& tier(CheckpointTier t) const {
    return tiers_[static_cast<std::size_t>(t)];
  }
  /// L1 is populated only for components with an assigned partner.
  bool l1_available_for(const std::string& component) const;

  CheckpointPolicy policy_;
  std::array<CheckpointStore, kCheckpointTierCount> tiers_;
  std::map<std::string, std::string> partner_of_;
  /// host -> components whose L1 replica it holds (inverse of partner_of_).
  std::map<std::string, std::vector<std::string>> hosted_by_;
  std::set<std::string> parked_hosts_;
  std::uint64_t saves_ = 0;
  std::array<std::uint64_t, kCheckpointTierCount> tier_hits_{};
  std::uint64_t rebuilds_ = 0;
  std::uint64_t suspect_discards_ = 0;
  std::uint64_t host_loss_drops_ = 0;
  std::uint64_t parked_reassigns_ = 0;
};

}  // namespace mercury::core

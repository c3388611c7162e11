// Checkpointed warm restarts (ISSUE 3): CheckpointStore validity semantics,
// and end-to-end trials showing warm restarts cut recovery time while every
// damaged checkpoint still ends in a successful (cold) recovery.
//
// Tiered storage (ISSUE 7): TieredCheckpointStore write-through / tier-walk
// / rebuild semantics, deterministic partner choice, and trials proving the
// partner replica keeps restarts warm when the local tier dies — including
// the rebuild path (a second same-cell failure warm-hits again).
#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/mercury_trees.h"
#include "core/restart_tree.h"
#include "sim/simulator.h"
#include "station/experiment.h"

namespace mercury::core {
namespace {

using util::Duration;
using util::TimePoint;

Checkpoint make_checkpoint(const std::string& component, int version,
                           TimePoint saved_at) {
  Checkpoint checkpoint;
  checkpoint.component = component;
  checkpoint.version = version;
  checkpoint.saved_at = saved_at;
  checkpoint.payload = {{"k", "v"}};
  checkpoint.checksum = checkpoint_checksum(checkpoint);
  return checkpoint;
}

TEST(CheckpointStore, SaveFindValidate) {
  CheckpointStore store;
  const TimePoint t0 = TimePoint::from_seconds(10.0);
  store.save("ses", {{"peer", "str"}, {"session", "3"}}, t0);

  const Checkpoint* checkpoint = store.find("ses");
  ASSERT_NE(checkpoint, nullptr);
  EXPECT_EQ(checkpoint->component, "ses");
  EXPECT_EQ(checkpoint->version, kCheckpointSchemaVersion);
  EXPECT_EQ(checkpoint->checksum, checkpoint_checksum(*checkpoint));
  EXPECT_FALSE(checkpoint->poisoned);
  EXPECT_EQ(store.validate("ses", TimePoint::from_seconds(11.0),
                           Duration::minutes(10.0)),
            CheckpointVerdict::kValid);
  EXPECT_EQ(store.saves(), 1u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(CheckpointStore, MissingComponentIsMissing) {
  CheckpointStore store;
  EXPECT_EQ(store.find("rtu"), nullptr);
  EXPECT_EQ(store.validate("rtu", TimePoint::from_seconds(0.0),
                           Duration::minutes(10.0)),
            CheckpointVerdict::kMissing);
  EXPECT_FALSE(store.discard("rtu"));
}

TEST(CheckpointStore, SnapshotOlderThanTtlIsStale) {
  CheckpointStore store;
  store.save("rtu", {{"hz", "437"}}, TimePoint::from_seconds(0.0));
  const Duration ttl = Duration::seconds(60.0);
  EXPECT_EQ(store.validate("rtu", TimePoint::from_seconds(59.0), ttl),
            CheckpointVerdict::kValid);
  EXPECT_EQ(store.validate("rtu", TimePoint::from_seconds(61.0), ttl),
            CheckpointVerdict::kStale);
  // stale_date backdates in place (the injector's lever).
  store.save("rtu", {{"hz", "437"}}, TimePoint::from_seconds(100.0));
  EXPECT_TRUE(store.stale_date("rtu", TimePoint::from_seconds(0.0)));
  EXPECT_EQ(store.validate("rtu", TimePoint::from_seconds(100.0), ttl),
            CheckpointVerdict::kStale);
}

TEST(CheckpointStore, CorruptionIsDetectedByChecksum) {
  CheckpointStore store;
  store.save("pbcom", {{"serial", "negotiated"}}, TimePoint::from_seconds(1.0));
  EXPECT_TRUE(store.corrupt("pbcom"));
  EXPECT_EQ(store.validate("pbcom", TimePoint::from_seconds(2.0),
                           Duration::minutes(10.0)),
            CheckpointVerdict::kCorrupt);
  EXPECT_FALSE(store.find("pbcom")->poisoned);
  EXPECT_FALSE(store.corrupt("no-such"));
}

TEST(CheckpointStore, PoisonPassesValidationButIsMarked) {
  // Undetectable corruption: payload flipped AND checksum recomputed. The
  // store validates it kValid — only the poisoned ground-truth flag (which
  // drives the injected warm-start crash) records the truth.
  CheckpointStore store;
  store.save("fedr", {{"pbcom_session", "cached"}}, TimePoint::from_seconds(1.0));
  EXPECT_TRUE(store.poison("fedr"));
  EXPECT_EQ(store.validate("fedr", TimePoint::from_seconds(2.0),
                           Duration::minutes(10.0)),
            CheckpointVerdict::kValid);
  EXPECT_TRUE(store.find("fedr")->poisoned);
}

TEST(CheckpointStore, WrongSchemaVersionNeverWarmStarts) {
  CheckpointStore store;
  store.put(make_checkpoint("ses", kCheckpointSchemaVersion + 1,
                            TimePoint::from_seconds(1.0)));
  EXPECT_EQ(store.validate("ses", TimePoint::from_seconds(2.0),
                           Duration::minutes(10.0)),
            CheckpointVerdict::kVersionMismatch);
  // Checksum is judged before version: a snapshot that is both corrupt and
  // mis-versioned reports kCorrupt.
  Checkpoint bad = make_checkpoint("str", kCheckpointSchemaVersion + 1,
                                   TimePoint::from_seconds(1.0));
  bad.checksum ^= 1;
  store.put(std::move(bad));
  EXPECT_EQ(store.validate("str", TimePoint::from_seconds(2.0),
                           Duration::minutes(10.0)),
            CheckpointVerdict::kCorrupt);
}

TEST(CheckpointStore, DiscardAndOverwrite) {
  CheckpointStore store;
  store.save("ses", {{"session", "1"}}, TimePoint::from_seconds(1.0));
  store.save("ses", {{"session", "2"}}, TimePoint::from_seconds(2.0));
  ASSERT_NE(store.find("ses"), nullptr);
  EXPECT_EQ(store.find("ses")->payload.front().second, "2");
  EXPECT_EQ(store.saves(), 2u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.discard("ses"));
  EXPECT_EQ(store.find("ses"), nullptr);
  EXPECT_EQ(store.discards(), 1u);
  store.clear();
  EXPECT_EQ(store.size(), 0u);
}

// --- Tiered storage (ISSUE 7) ------------------------------------------------

CheckpointPolicy tiered_policy(bool l1 = true, bool l2 = true) {
  CheckpointPolicy policy;
  policy.enabled = true;
  policy.l1_partner = l1;
  policy.l2_stable = l2;
  return policy;
}

TEST(TieredCheckpointStore, WriteThroughPopulatesEnabledTiers) {
  TieredCheckpointStore store;
  store.configure(tiered_policy());
  store.set_partners({{"ses", "str"}, {"str", "ses"}});
  const TimePoint t0 = TimePoint::from_seconds(5.0);
  store.save("ses", {{"session", "3"}}, t0);
  EXPECT_TRUE(store.has("ses", CheckpointTier::kL0Local));
  EXPECT_TRUE(store.has("ses", CheckpointTier::kL1Partner));
  EXPECT_TRUE(store.has("ses", CheckpointTier::kL2Stable));
  EXPECT_EQ(store.saves(), 1u);

  // A component without an assigned partner gets no replica, but the other
  // enabled tiers still fill.
  store.save("rtu", {{"hz", "437"}}, t0);
  EXPECT_TRUE(store.has("rtu", CheckpointTier::kL0Local));
  EXPECT_FALSE(store.has("rtu", CheckpointTier::kL1Partner));
  EXPECT_TRUE(store.has("rtu", CheckpointTier::kL2Stable));
}

TEST(TieredCheckpointStore, DisabledPolicySavesNothing) {
  TieredCheckpointStore store;  // default policy: disabled
  store.save("ses", {{"session", "3"}}, TimePoint::from_seconds(1.0));
  EXPECT_EQ(store.saves(), 0u);
  EXPECT_FALSE(store.has("ses", CheckpointTier::kL0Local));
  const TierLookup lookup = store.lookup("ses", TimePoint::from_seconds(2.0));
  EXPECT_FALSE(lookup.hit);
  EXPECT_TRUE(lookup.probes.empty());
}

TEST(TieredCheckpointStore, LookupWalksNewestFirstAndServesFirstValidTier) {
  TieredCheckpointStore store;
  store.configure(tiered_policy());
  store.set_partners({{"pbcom", "fedr"}});
  const TimePoint t0 = TimePoint::from_seconds(1.0);
  const TimePoint now = TimePoint::from_seconds(2.0);
  store.save("pbcom", {{"serial", "negotiated"}}, t0);

  TierLookup lookup = store.lookup("pbcom", now);
  ASSERT_TRUE(lookup.hit);
  EXPECT_EQ(lookup.tier, CheckpointTier::kL0Local);

  ASSERT_TRUE(store.discard_tier("pbcom", CheckpointTier::kL0Local));
  lookup = store.lookup("pbcom", now);
  ASSERT_TRUE(lookup.hit);
  EXPECT_EQ(lookup.tier, CheckpointTier::kL1Partner);
  EXPECT_EQ(lookup.probes.front().verdict, CheckpointVerdict::kMissing);

  ASSERT_TRUE(store.discard_tier("pbcom", CheckpointTier::kL1Partner));
  lookup = store.lookup("pbcom", now);
  ASSERT_TRUE(lookup.hit);
  EXPECT_EQ(lookup.tier, CheckpointTier::kL2Stable);

  EXPECT_EQ(store.kill_tier(CheckpointTier::kL2Stable), 1u);
  lookup = store.lookup("pbcom", now);
  EXPECT_FALSE(lookup.hit);
  EXPECT_EQ(lookup.miss_reason(), "missing");
  EXPECT_EQ(store.tier_hits(CheckpointTier::kL0Local), 1u);
  EXPECT_EQ(store.tier_hits(CheckpointTier::kL1Partner), 1u);
  EXPECT_EQ(store.tier_hits(CheckpointTier::kL2Stable), 1u);
}

TEST(TieredCheckpointStore, CorruptTierCopyIsDeletedAndWalkContinues) {
  TieredCheckpointStore store;
  store.configure(tiered_policy());
  store.set_partners({{"ses", "str"}});
  const TimePoint now = TimePoint::from_seconds(2.0);
  store.save("ses", {{"session", "3"}}, TimePoint::from_seconds(1.0));
  ASSERT_TRUE(store.corrupt("ses", CheckpointTier::kL0Local));

  const TierLookup lookup = store.lookup("ses", now);
  ASSERT_TRUE(lookup.hit);
  EXPECT_EQ(lookup.tier, CheckpointTier::kL1Partner);
  ASSERT_GE(lookup.probes.size(), 2u);
  EXPECT_EQ(lookup.probes.front().verdict, CheckpointVerdict::kCorrupt);
  EXPECT_TRUE(lookup.probes.front().discarded);
  // The corrupt local copy is gone for good; the replica still serves.
  EXPECT_FALSE(store.has("ses", CheckpointTier::kL0Local));
}

TEST(TieredCheckpointStore, StaleTierCopyIsKeptNotDeleted) {
  TieredCheckpointStore store;
  store.configure(tiered_policy(false, false));  // L0 only
  store.save("rtu", {{"hz", "437"}}, TimePoint::from_seconds(0.0));
  ASSERT_TRUE(store.stale_date("rtu", CheckpointTier::kL0Local,
                               TimePoint::from_seconds(0.0) -
                                   Duration::minutes(20.0)));
  const TierLookup lookup = store.lookup("rtu", TimePoint::from_seconds(1.0));
  EXPECT_FALSE(lookup.hit);
  EXPECT_EQ(lookup.miss_reason(), "stale");
  // Stale copies stay: staleness depends on `now`, and a rebuild from a
  // fresher tier overwrites them.
  EXPECT_TRUE(store.has("rtu", CheckpointTier::kL0Local));
}

TEST(TieredCheckpointStore, SuspectDiscardShedsOnlyTheLocalTier) {
  TieredCheckpointStore store;
  store.configure(tiered_policy());
  store.set_partners({{"pbcom", "fedr"}});
  store.save("pbcom", {{"serial", "negotiated"}}, TimePoint::from_seconds(1.0));

  EXPECT_TRUE(store.suspect_discard("pbcom"));
  EXPECT_FALSE(store.has("pbcom", CheckpointTier::kL0Local));
  EXPECT_TRUE(store.has("pbcom", CheckpointTier::kL1Partner));
  EXPECT_TRUE(store.has("pbcom", CheckpointTier::kL2Stable));
  EXPECT_EQ(store.suspect_discards(), 1u);
  // The retry's walk still warm-hits on the replica.
  EXPECT_TRUE(store.lookup("pbcom", TimePoint::from_seconds(2.0)).hit);
  // A second shed finds nothing local.
  EXPECT_FALSE(store.suspect_discard("pbcom"));
}

TEST(TieredCheckpointStore, RebuildRepopulatesLostTiersKeepingSavedAt) {
  TieredCheckpointStore store;
  store.configure(tiered_policy());
  store.set_partners({{"ses", "str"}});
  const TimePoint t0 = TimePoint::from_seconds(3.0);
  const TimePoint now = TimePoint::from_seconds(4.0);
  store.save("ses", {{"session", "3"}}, t0);
  ASSERT_TRUE(store.discard_tier("ses", CheckpointTier::kL0Local));
  ASSERT_TRUE(store.discard_tier("ses", CheckpointTier::kL2Stable));

  EXPECT_EQ(store.rebuild("ses", now), 2u);
  EXPECT_TRUE(store.has("ses", CheckpointTier::kL0Local));
  EXPECT_TRUE(store.has("ses", CheckpointTier::kL2Stable));
  // Replication does not refresh state: the copy keeps the source's age.
  EXPECT_EQ(store.find("ses", CheckpointTier::kL0Local)->saved_at, t0);
  EXPECT_EQ(store.rebuilds(), 2u);
  // Nothing left to do on a fully-populated component.
  EXPECT_EQ(store.rebuild("ses", now), 0u);
  // No valid copy anywhere -> nothing to rebuild from.
  store.discard("ses");
  EXPECT_EQ(store.rebuild("ses", now), 0u);
}

TEST(TieredCheckpointStore, HostDownDropsExactlyTheReplicasItHeld) {
  TieredCheckpointStore store;
  store.configure(tiered_policy());
  store.set_partners({{"ses", "str"}, {"str", "ses"}, {"rtu", "ses"}});
  const TimePoint t0 = TimePoint::from_seconds(1.0);
  store.save("ses", {{"a", "1"}}, t0);
  store.save("str", {{"b", "2"}}, t0);
  store.save("rtu", {{"c", "3"}}, t0);

  // ses hosts the replicas of str and rtu; its own replica lives in str.
  EXPECT_EQ(store.on_host_down("ses"), 2u);
  EXPECT_FALSE(store.has("str", CheckpointTier::kL1Partner));
  EXPECT_FALSE(store.has("rtu", CheckpointTier::kL1Partner));
  EXPECT_TRUE(store.has("ses", CheckpointTier::kL1Partner));
  EXPECT_EQ(store.host_loss_drops(), 2u);
  // Unknown host: nothing hosted, nothing dropped.
  EXPECT_EQ(store.on_host_down("mbus"), 0u);
}

// ISSUE 8 satellite regression: a parked (hard-failed) component never comes
// back, so the L1 replicas it hosted stayed orphaned forever — on_host_down
// drops them but the ring was never rewired, and every later failure of the
// orphaned components fell through to L2/cold. on_host_parked must walk the
// partner ring past parked hosts, re-partner the orphans, and rebuild their
// replicas at the new hosts from surviving tiers.
TEST(TieredCheckpointStore, ParkedHostReassignsAndRebuildsOrphanedReplicas) {
  TieredCheckpointStore store;
  store.configure(tiered_policy());
  store.set_partners({{"ses", "str"}, {"str", "ses"}, {"rtu", "ses"}});
  const TimePoint t0 = TimePoint::from_seconds(1.0);
  store.save("ses", {{"a", "1"}}, t0);
  store.save("str", {{"b", "2"}}, t0);
  store.save("rtu", {{"c", "3"}}, t0);

  // ses parks: str and rtu (both hosted by ses) are re-partnered along the
  // sorted ring {rtu, ses, str}, skipping the parked host and themselves —
  // str -> rtu, rtu -> str — and their replicas are rebuilt there.
  const TimePoint now = TimePoint::from_seconds(2.0);
  EXPECT_EQ(store.on_host_parked("ses", now), 2u);
  EXPECT_TRUE(store.parked_hosts().contains("ses"));
  EXPECT_EQ(store.partner_of("str"), "rtu");
  EXPECT_EQ(store.partner_of("rtu"), "str");
  EXPECT_TRUE(store.has("str", CheckpointTier::kL1Partner));
  EXPECT_TRUE(store.has("rtu", CheckpointTier::kL1Partner));
  // The rebuilt copy keeps the source's age: replication, not a new save.
  EXPECT_EQ(store.find("str", CheckpointTier::kL1Partner)->saved_at, t0);
  EXPECT_EQ(store.parked_reassigns(), 2u);
  // Idempotent: parking an already-parked host reassigns nothing more.
  EXPECT_EQ(store.on_host_parked("ses", now), 0u);
  EXPECT_EQ(store.parked_reassigns(), 2u);

  // Park str too: rtu's new partner is gone again. The only live candidate
  // left on the ring is rtu itself, which the walk must skip — no reassign,
  // and rtu's L1 stays lost rather than self-hosted.
  EXPECT_EQ(store.on_host_parked("str", now), 0u);
  EXPECT_EQ(store.partner_of("rtu"), "str");
  EXPECT_FALSE(store.has("rtu", CheckpointTier::kL1Partner));
}

TEST(TieredCheckpointStore, PlainHostDownNeverReassignsPartners) {
  // The transient-crash path is unchanged: the host is expected back, so its
  // replicas are dropped but the ring keeps pointing at it for the rebuild
  // that follows recovery.
  TieredCheckpointStore store;
  store.configure(tiered_policy());
  store.set_partners({{"ses", "str"}, {"str", "ses"}, {"rtu", "ses"}});
  const TimePoint t0 = TimePoint::from_seconds(1.0);
  store.save("str", {{"b", "2"}}, t0);
  store.save("rtu", {{"c", "3"}}, t0);

  EXPECT_EQ(store.on_host_down("ses"), 2u);
  EXPECT_EQ(store.partner_of("str"), "ses");
  EXPECT_EQ(store.partner_of("rtu"), "ses");
  EXPECT_TRUE(store.parked_hosts().empty());
  EXPECT_EQ(store.parked_reassigns(), 0u);
}

TEST(TieredCheckpointStore, PerTierDamageHooksTargetOneTierOnly) {
  TieredCheckpointStore store;
  store.configure(tiered_policy());
  store.set_partners({{"fedr", "pbcom"}});
  store.save("fedr", {{"pbcom_session", "cached"}}, TimePoint::from_seconds(1.0));

  ASSERT_TRUE(store.poison("fedr", CheckpointTier::kL1Partner));
  EXPECT_FALSE(store.find("fedr", CheckpointTier::kL0Local)->poisoned);
  EXPECT_TRUE(store.find("fedr", CheckpointTier::kL1Partner)->poisoned);
  EXPECT_FALSE(store.find("fedr", CheckpointTier::kL2Stable)->poisoned);

  ASSERT_TRUE(store.corrupt("fedr", CheckpointTier::kL2Stable));
  // L0 untouched: the walk still serves it.
  const TierLookup lookup = store.lookup("fedr", TimePoint::from_seconds(2.0));
  ASSERT_TRUE(lookup.hit);
  EXPECT_EQ(lookup.tier, CheckpointTier::kL0Local);
}

TEST(CheckpointPolicy, ReloadFactorsKeepL0AndColdAtUnity) {
  CheckpointPolicy policy = tiered_policy();
  EXPECT_EQ(policy.reload_factor(CheckpointTier::kL0Local), 1.0);
  EXPECT_GT(policy.reload_factor(CheckpointTier::kL1Partner), 1.0);
  EXPECT_GT(policy.reload_factor(CheckpointTier::kL2Stable),
            policy.reload_factor(CheckpointTier::kL1Partner));
  EXPECT_TRUE(policy.tier_enabled(CheckpointTier::kL1Partner));
  policy.enabled = false;
  EXPECT_FALSE(policy.tier_enabled(CheckpointTier::kL0Local));
  EXPECT_FALSE(policy.tier_enabled(CheckpointTier::kL1Partner));
}

TEST(ChoosePartners, DeterministicCrossCellRing) {
  const RestartTree tree = make_mercury_tree(MercuryTree::kTreeIV);
  const auto partners = choose_partners(tree);
  const auto components = tree.all_components();
  ASSERT_EQ(partners.size(), components.size());
  for (const auto& component : components) {
    const auto it = partners.find(component);
    ASSERT_NE(it, partners.end());
    EXPECT_NE(it->second, component);
    // The partner must sit in a different cell whenever any candidate does
    // (otherwise the victim's own minimal restart would kill the replica).
    const auto own_cell = tree.find_component(component);
    bool any_other_cell = false;
    for (const auto& candidate : components) {
      if (candidate != component && tree.find_component(candidate) != own_cell) {
        any_other_cell = true;
        break;
      }
    }
    if (any_other_cell) {
      EXPECT_NE(tree.find_component(it->second), own_cell)
          << component << " -> " << it->second;
    }
  }
  // Pure topology: a second call agrees exactly.
  EXPECT_EQ(partners, choose_partners(tree));
}

}  // namespace
}  // namespace mercury::core

namespace mercury::station {
namespace {

namespace names = core::component_names;
using core::MercuryTree;
using util::Duration;

TrialSpec warm_spec(const std::string& victim) {
  TrialSpec spec;
  spec.tree = MercuryTree::kTreeIV;
  spec.oracle = OracleKind::kHeuristic;
  spec.fail_component = victim;
  spec.seed = 9001;
  spec.enable_checkpoints = true;
  return spec;
}

TEST(WarmRestartTrial, SesWarmRestartBeatsColdAndSkipsPeerWedge) {
  // Tree II keeps ses in its own cell, so a cold ses restart resynchronizes
  // against str and wedges it — the induced second restart that drove the
  // paper's group consolidation. A warm ses resumes its saved session
  // instead, so the peer never wedges.
  TrialSpec spec = warm_spec(names::kSes);
  spec.tree = MercuryTree::kTreeII;
  TrialSpec cold = spec;
  cold.enable_checkpoints = false;

  const TrialResult warm_result = run_trial(spec);
  const TrialResult cold_result = run_trial(cold);

  ASSERT_FALSE(warm_result.timed_out);
  ASSERT_FALSE(cold_result.timed_out);
  EXPECT_GE(warm_result.warm_restarts, 1);
  EXPECT_EQ(cold_result.warm_restarts, 0);
  // Warm skips the resynchronization: the restarted ses resumes its session
  // against the still-synced str instead of wedging it into a second
  // failure, so recovery collapses and the induced restart disappears.
  EXPECT_LT(warm_result.recovery.to_seconds(),
            cold_result.recovery.to_seconds());
  EXPECT_LT(warm_result.restarts, cold_result.restarts);
}

TEST(WarmRestartTrial, PbcomWarmRestartSkipsSerialNegotiation) {
  // pbcom's cold start is the paper's worst offender ("takes over 21
  // seconds" of serial negotiation); its checkpoint preserves the
  // negotiated parameters, so the warm figure must be far smaller.
  TrialSpec spec = warm_spec(names::kPbcom);
  TrialSpec cold = spec;
  cold.enable_checkpoints = false;

  const TrialResult warm_result = run_trial(spec);
  const TrialResult cold_result = run_trial(cold);

  ASSERT_FALSE(warm_result.timed_out);
  ASSERT_FALSE(cold_result.timed_out);
  EXPECT_GE(warm_result.warm_restarts, 1);
  EXPECT_LT(warm_result.recovery.to_seconds(),
            cold_result.recovery.to_seconds());
  // The saving is the negotiation itself, not loop noise: expect several
  // seconds back, not milliseconds.
  EXPECT_GT(cold_result.recovery.to_seconds() -
                warm_result.recovery.to_seconds(),
            5.0);
}

TEST(WarmRestartTrial, CorruptCheckpointFallsBackCold) {
  TrialSpec spec = warm_spec(names::kRtu);
  spec.checkpoint_damage = TrialSpec::CheckpointDamage::kCorrupt;
  const TrialResult result = run_trial(spec);
  ASSERT_FALSE(result.timed_out);
  EXPECT_FALSE(result.hard_failure);
  EXPECT_EQ(result.warm_restarts, 0);
  EXPECT_GE(result.cold_fallbacks, 1);
  EXPECT_EQ(result.checkpoint_crashes, 0);
  EXPECT_GT(result.recovery.to_seconds(), 0.0);
}

TEST(WarmRestartTrial, StaleCheckpointFallsBackCold) {
  TrialSpec spec = warm_spec(names::kRtu);
  spec.checkpoint_ttl = Duration::seconds(30.0);
  spec.checkpoint_damage = TrialSpec::CheckpointDamage::kStale;
  const TrialResult result = run_trial(spec);
  ASSERT_FALSE(result.timed_out);
  EXPECT_FALSE(result.hard_failure);
  EXPECT_EQ(result.warm_restarts, 0);
  EXPECT_GE(result.cold_fallbacks, 1);
  EXPECT_GT(result.recovery.to_seconds(), 0.0);
}

TEST(WarmRestartTrial, PoisonedCheckpointCrashesWarmStartThenRecoversCold) {
  // Undetectable corruption: validation passes, the warm attempt crashes
  // mid-startup. That is a restart-path fault by construction, so only the
  // restart deadline notices the dead startup; the checkpoint is shed as
  // fault-suspected, and the retry runs cold.
  TrialSpec spec = warm_spec(names::kRtu);
  spec.checkpoint_damage = TrialSpec::CheckpointDamage::kPoison;
  const TrialResult result = run_trial(spec);
  ASSERT_FALSE(result.timed_out);
  EXPECT_FALSE(result.hard_failure);
  EXPECT_GE(result.warm_restarts, 1);       // the doomed warm attempt
  EXPECT_GE(result.checkpoint_crashes, 1);  // ...died on the poisoned state
  EXPECT_GE(result.restart_timeouts, 1);    // ...and the deadline caught it
  EXPECT_GE(result.cold_fallbacks, 1);      // the retry ran cold
  EXPECT_GT(result.recovery.to_seconds(), 0.0);
}

TEST(WarmRestartTrial, SameSeedTrialsAreDeterministic) {
  for (const auto damage : {TrialSpec::CheckpointDamage::kNone,
                            TrialSpec::CheckpointDamage::kCorrupt,
                            TrialSpec::CheckpointDamage::kPoison}) {
    TrialSpec spec = warm_spec(names::kSes);
    spec.checkpoint_damage = damage;
    const TrialResult a = run_trial(spec);
    const TrialResult b = run_trial(spec);
    EXPECT_EQ(a.recovery.to_seconds(), b.recovery.to_seconds());
    EXPECT_EQ(a.restarts, b.restarts);
    EXPECT_EQ(a.warm_restarts, b.warm_restarts);
    EXPECT_EQ(a.cold_fallbacks, b.cold_fallbacks);
    EXPECT_EQ(a.checkpoint_crashes, b.checkpoint_crashes);
  }
}

TEST(WarmRestartTrial, CheckpointsOffDrawsNoExtraRandomness) {
  // The policy gate: with checkpoints off, a trial must reproduce the
  // legacy numbers bit-for-bit (no extra rng draws, saves, or trace args).
  TrialSpec spec;
  spec.tree = MercuryTree::kTreeIV;
  spec.fail_component = names::kSes;
  spec.seed = 777;
  const TrialResult legacy = run_trial(spec);
  spec.enable_checkpoints = false;  // explicit, same as default
  spec.checkpoint_ttl = Duration::minutes(3.0);
  const TrialResult off = run_trial(spec);
  EXPECT_EQ(legacy.recovery.to_seconds(), off.recovery.to_seconds());
  EXPECT_EQ(legacy.restarts, off.restarts);
  EXPECT_EQ(off.warm_restarts, 0);
  EXPECT_EQ(off.cold_fallbacks, 0);
}

// --- Tiered trials (ISSUE 7) -------------------------------------------------

TrialSpec tiered_spec(const std::string& victim) {
  TrialSpec spec = warm_spec(victim);
  spec.checkpoint_l1 = true;
  spec.checkpoint_l2 = true;
  return spec;
}

TEST(TieredRestartTrial, LocalTierLossStillWarmsViaPartnerReplica) {
  // The redundancy cliff ISSUE 7 removes: the fault that killed pbcom also
  // killed its local snapshot. L0-only falls all the way to cold; with the
  // partner tier the walk serves the replica and recovery stays warm.
  TrialSpec replicated = tiered_spec(names::kPbcom);
  replicated.checkpoint_l2 = false;
  replicated.checkpoint_damage = TrialSpec::CheckpointDamage::kKill;
  TrialSpec l0_only = replicated;
  l0_only.checkpoint_l1 = false;

  const TrialResult warm_result = run_trial(replicated);
  const TrialResult cold_result = run_trial(l0_only);

  ASSERT_FALSE(warm_result.timed_out);
  ASSERT_FALSE(cold_result.timed_out);
  EXPECT_GE(warm_result.warm_restarts, 1);
  EXPECT_GE(warm_result.warm_hits_l1, 1);
  EXPECT_EQ(cold_result.warm_restarts, 0);
  EXPECT_GE(cold_result.cold_fallbacks, 1);
  EXPECT_LT(warm_result.recovery.to_seconds(),
            cold_result.recovery.to_seconds());
}

TEST(TieredRestartTrial, CorrelatedPartnerLossFallsThroughToStable) {
  // Correlated failure: the fault fells the victim AND its replica host.
  // With only L0+L1 the walk misses (the replica died with its host); with
  // L2 the stable copy still warms the restart.
  TrialSpec with_stable = tiered_spec(names::kPbcom);
  with_stable.checkpoint_damage = TrialSpec::CheckpointDamage::kKill;
  with_stable.fail_partner_too = true;
  TrialSpec no_stable = with_stable;
  no_stable.checkpoint_l2 = false;

  const TrialResult stable_result = run_trial(with_stable);
  const TrialResult lost_result = run_trial(no_stable);

  ASSERT_FALSE(stable_result.timed_out);
  ASSERT_FALSE(lost_result.timed_out);
  EXPECT_GE(stable_result.warm_hits_l2, 1);
  // Without stable storage the victim has no tier left: its restart is cold
  // (the partner's own restart may still warm-hit from its local copy).
  EXPECT_EQ(lost_result.warm_hits_l1, 0);
  EXPECT_EQ(lost_result.warm_hits_l2, 0);
  EXPECT_GE(lost_result.cold_fallbacks, 1);
}

TEST(TieredRestartTrial, RebuildRepopulatesLostTierAndSecondFailureWarmsAgain) {
  // Satellite: after a tier loss + warm recovery the lost tier must be
  // repopulated, and a second failure of the same cell must still warm-hit.
  // Driven on a manual rig so both failures land in one system lifetime.
  TrialSpec spec = tiered_spec(names::kPbcom);
  spec.checkpoint_l2 = false;
  sim::Simulator sim(spec.seed);
  MercuryRig rig(sim, spec);
  rig.start();
  sim.run_for(spec.warmup);

  const auto recover = [&] {
    const util::TimePoint deadline = sim.now() + spec.timeout;
    while (sim.now() < deadline) {
      if (rig.station().all_functional() && !rig.rec().restart_in_progress()) {
        return true;
      }
      if (!sim.step()) return false;
    }
    return false;
  };

  // First failure takes pbcom and its local snapshot with it.
  rig.station().checkpoints().discard_tier("pbcom",
                                           core::CheckpointTier::kL0Local);
  rig.station().inject_crash(names::kPbcom);
  ASSERT_TRUE(recover());
  const auto& tiers = rig.station().checkpoints();
  EXPECT_EQ(tiers.tier_hits(core::CheckpointTier::kL1Partner), 1u);
  // The lost local tier is back (rebuilt from the serving replica, then
  // refreshed by the component's own post-start save).
  EXPECT_TRUE(tiers.has("pbcom", core::CheckpointTier::kL0Local));
  EXPECT_GE(tiers.rebuilds(), 1u);

  // Second failure of the same cell: the walk warm-hits locally again.
  sim.run_for(util::Duration::seconds(5.0));
  rig.station().inject_crash(names::kPbcom);
  ASSERT_TRUE(recover());
  EXPECT_EQ(tiers.tier_hits(core::CheckpointTier::kL0Local), 1u);
  EXPECT_EQ(rig.station().process_manager().warm_restarts(), 2u);
  EXPECT_EQ(rig.station().process_manager().checkpoint_crashes(), 0u);
}

TEST(TieredRestartTrial, SuspectShedStillWarmsFromReplicaOnRetry) {
  // ISSUE 7's tier-aware shed: a poisoned local snapshot crashes the warm
  // attempt; the deadline sheds L0 as fault-suspected — but the partner
  // replica (clean: only L0 was poisoned) still warms the retry instead of
  // the legacy forced-cold rebuild. pbcom's escalation group ({fedr,pbcom})
  // does not include its replica host (rtu), so the replica survives the
  // escalated kill.
  TrialSpec spec = tiered_spec(names::kPbcom);
  spec.checkpoint_l2 = false;
  spec.checkpoint_damage = TrialSpec::CheckpointDamage::kPoison;
  const TrialResult result = run_trial(spec);
  ASSERT_FALSE(result.timed_out);
  EXPECT_FALSE(result.hard_failure);
  EXPECT_GE(result.checkpoint_crashes, 1);  // the doomed warm attempt
  EXPECT_GE(result.restart_timeouts, 1);    // ...caught by the deadline
  EXPECT_GE(result.warm_hits_l1, 1);        // ...and the retry warmed via L1
  EXPECT_GE(result.warm_restarts, 2);       // doomed + replica-served
}

TEST(TieredRestartTrial, SameSeedTieredTrialsAreDeterministic) {
  for (const bool partner_down : {false, true}) {
    TrialSpec spec = tiered_spec(names::kPbcom);
    spec.checkpoint_damage = TrialSpec::CheckpointDamage::kKill;
    spec.fail_partner_too = partner_down;
    const TrialResult a = run_trial(spec);
    const TrialResult b = run_trial(spec);
    EXPECT_EQ(a.recovery.to_seconds(), b.recovery.to_seconds());
    EXPECT_EQ(a.restarts, b.restarts);
    EXPECT_EQ(a.warm_hits_l0, b.warm_hits_l0);
    EXPECT_EQ(a.warm_hits_l1, b.warm_hits_l1);
    EXPECT_EQ(a.warm_hits_l2, b.warm_hits_l2);
    EXPECT_EQ(a.tier_rebuilds, b.tier_rebuilds);
  }
}

TEST(TieredRestartTrial, SingleTierRunsMatchLegacyCheckpointNumbers) {
  // The tiers are strictly additive: an L0-only tiered run must reproduce
  // ISSUE 3's warm numbers (same draws, same timing — reload factor 1.0).
  TrialSpec l0_only = warm_spec(names::kPbcom);
  const TrialResult a = run_trial(l0_only);
  EXPECT_GE(a.warm_restarts, 1);
  EXPECT_EQ(a.warm_hits_l0, a.warm_restarts);
  EXPECT_EQ(a.warm_hits_l1, 0);
  EXPECT_EQ(a.warm_hits_l2, 0);
}

}  // namespace
}  // namespace mercury::station

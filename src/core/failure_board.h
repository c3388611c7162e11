// FailureBoard: the ground truth of which failures are active.
//
// Components consult the board to decide whether they answer pings (a
// manifesting component is fail-silent); the process manager reports restart
// completions so the board can apply the cure rule: a failure clears once
// every member of its cure set has completed a restart after the failure's
// onset. A partial cure (e.g. restarting only pbcom for a {fedr,pbcom}
// failure) leaves the failure active, so FD re-detects it and the recoverer
// escalates — exactly the §4.4 faulty-oracle dynamics.
//
// The perfect oracle (an idealization the paper assumes in A_oracle) reads
// cure sets from the board; realistic oracles never do.
//
// Storage: a run without a repair loop keeps every failure it ever injected
// (~10^5 in the two-year Table-1 run), so a never-cured failure costs one
// 16-byte Pending entry (id, onset) and nothing else. Equal specs are
// interned once as map keys; each key's value is that spec's active failures
// in id order. Instead of a restarted mask per failure, the board keeps one
// watermark per component: the next id at that component's last restart.
// Ids grow with time, so within one spec the cured failures are always a
// prefix of its queue, and ActiveFailure values (with their restarted mask)
// are built from the watermarks only when a caller asks for them.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/failure.h"
#include "util/time.h"

namespace mercury::core {

class FailureBoard {
 public:
  using CureListener = std::function<void(const ActiveFailure&, util::TimePoint)>;
  using InjectListener = std::function<void(const ActiveFailure&)>;

  /// Activate a failure; returns its id. Repeated cure-set members are
  /// dropped (first-seen order kept); at most 32 distinct members.
  FailureId inject(FailureSpec spec, util::TimePoint now);

  /// Record that `component` completed a restart; cures any failure whose
  /// cure set is now fully restarted. Fires cure listeners.
  void on_restart_complete(const std::string& component, util::TimePoint now);

  /// Record that `component` completed its soft recovery procedure; cures
  /// only failures marked soft_curable that manifest at the component.
  void on_soft_recovery_complete(const std::string& component,
                                 util::TimePoint now);

  /// True if some active failure manifests at `component` (it must appear
  /// fail-silent). O(#distinct specs).
  bool manifests_at(const std::string& component) const {
    return any_manifest(
        [&](const std::string& manifest) { return manifest == component; });
  }

  /// True if some active failure's manifest component satisfies `pred`.
  /// O(#distinct specs): builds no ActiveFailure.
  template <typename Pred>
  bool any_manifest(Pred pred) const {
    if (active_count_ == 0) return false;  // every ping answered while healthy
    for (const auto& [spec, queue] : pending_) {
      if (!queue.empty() && pred(spec.manifest)) return true;
    }
    return false;
  }

  /// Active failures manifesting at `component` (usually zero or one), in id
  /// order.
  std::vector<ActiveFailure> active_at(const std::string& component) const;

  /// Every active failure in id order, built on demand: O(active). For tests
  /// and diagnostics; hot paths use manifests_at / any_manifest.
  std::vector<ActiveFailure> active() const;
  bool any_active() const { return active_count_ > 0; }
  std::size_t active_count() const { return active_count_; }

  /// Heap bytes the board's failure storage holds (interned specs, their
  /// queues counted as libstdc++'s 512-byte deque blocks, the watermarks).
  std::size_t memory_bytes() const;

  /// Forcibly clear a failure (used by tests); returns false if unknown.
  /// Does NOT fire cure listeners: the failure was removed, not cured.
  bool clear(FailureId id);

  void add_cure_listener(CureListener listener);
  void add_inject_listener(InjectListener listener);

  std::uint64_t total_injected() const { return next_id_ - 1; }
  std::uint64_t total_cured() const { return total_cured_; }

  // --- Restart-time faults ------------------------------------------------
  // The restart path is itself a fault domain (ISSUE 2): the board holds the
  // ground-truth spec of how each component's restarts misbehave, and the
  // process manager consults it at every startup attempt. An all-zero spec
  // (the default) means restarts always succeed.

  /// Install (or, with an inactive spec, remove) `component`'s restart-time
  /// fault behavior.
  void set_restart_faults(const std::string& component, RestartFaultSpec spec);

  /// The component's restart-fault spec; all-zero default if none installed.
  const RestartFaultSpec& restart_faults(const std::string& component) const;

  /// Bookkeeping hooks for the process manager: a restart attempt of
  /// `component` hung / crashed during startup. Emit the trace events that
  /// let chaos campaigns audit the injected restart faults.
  void note_restart_hang(const std::string& component, util::TimePoint now);
  void note_restart_crash(const std::string& component, util::TimePoint now);

 private:
  /// One active failure of a known spec.
  struct Pending {
    FailureId id;
    util::TimePoint onset;
  };
  /// A never-cured failure (the Table-1 run keeps ~10^5 of them) costs this
  /// much and nothing else.
  static_assert(sizeof(Pending) == 16, "Pending must stay compact");
  using SpecQueues = std::map<FailureSpec, std::deque<Pending>>;

  /// `restarted_below_[component]`, or 0 if it never restarted.
  FailureId watermark(const std::string& component) const;
  ActiveFailure make_active(const FailureSpec& spec, const Pending& pending) const;
  /// Sort `cured` by id, count it, and fire trace events and cure listeners.
  void finish_cures(std::vector<ActiveFailure>& cured, util::TimePoint now);

  /// Every distinct spec injected so far, mapped to its active failures in
  /// id order. Map nodes never move and are never erased, so the spec
  /// pointers handed out in ActiveFailure stay valid for the board's
  /// lifetime.
  SpecQueues pending_;
  /// next_id_ as it stood when the component's last restart completed: a
  /// failure with a smaller id has seen a restart of the component since its
  /// onset.
  std::map<std::string, FailureId, std::less<>> restarted_below_;
  std::size_t active_count_ = 0;
  std::vector<CureListener> cure_listeners_;
  std::vector<InjectListener> inject_listeners_;
  std::map<std::string, RestartFaultSpec> restart_faults_;
  FailureId next_id_ = 1;
  std::uint64_t total_cured_ = 0;
};

}  // namespace mercury::core

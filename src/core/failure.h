// Failure model: what a failure is, where it manifests, what cures it.
//
// The paper reasons about failures via f_ci — "the probability that a
// manifested failure in [a group] is minimally c_i-curable" (§4.1). We make
// that explicit: every failure has a *manifest* component (the one that
// stops answering liveness pings) and a *cure set* (the minimal set of
// components whose restart, after the failure's onset, cures it). Examples
// from Mercury:
//
//   crash of ses            -> manifest ses,   cure {ses}
//   fedr/pbcom joint bug    -> manifest pbcom, cure {fedr, pbcom}   (§4.4)
//   str wedged by ses resync-> manifest str,   cure {str}           (§4.3,
//                              induced by the curing action itself)
//
// A_cure (§4): every failure here is restart-curable by construction.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "util/time.h"

namespace mercury::core {

using FailureId = std::uint64_t;

struct FailureSpec {
  /// Component that appears fail-silent (stops answering pings).
  std::string manifest;
  /// Minimal set of components whose post-onset restart cures the failure.
  /// Always contains at least `manifest`.
  std::vector<std::string> cure_set;
  /// Curable by the component's *soft* recovery procedure too (§7's
  /// recursive recovery: "each component is recovered using a custom
  /// procedure; restart is just one example"). E.g. a stale bus attachment
  /// needs only a reconnect. A restart still cures it — restart is the
  /// stronger rung of the ladder.
  bool soft_curable = false;
  /// Free-form tag for logs/telemetry ("crash", "joint", "induced-resync").
  std::string kind = "crash";

  /// By value, field by field (the board interns equal specs once).
  friend auto operator<=>(const FailureSpec&, const FailureSpec&) = default;
};

FailureSpec make_crash(std::string component);
FailureSpec make_joint(std::string manifest, std::vector<std::string> cure_set);
/// A soft-curable transient: the component's process is healthy but its
/// session/attachment state is stale (cure: soft recovery or restart).
FailureSpec make_stale_attachment(std::string component);

struct ActiveFailure {
  FailureId id = 0;
  util::TimePoint onset;
  /// The failure's spec, interned in its FailureBoard's spec pool: shared by
  /// every failure injected with an equal spec, valid while the board lives.
  const FailureSpec* spec = nullptr;
  /// Bit i is set once spec->cure_set[i] has completed a restart since onset.
  std::uint32_t restarted = 0;

  bool cured() const {
    return restarted == (std::uint64_t{1} << spec->cure_set.size()) - 1;
  }
};

/// A never-cured failure (the Table-1 run keeps ~10^5 of them) costs one
/// small record; the spec it points to is shared.
static_assert(sizeof(ActiveFailure) <= 32, "ActiveFailure must stay compact");

/// Restart-time fault model: the cure itself is a fault domain. A restart
/// attempt of a component can hang (startup never completes), crash during
/// startup (the attempt ends with the component still down), or flake (a
/// per-attempt crash probability). Deterministic first-k variants let tests
/// and the chaos campaign script exact crash-loop shapes. Probabilities and
/// counters are *per restart attempt of that component*; attempt counters
/// reset on the first successful startup.
struct RestartFaultSpec {
  /// Probability a restart attempt hangs: startup never completes and only a
  /// superseding restart (recoverer deadline -> escalate) can move on.
  double hang_prob = 0.0;
  /// Probability a restart attempt crashes at the end of its startup.
  double crash_prob = 0.0;
  /// The first k attempts hang deterministically (then hang_prob applies).
  int hang_first_attempts = 0;
  /// The first k attempts crash deterministically (crash-loop shape).
  int fail_first_attempts = 0;

  bool active() const {
    return hang_prob > 0.0 || crash_prob > 0.0 || hang_first_attempts > 0 ||
           fail_first_attempts > 0;
  }
};

}  // namespace mercury::core

// Background fault injector: drives the station with Table-1 failure rates.
//
// Each component draws fail-silent crashes from its observed MTTF
// (exponential inter-arrivals; fedr uses a Weibull(k=2) lifetime measured
// from its last restart, giving the increasing hazard that makes
// rejuvenation — tree V's "free" fedr restarts — actually improve MTTF,
// §4.4). pbcom additionally fails through the aging mechanism modeled in
// FedrPbcomLink. A configurable fraction of pbcom-manifesting failures
// requires the joint {fedr,pbcom} cure.
//
// Used by bench_table1 (regenerating the observed MTTFs), the availability
// ablation, and the rejuvenation ablation.
#pragma once

#include <map>
#include <string>

#include "core/failure.h"
#include "station/station.h"
#include "util/rng.h"
#include "util/time.h"

namespace mercury::station {

struct InjectorConfig {
  /// Fraction of pbcom-manifesting background failures needing the joint
  /// {fedr,pbcom} cure (§4.4's "failures that manifest in pbcom but can
  /// only be cured by a joint restart").
  double pbcom_joint_fraction = 0.25;
  /// Weibull shape for fedr's age-dependent lifetime; 1.0 = memoryless.
  double fedr_weibull_shape = 2.0;
  /// Only inject into components that currently have no manifesting
  /// failure (a dead component cannot fail again).
  bool suppress_double_faults = true;
};

class FaultInjector {
 public:
  FaultInjector(Station& station, InjectorConfig config);

  /// Begin drawing failures for every component with a finite MTTF.
  void start();

  /// Number of failures injected into `component` so far.
  std::uint64_t injected(const std::string& component) const;
  std::uint64_t total_injected() const;

  /// Mean observed inter-failure time of `component` in seconds, 0 before
  /// its second failure (empirical MTTF check for Table 1). For fedr this
  /// measures the *effective* MTTF including rejuvenation by intervening
  /// restarts.
  double mean_inter_failure(const std::string& component) const;

 private:
  struct Source {
    std::string component;
    util::Duration mttf;
    std::uint64_t injected = 0;
    util::TimePoint last_failure;
    bool has_failed_before = false;
    /// Running sum and count of inter-failure times (seconds): the mean is
    /// all any caller reads, so no sample is kept.
    double inter_failure_sum = 0.0;
    std::uint64_t inter_failures = 0;
  };

  void schedule_next(Source& source);
  void fire(Source& source);
  util::Duration draw_lifetime(Source& source);

  Station& station_;
  InjectorConfig config_;
  util::Rng rng_;
  std::map<std::string, Source> sources_;
  /// fedr's last restart time, for the age-dependent draw.
  util::TimePoint fedr_last_restart_;
  std::uint64_t fedr_epoch_ = 0;  ///< bumped on fedr restart; voids old draws
};

}  // namespace mercury::station

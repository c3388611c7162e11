#include "station/fault_injector.h"

#include <algorithm>
#include <cmath>

#include "core/failure.h"
#include "core/mercury_trees.h"

namespace mercury::station {

namespace names = core::component_names;
using util::Duration;
using util::TimePoint;

FaultInjector::FaultInjector(Station& station, InjectorConfig config)
    : station_(station),
      config_(config),
      rng_(station.sim().rng().fork("fault-injector")) {
  for (const auto& name : station_.component_names()) {
    Source source;
    source.component = name;
    source.mttf = station_.cal().mttf_for(name);
    sources_.emplace(name, std::move(source));
  }

  // fedr rejuvenation: every completed fedr restart resets its age and
  // voids the currently scheduled lifetime draw.
  station_.add_restart_listener([this](const std::string& name, TimePoint now) {
    if (name != names::kFedr) return;
    fedr_last_restart_ = now;
    ++fedr_epoch_;
    const auto it = sources_.find(names::kFedr);
    if (it != sources_.end()) schedule_next(it->second);
  });
}

void FaultInjector::start() {
  fedr_last_restart_ = station_.sim().now();
  for (auto& [name, source] : sources_) schedule_next(source);
}

Duration FaultInjector::draw_lifetime(Source& source) {
  if (source.component == names::kFedr && config_.fedr_weibull_shape != 1.0) {
    // Weibull(k, lambda) with mean = lambda * Gamma(1 + 1/k). For k = 2,
    // Gamma(1.5) = sqrt(pi)/2.
    const double k = config_.fedr_weibull_shape;
    const double gamma_term = std::tgamma(1.0 + 1.0 / k);
    const double scale = source.mttf.to_seconds() / gamma_term;
    const double u = rng_.next_double();
    const double sample = scale * std::pow(-std::log1p(-u), 1.0 / k);
    // The lifetime is measured from fedr's last restart; subtract the age
    // already served (resample if already exceeded — hazard is due).
    const double age =
        (station_.sim().now() - fedr_last_restart_).to_seconds();
    return Duration::seconds(std::max(0.5, sample - age));
  }
  return rng_.exponential(source.mttf);
}

void FaultInjector::schedule_next(Source& source) {
  const Duration lifetime = draw_lifetime(source);
  const std::uint64_t epoch = fedr_epoch_;
  station_.sim().schedule_after(
      lifetime, "inject:" + source.component, [this, &source, epoch] {
        if (source.component == names::kFedr && epoch != fedr_epoch_) {
          return;  // rejuvenated since this draw; a fresh draw is scheduled
        }
        fire(source);
      });
}

void FaultInjector::fire(Source& source) {
  const TimePoint now = station_.sim().now();
  if (config_.suppress_double_faults) {
    const bool already_down =
        station_.board().manifests_at(source.component) ||
        (station_.component(source.component) != nullptr &&
         station_.component(source.component)->restarting());
    if (already_down) {
      schedule_next(source);
      return;
    }
  }

  core::FailureSpec spec;
  if (source.component == names::kPbcom &&
      rng_.chance(config_.pbcom_joint_fraction)) {
    spec = core::make_joint(names::kPbcom, {names::kFedr, names::kPbcom});
  } else {
    spec = core::make_crash(source.component);
  }
  station_.board().inject(std::move(spec), now);

  ++source.injected;
  if (source.has_failed_before) {
    source.inter_failure_sum += (now - source.last_failure).to_seconds();
    ++source.inter_failures;
  }
  source.last_failure = now;
  source.has_failed_before = true;

  schedule_next(source);
}

std::uint64_t FaultInjector::injected(const std::string& component) const {
  const auto it = sources_.find(component);
  return it != sources_.end() ? it->second.injected : 0;
}

std::uint64_t FaultInjector::total_injected() const {
  std::uint64_t total = 0;
  for (const auto& [name, source] : sources_) total += source.injected;
  return total;
}

double FaultInjector::mean_inter_failure(const std::string& component) const {
  const auto it = sources_.find(component);
  if (it == sources_.end() || it->second.inter_failures == 0) return 0.0;
  return it->second.inter_failure_sum /
         static_cast<double>(it->second.inter_failures);
}

}  // namespace mercury::station

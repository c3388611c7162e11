#include "core/availability.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "core/mercury_trees.h"
#include "util/stats.h"

namespace mercury::core {

double group_mttf_upper_bound(const std::vector<double>& component_mttfs) {
  double bound = std::numeric_limits<double>::infinity();
  for (double mttf : component_mttfs) bound = std::min(bound, mttf);
  return bound;
}

double group_mttr_lower_bound(const std::vector<double>& component_mttrs) {
  double bound = 0.0;
  for (double mttr : component_mttrs) bound = std::max(bound, mttr);
  return bound;
}

double expected_group_mttr(const std::vector<double>& f,
                           const std::vector<double>& mttr) {
  assert(f.size() == mttr.size());
  double expected = 0.0;
  for (std::size_t i = 0; i < f.size(); ++i) expected += f[i] * mttr[i];
  return expected;
}

double availability(double mttf, double mttr) {
  assert(mttf >= 0.0 && mttr >= 0.0);
  if (mttf + mttr == 0.0) return 1.0;
  return mttf / (mttf + mttr);
}

double downtime_fraction(double mttf, double mttr) {
  return 1.0 - availability(mttf, mttr);
}

namespace {

bool contains(const std::vector<std::string>& group, const std::string& name) {
  return std::binary_search(group.begin(), group.end(), name);
}

double member_duration(const SystemModel& model, const std::string& component,
                       double contention_factor) {
  const auto it = model.restart_duration_s.find(component);
  const double base = it != model.restart_duration_s.end() ? it->second : 5.0;
  double duration = base * contention_factor;
  const auto reconnect = model.dependent_reconnect_s.find(component);
  if (reconnect != model.dependent_reconnect_s.end()) {
    duration += reconnect->second;
  }
  return duration;
}

}  // namespace

double group_restart_duration(const SystemModel& model,
                              const std::vector<std::string>& group) {
  const double factor =
      1.0 + model.contention_slope *
                std::max<std::ptrdiff_t>(0, static_cast<std::ptrdiff_t>(group.size()) - 2);
  double slowest = 0.0;
  for (const auto& component : group) {
    slowest = std::max(slowest, member_duration(model, component, factor));
  }
  return slowest;
}

namespace {

/// Time from detection until the system is functional again after
/// restarting `node`'s group, including coupling epilogues.
double recovery_after_detection(const RestartTree& tree, const SystemModel& model,
                                NodeId node) {
  const auto group = tree.group_components(node);  // sorted
  const double factor =
      1.0 + model.contention_slope *
                std::max<std::ptrdiff_t>(0, static_cast<std::ptrdiff_t>(group.size()) - 2);
  double ready = 0.0;
  for (const auto& component : group) {
    ready = std::max(ready, member_duration(model, component, factor));
  }

  for (const auto& pair : model.coupled_pairs) {
    const bool a_in = contains(group, pair.a);
    const bool b_in = contains(group, pair.b);
    if (a_in && b_in) {
      // Parallel restart: both come up, collide, renegotiate.
      const double both = std::max(member_duration(model, pair.a, factor),
                                   member_duration(model, pair.b, factor)) +
                          pair.together_epilogue_s;
      ready = std::max(ready, both);
    } else if (a_in != b_in) {
      // One side restarts and wedges the survivor: a second detect+restart
      // round follows the first restart's completion (the §4.3 tree-III
      // chain).
      const std::string& restarted = a_in ? pair.a : pair.b;
      const std::string& survivor = a_in ? pair.b : pair.a;
      const double chain = member_duration(model, restarted, factor) +
                           model.detection_latency_s +
                           member_duration(model, survivor, 1.0) +
                           pair.sequential_epilogue_s;
      ready = std::max(ready, chain);
    }
  }
  return ready;
}

}  // namespace

double predicted_recovery_time(const RestartTree& tree, const SystemModel& model,
                               const FailureClassModel& failure) {
  auto minimal = tree.lowest_cell_covering_all(failure.cure_set);
  if (!minimal) minimal = tree.root();

  const double right =
      model.detection_latency_s + recovery_after_detection(tree, model, *minimal);
  if (model.oracle_p_low <= 0.0) return right;

  // Guess-too-low (§4.4): the oracle picks the next node below the minimal
  // cell toward the manifest component's cell; that restart does not cure,
  // FD re-detects, and the minimal restart follows.
  const auto attachment = tree.lowest_cell_covering(failure.manifest);
  if (!attachment || *attachment == *minimal ||
      !tree.is_ancestor(*minimal, *attachment)) {
    return right;  // nothing lower to guess — promotion's benefit
  }
  const auto path = tree.path_to_root(*attachment);
  NodeId wrong = *attachment;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (path[i] == *minimal) {
      assert(i > 0);
      wrong = path[i - 1];
      break;
    }
  }
  const double too_low = model.detection_latency_s +
                         recovery_after_detection(tree, model, wrong) +
                         model.detection_latency_s +
                         recovery_after_detection(tree, model, *minimal);
  return (1.0 - model.oracle_p_low) * right + model.oracle_p_low * too_low;
}

double predicted_system_mttr(const RestartTree& tree, const SystemModel& model) {
  double weighted = 0.0;
  double total_rate = 0.0;
  for (const auto& failure : model.failure_classes) {
    weighted += failure.rate * predicted_recovery_time(tree, model, failure);
    total_rate += failure.rate;
  }
  return total_rate > 0.0 ? weighted / total_rate : 0.0;
}

double predicted_availability(const RestartTree& tree, const SystemModel& model) {
  // Downtime per unit time = sum over classes rate * recovery; assumes
  // non-overlapping incidents (rates are tiny relative to 1/MTTR).
  double downtime_rate = 0.0;
  for (const auto& failure : model.failure_classes) {
    downtime_rate += failure.rate * predicted_recovery_time(tree, model, failure);
  }
  return std::max(0.0, 1.0 - downtime_rate);
}

SystemModel mercury_system_model(bool split_fedrcom, double oracle_p_low,
                                 double joint_fraction) {
  namespace names = component_names;
  SystemModel model;
  model.detection_latency_s = 0.66;
  model.contention_slope = 0.0628;
  model.oracle_p_low = oracle_p_low;

  // Mirrors station::Calibration (documented derivations in DESIGN.md §4).
  model.restart_duration_s = {
      {names::kMbus, 5.35}, {names::kSes, 4.10},     {names::kStr, 4.16},
      {names::kRtu, 4.94},  {names::kFedrcom, 20.28},
      {names::kFedr, 5.11}, {names::kPbcom, 20.49},
  };
  model.coupled_pairs.push_back(CoupledPairModel{
      names::kSes, names::kStr, /*together=*/1.39, /*sequential=*/0.05});
  model.dependent_reconnect_s[names::kPbcom] = 0.10;

  // Table 1 rates, in failures per second.
  const double per_hour = 1.0 / 3600.0;
  model.failure_classes.push_back(
      {names::kSes, {names::kSes}, per_hour / 5.0});
  model.failure_classes.push_back(
      {names::kStr, {names::kStr}, per_hour / 5.0});
  model.failure_classes.push_back(
      {names::kRtu, {names::kRtu}, per_hour / 5.0});
  model.failure_classes.push_back(
      {names::kMbus, {names::kMbus}, per_hour / (30.0 * 24.0)});
  if (split_fedrcom) {
    model.failure_classes.push_back(
        {names::kFedr, {names::kFedr}, per_hour * 60.0 / 11.0});
    // pbcom fails mostly through aging (correlated with fedr restarts);
    // a `joint_fraction` of its manifestations needs the joint cure.
    const double pbcom_rate = per_hour * 60.0 / 80.0;
    model.failure_classes.push_back(
        {names::kPbcom, {names::kPbcom}, pbcom_rate * (1.0 - joint_fraction)});
    model.failure_classes.push_back(
        {names::kPbcom,
         {names::kFedr, names::kPbcom},
         pbcom_rate * joint_fraction});
  } else {
    model.failure_classes.push_back(
        {names::kFedrcom, {names::kFedrcom}, per_hour * 60.0 / 10.0});
  }
  return model;
}

// --- Client-traffic availability accounting (ISSUE 9) ----------------------

std::string_view to_string(RequestOutcome outcome) {
  switch (outcome) {
    case RequestOutcome::kServed:
      return "";
    case RequestOutcome::kTimeout:
      return "timeout";
    case RequestOutcome::kRejectedRestarting:
      return "rejected-restarting";
    case RequestOutcome::kRejectedParked:
      return "rejected-parked";
  }
  return "?";
}

void TrafficAccount::record(const RequestRecord& record) {
  records_.push_back(record);
}

TrafficSummary TrafficAccount::summarize(double inject_t, double end_t,
                                         double bin_s) const {
  TrafficSummary summary;
  summary.issued = records_.size();

  util::SampleStats latency_ms;
  for (const RequestRecord& record : records_) {
    if (record.served()) {
      ++summary.served;
      latency_ms.add((record.done_t - record.sent_t) * 1000.0);
    } else {
      ++summary.lost;
    }
    if (record.attempts > 1) ++summary.retried;
    summary.restarting_rejections += record.restarting_nacks;
    if (record.outcome == RequestOutcome::kRejectedParked) {
      ++summary.parked_rejections;
    }
  }
  if (!latency_ms.empty()) {
    summary.p50_ms = latency_ms.percentile(50.0);
    summary.p99_ms = latency_ms.percentile(99.0);
    summary.p999_ms = latency_ms.percentile(99.9);
  }

  if (inject_t <= 0.0 || bin_s <= 0.0 || end_t <= inject_t) return summary;

  // Baseline: served rate over the whole pre-injection window.
  std::uint64_t served_before = 0;
  std::map<std::int64_t, std::uint64_t> served_by_bin;
  for (const RequestRecord& record : records_) {
    if (!record.served()) continue;
    if (record.done_t < inject_t) ++served_before;
    served_by_bin[static_cast<std::int64_t>(record.done_t / bin_s)] += 1;
  }
  summary.baseline_rps = static_cast<double>(served_before) / inject_t;
  if (summary.baseline_rps <= 0.0) return summary;

  // Goodput dip over bins fully contained in (inject_t, end_t): the first
  // (injection-straddling) and last (quiesce-straddling) partial bins would
  // read as artificial dips.
  const auto first_bin = static_cast<std::int64_t>(inject_t / bin_s) + 1;
  const auto end_bin = static_cast<std::int64_t>(end_t / bin_s);  // exclusive
  const double threshold = 0.95 * summary.baseline_rps;
  double min_rate = summary.baseline_rps;
  std::int64_t last_below = -1;
  for (std::int64_t bin = first_bin; bin < end_bin; ++bin) {
    const auto it = served_by_bin.find(bin);
    const double rate =
        (it == served_by_bin.end() ? 0.0 : static_cast<double>(it->second)) /
        bin_s;
    min_rate = std::min(min_rate, rate);
    if (rate < threshold) {
      summary.dip_width_s += bin_s;
      last_below = bin;
    }
  }
  summary.dip_depth =
      std::clamp(1.0 - min_rate / summary.baseline_rps, 0.0, 1.0);
  if (last_below >= 0) {
    summary.dip_end_s = static_cast<double>(last_below + 1) * bin_s - inject_t;
  }

  // Service-reopen latency per impacted route: max over routes that lost a
  // post-injection request of (first post-injection serve - inject).
  std::size_t routes = 0;
  for (const RequestRecord& record : records_) {
    routes = std::max<std::size_t>(routes, record.route + std::size_t{1});
  }
  constexpr double kNever = std::numeric_limits<double>::infinity();
  std::vector<double> first_served_after(routes, kNever);
  std::vector<bool> impacted(routes, false);
  for (const RequestRecord& record : records_) {
    if (record.served() && record.done_t >= inject_t) {
      double& first = first_served_after[record.route];
      first = std::min(first, record.done_t);
    }
    if (!record.served() && record.sent_t >= inject_t) {
      impacted[record.route] = true;
    }
  }
  for (std::size_t route = 0; route < routes; ++route) {
    if (!impacted[route]) continue;
    const double first = first_served_after[route];
    const double reopen = (first == kNever ? end_t : first) - inject_t;
    summary.worst_route_reopen_s =
        std::max(summary.worst_route_reopen_s, reopen);
  }
  return summary;
}

}  // namespace mercury::core

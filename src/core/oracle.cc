#include "core/oracle.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"

namespace mercury::core {

NodeId Oracle::traced(const OracleQuery& query, NodeId chosen) const {
  if (query.trace_now.has_value() && obs::enabled()) {
    obs::recorder()->instant(
        *query.trace_now, "oracle", "oracle.choice", "oracle",
        {{"component", query.failed_component},
         {"cell", query.tree->cell(chosen).label},
         {"oracle", name()},
         {"escalation", query.escalation_level}});
  }
  return chosen;
}

NodeId Oracle::escalate(const OracleQuery& query) {
  assert(query.previous_node.has_value());
  const RestartTree& tree = *query.tree;
  const NodeId previous = *query.previous_node;
  if (previous == tree.root()) return tree.root();
  return tree.parent(previous);
}

NodeId Oracle::attachment_cell(const OracleQuery& query) {
  const auto cell = query.tree->lowest_cell_covering(query.failed_component);
  return cell ? *cell : query.tree->root();
}

NodeId HeuristicOracle::choose(const OracleQuery& query) {
  if (query.escalation_level > 0 && query.previous_node) {
    return traced(query, escalate(query));
  }
  return traced(query, attachment_cell(query));
}

NodeId PerfectOracle::choose(const OracleQuery& query) {
  if (query.escalation_level > 0 && query.previous_node) {
    return traced(query, escalate(query));
  }

  // Union the cure sets of every failure manifesting at the component (in
  // the common case there is exactly one).
  std::vector<std::string> cure;
  for (const auto& failure : board_->active_at(query.failed_component)) {
    for (const auto& member : failure.spec->cure_set) {
      if (std::find(cure.begin(), cure.end(), member) == cure.end()) {
        cure.push_back(member);
      }
    }
  }
  if (cure.empty()) {
    // No ground-truth failure (e.g. a detection blip): minimal restart of
    // the component itself.
    return traced(query, attachment_cell(query));
  }
  const auto node = query.tree->lowest_cell_covering_all(cure);
  return traced(query, node ? *node : query.tree->root());
}

FaultyOracle::FaultyOracle(Oracle& inner, util::Rng rng, double p_low, double p_high)
    : inner_(&inner), rng_(rng), p_low_(p_low), p_high_(p_high) {
  assert(p_low_ >= 0.0 && p_high_ >= 0.0 && p_low_ + p_high_ <= 1.0);
}

std::string FaultyOracle::name() const { return "faulty(" + inner_->name() + ")"; }

NodeId FaultyOracle::choose(const OracleQuery& query) {
  // The wrapper owns the traced decision; silence the inner oracle so each
  // query produces exactly one oracle.choice event.
  OracleQuery inner_query = query;
  inner_query.trace_now.reset();
  const NodeId honest = inner_->choose(inner_query);
  // Escalations are answered correctly: the §4.4 faulty oracle "realizes the
  // failure is persisting, and moves up the tree".
  if (query.escalation_level > 0) return traced(query, honest);

  const RestartTree& tree = *query.tree;
  const double roll = rng_.next_double();
  if (roll < p_low_) {
    // Guess-too-low: step from the honest cell toward the failed
    // component's attachment cell, if there is anywhere lower to go.
    const NodeId attachment = attachment_cell(query);
    if (attachment != honest && tree.is_ancestor(honest, attachment)) {
      // The next node below `honest` on the attachment's root path.
      const auto path = tree.path_to_root(attachment);
      for (std::size_t i = 0; i < path.size(); ++i) {
        if (path[i] == honest) {
          assert(i > 0);
          ++mistakes_;
          return traced(query, path[i - 1]);
        }
      }
    }
    return traced(query, honest);  // nothing lower exists (tree V's point:
                                   // promotion removes the too-low option)
  }
  if (roll < p_low_ + p_high_) {
    if (honest != tree.root()) {
      ++mistakes_;
      return traced(query, tree.parent(honest));
    }
  }
  return traced(query, honest);
}

LearningOracle::LearningOracle(util::Rng rng,
                               std::map<std::string, double> restart_cost_hint,
                               double explore_probability)
    : rng_(rng),
      cost_hint_(std::move(restart_cost_hint)),
      explore_probability_(explore_probability) {}

double LearningOracle::cure_estimate(const std::string& component,
                                     NodeId node) const {
  const auto it = arms_.find({component, node});
  if (it == arms_.end()) return 0.5;  // Laplace prior
  return (it->second.cures + 1.0) / (it->second.attempts + 2.0);
}

double LearningOracle::group_cost(const RestartTree& tree, NodeId node) const {
  // Members restart concurrently; the group's cost is its slowest member,
  // inflated by restart contention for large groups (operators observe this
  // too — it is why full reboots overshoot the slowest component, §4.1).
  constexpr double kContentionSlope = 0.0628;
  const auto group = tree.group_components(node);
  double cost = 0.0;
  for (const auto& member : group) {
    const auto it = cost_hint_.find(member);
    cost = std::max(cost, it != cost_hint_.end() ? it->second : 5.0);
  }
  const double factor =
      1.0 + kContentionSlope *
                std::max<std::ptrdiff_t>(
                    0, static_cast<std::ptrdiff_t>(group.size()) - 2);
  return cost * factor;
}

double LearningOracle::expected_recovery(const OracleQuery& query,
                                         NodeId node) const {
  // E[t | start at node] = cost(node) + (1 - p_cure) * E[t | escalate],
  // evaluated up the root path (the recoverer escalates on recurrence).
  const RestartTree& tree = *query.tree;
  const auto path = tree.path_to_root(node);
  double expected = 0.0;
  double reach_probability = 1.0;
  constexpr double kRedetectCost = 0.7;  // ping period/2 + timeout
  for (std::size_t i = 0; i < path.size(); ++i) {
    const double p_cure =
        i + 1 == path.size()
            ? 1.0  // the root restart always cures (A_cure)
            : cure_estimate(query.failed_component, path[i]);
    expected += reach_probability * group_cost(tree, path[i]);
    reach_probability *= (1.0 - p_cure);
    expected += reach_probability * kRedetectCost;
    if (reach_probability < 1e-6) break;
  }
  return expected;
}

NodeId LearningOracle::choose(const OracleQuery& query) {
  if (query.escalation_level > 0 && query.previous_node) {
    return traced(query, escalate(query));
  }
  const RestartTree& tree = *query.tree;
  const NodeId attachment = attachment_cell(query);
  const auto path = tree.path_to_root(attachment);

  if (rng_.chance(explore_probability_)) {
    // Explore: try a uniformly random cell on the path, so f_ci estimates
    // keep improving for cells the greedy policy would skip.
    const auto index = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(path.size()) - 1));
    return traced(query, path[index]);
  }

  NodeId best = attachment;
  double best_expected = expected_recovery(query, attachment);
  for (NodeId node : path) {
    const double expected = expected_recovery(query, node);
    if (expected < best_expected) {
      best_expected = expected;
      best = node;
    }
  }
  return traced(query, best);
}

void LearningOracle::feedback(const std::string& component, NodeId node,
                              bool cured) {
  Arm& arm = arms_[{component, node}];
  ++arm.attempts;
  if (cured) ++arm.cures;
}

}  // namespace mercury::core

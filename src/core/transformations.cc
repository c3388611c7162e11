#include "core/transformations.h"

#include <algorithm>

#include "core/mercury_trees.h"
#include "obs/trace.h"

namespace mercury::core {

using util::Error;
using util::Result;

namespace {

/// Transformations are pure tree rewrites with no clock of their own, so the
/// trace instant sits at t=0 of whichever run applies them; `op`/`target`
/// identify the rewrite and `cells` the resulting tree size.
void trace_transform(const std::string& op, const std::string& target,
                     const RestartTree& tree) {
  obs::instant(util::TimePoint::origin(), "tree", "tree.transform", "tree",
               {{"op", op},
                {"target", target},
                {"cells", tree.size()}});
}

}  // namespace

Result<RestartTree> depth_augment(RestartTree tree, NodeId cell) {
  if (cell >= tree.size()) return Error("depth_augment: no such cell");
  const auto components = tree.cell(cell).components;  // copy; we mutate below
  if (components.size() < 2) {
    return Error("depth_augment: cell needs at least two attached components");
  }
  for (const auto& component : components) {
    tree.detach_component(component);
    const NodeId leaf = tree.add_cell(cell, "R_" + component);
    tree.attach_component(leaf, component);
  }
  if (auto s = tree.validate(); !s.ok()) return s.error().wrap("depth_augment");
  trace_transform("depth_augment", tree.cell(cell).label, tree);
  return tree;
}

Result<RestartTree> split_component(RestartTree tree, const std::string& component,
                                    const std::vector<std::string>& parts) {
  const auto cell = tree.find_component(component);
  if (!cell) return Error("split_component: '" + component + "' not in tree");
  if (parts.size() < 2) return Error("split_component: need at least two parts");
  for (const auto& part : parts) {
    if (tree.find_component(part)) {
      return Error("split_component: part '" + part + "' already in tree");
    }
  }

  const bool dedicated_leaf =
      tree.is_leaf(*cell) && tree.cell(*cell).components.size() == 1;
  tree.detach_component(component);

  if (dedicated_leaf) {
    // The component had its own cell: each part becomes a sibling leaf under
    // the old cell's parent (tree II -> II': fedr and pbcom are top-level).
    const NodeId parent = tree.parent(*cell);
    if (auto s = tree.remove_empty_cell(*cell); !s.ok()) {
      return s.error().wrap("split_component");
    }
    // remove_empty_cell invalidated ids; `parent` was an ancestor of *cell,
    // so its index is unchanged iff parent < *cell, which holds for any
    // ancestor (cells are appended after their parents).
    for (const auto& part : parts) {
      const NodeId leaf = tree.add_cell(parent, "R_" + part);
      tree.attach_component(leaf, part);
    }
  } else {
    // Shared cell (e.g. tree I root): the parts join it directly, keeping
    // the "everything restarts together" semantics of the original cell.
    for (const auto& part : parts) {
      tree.attach_component(*cell, part);
    }
  }
  if (auto s = tree.validate(); !s.ok()) return s.error().wrap("split_component");
  trace_transform("split_component", component, tree);
  return tree;
}

Result<RestartTree> group_under_joint(RestartTree tree, const std::string& a,
                                      const std::string& b,
                                      const std::string& joint_label) {
  const auto cell_a = tree.find_component(a);
  const auto cell_b = tree.find_component(b);
  if (!cell_a || !cell_b) return Error("group_under_joint: component not in tree");
  if (*cell_a == *cell_b) return Error("group_under_joint: already share a cell");
  if (!tree.is_leaf(*cell_a) || !tree.is_leaf(*cell_b)) {
    return Error("group_under_joint: components must sit on leaf cells");
  }
  if (tree.parent(*cell_a) != tree.parent(*cell_b)) {
    return Error("group_under_joint: cells must be siblings");
  }
  const NodeId parent = tree.parent(*cell_a);

  // Drop the two leaves, then grow the joint cell with fresh leaves. The
  // higher index must be removed first so the lower one stays valid.
  const NodeId first = std::min(*cell_a, *cell_b);
  const NodeId second = std::max(*cell_a, *cell_b);
  tree.detach_component(a);
  tree.detach_component(b);
  if (auto s = tree.remove_empty_cell(second); !s.ok()) return s.error();
  if (auto s = tree.remove_empty_cell(first); !s.ok()) return s.error();

  const NodeId joint = tree.add_cell(parent, joint_label);
  const NodeId leaf_a = tree.add_cell(joint, "R_" + a);
  tree.attach_component(leaf_a, a);
  const NodeId leaf_b = tree.add_cell(joint, "R_" + b);
  tree.attach_component(leaf_b, b);

  if (auto s = tree.validate(); !s.ok()) return s.error().wrap("group_under_joint");
  trace_transform("group_under_joint", a + "+" + b, tree);
  return tree;
}

Result<RestartTree> consolidate_group(RestartTree tree, const std::string& a,
                                      const std::string& b) {
  const auto cell_a = tree.find_component(a);
  const auto cell_b = tree.find_component(b);
  if (!cell_a || !cell_b) return Error("consolidate_group: component not in tree");
  if (*cell_a == *cell_b) return Error("consolidate_group: already consolidated");
  if (!tree.is_leaf(*cell_a) || !tree.is_leaf(*cell_b)) {
    return Error("consolidate_group: components must sit on leaf cells");
  }
  if (tree.parent(*cell_a) != tree.parent(*cell_b)) {
    return Error("consolidate_group: cells must be siblings");
  }

  // Move b (and any cellmates) into a's cell; remove b's husk.
  const auto moved = tree.cell(*cell_b).components;
  for (const auto& component : moved) {
    tree.detach_component(component);
    tree.attach_component(*cell_a, component);
  }
  if (auto s = tree.remove_empty_cell(*cell_b); !s.ok()) return s.error();

  // cell_a's id survives unless it was above cell_b, in which case it
  // shifted; recompute via the component.
  const auto merged = tree.find_component(a);
  tree.set_label(*merged, "R_[" + a + "," + b + "]");

  if (auto s = tree.validate(); !s.ok()) return s.error().wrap("consolidate_group");
  trace_transform("consolidate_group", a + "+" + b, tree);
  return tree;
}

Result<RestartTree> promote_component(RestartTree tree, const std::string& component) {
  const auto cell = tree.find_component(component);
  if (!cell) return Error("promote_component: '" + component + "' not in tree");
  if (!tree.is_leaf(*cell)) {
    return Error("promote_component: component must sit on a leaf cell");
  }
  if (tree.cell(*cell).components.size() != 1) {
    return Error("promote_component: leaf must hold only this component");
  }
  const NodeId parent = tree.parent(*cell);
  if (parent == kInvalidNode) {
    return Error("promote_component: component is already at the root");
  }
  if (tree.cell(parent).children.size() < 2) {
    // Promoting onto a chain node changes nothing: the parent's group would
    // equal the old leaf's group.
    return Error("promote_component: parent has no other descendants");
  }

  tree.detach_component(component);
  if (auto s = tree.remove_empty_cell(*cell); !s.ok()) return s.error();
  // Ancestor indices are stable under removal of a descendant (parents
  // always precede children in the cell array).
  tree.attach_component(parent, component);
  tree.set_label(parent, "R_" + component + "+");

  if (auto s = tree.validate(); !s.ok()) return s.error().wrap("promote_component");
  trace_transform("promote_component", component, tree);
  return tree;
}

Result<std::vector<RestartTree>> evolve_mercury_trees() {
  namespace names = component_names;
  std::vector<RestartTree> stages;
  stages.push_back(make_tree_i());

  auto tree_ii = depth_augment(stages.back(), stages.back().root());
  if (!tree_ii.ok()) return tree_ii.error();
  stages.push_back(std::move(tree_ii).value());

  auto tree_ii_prime =
      split_component(stages.back(), names::kFedrcom, {names::kFedr, names::kPbcom});
  if (!tree_ii_prime.ok()) return tree_ii_prime.error();
  stages.push_back(std::move(tree_ii_prime).value());

  auto tree_iii = group_under_joint(stages.back(), names::kFedr, names::kPbcom,
                                    "R_[fedr,pbcom]");
  if (!tree_iii.ok()) return tree_iii.error();
  stages.push_back(std::move(tree_iii).value());

  auto tree_iv = consolidate_group(stages.back(), names::kSes, names::kStr);
  if (!tree_iv.ok()) return tree_iv.error();
  stages.push_back(std::move(tree_iv).value());

  auto tree_v = promote_component(stages.back(), names::kPbcom);
  if (!tree_v.ok()) return tree_v.error();
  stages.push_back(std::move(tree_v).value());

  return stages;
}

}  // namespace mercury::core

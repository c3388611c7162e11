// Table 3 reproduction: "Summary of restart tree transformations".
//
// Table 3 is qualitative: the five trees, the transformation that produces
// each, and the assumptions each embodies. We regenerate it mechanically:
// the trees come from the transformation algebra (tree I evolved by
// depth-augment / split / group / consolidate / promote), and the
// assumption annotations come from the §4 predicates evaluated against the
// Mercury system model — not from hand-written strings.
#include <cstdio>

#include "bench/bench_common.h"
#include "core/assumptions.h"
#include "core/availability.h"
#include "core/mercury_trees.h"
#include "core/transformations.h"

int main() {
  mercury::bench::TraceSession trace_session("bench_table3");
  using mercury::bench::print_header;
  using namespace mercury::core;

  print_header("Table 3 — restart tree transformations, regenerated");

  auto evolution = evolve_mercury_trees();
  if (!evolution.ok()) {
    std::fprintf(stderr, "evolution failed: %s\n",
                 evolution.error().message().c_str());
    return 1;
  }
  const auto& stages = evolution.value();

  const char* transformation_names[] = {
      "original tree (single cell)",
      "simple depth augmentation (Fig. 3)",
      "component split: fedrcom -> fedr + pbcom (Fig. 4, intermediate II')",
      "subtree depth augmentation: joint [fedr,pbcom] cell (Fig. 4)",
      "group consolidation: ses + str (Fig. 5)",
      "node promotion: pbcom onto the joint cell (Fig. 6)",
  };
  const char* usefulness[] = {
      "useful only if all component MTTRs are roughly equal",
      "useful when f_A + f_B > 0 (independent partial restarts help)",
      "separates high-MTTR/low-MTTF pbcom from low-MTTR/high-MTTF fedr",
      "useful when f_{A,B} > 0 (correlated failures curable in parallel)",
      "useful when f_A + f_B << f_{A,B} (ses/str always fail together)",
      "useful when the oracle is faulty (kills guess-too-low on pbcom)",
  };

  for (std::size_t i = 0; i < stages.size(); ++i) {
    const RestartTree& tree = stages[i];
    const bool split = tree.find_component(component_names::kFedr).has_value();
    const SystemModel model = mercury_system_model(split);

    std::printf("\n--- Stage %zu: %s ---\n", i, transformation_names[i]);
    std::printf("%s", tree.render().c_str());
    std::printf("restart groups: %zu   predicted system MTTR: %.2f s\n",
                tree.group_count(), predicted_system_mttr(tree, model));

    const auto a_cure = check_a_cure(tree, model);
    const auto a_independent = check_a_independent(tree, model);
    std::printf("embodies: A_cure=%s A_entire=yes A_independent=%s\n",
                a_cure.holds ? "yes" : "NO", a_independent.holds ? "yes" : "no");
    for (const auto& violation : a_independent.violations) {
      std::printf("  A_independent violation: %s\n", violation.c_str());
    }
    std::printf("use: %s\n", usefulness[i]);
  }

  std::printf(
      "\nNote (§4.3): tree III violates A_independent for ses/str — the cure\n"
      "itself induces the peer's failure; consolidation (IV) encodes that\n"
      "correlated-failure knowledge into the tree structure.\n");
  return trace_session.finish();
}

#include "repair/ccp_primary_key.h"

#include "conflicts/blocks.h"
#include "repair/subinstance_ops.h"

namespace prefrep {

Digraph BuildCcpPrimaryKeyGraph(const ConflictGraph& cg,
                                const PriorityRelation& pr,
                                const DynamicBitset& j,
                                const std::vector<FactId>& facts) {
  Digraph graph(facts.size());
  for (size_t i = 0; i < facts.size(); ++i) {
    const FactId f = facts[i];
    // f ∈ J: conflict edges towards I \ J; f ∈ I \ J: priority edges
    // towards the J-facts it improves.
    const bool in_j = j.test(f);
    for (FactId g : in_j ? cg.neighbors(f) : pr.Dominates(f)) {
      if (j.test(g) != in_j) {
        const size_t k = PositionIn(facts, g);
        if (k != SIZE_MAX) {
          graph.AddEdge(i, k);
        }
      }
    }
  }
  return graph;
}

CheckResult CheckGlobalOptimalCcpPrimaryKey(const ConflictGraph& cg,
                                            const PriorityRelation& pr,
                                            const DynamicBitset& j) {
  const Instance& instance = cg.instance();
  if (!IsConsistent(cg, j)) {
    return CheckResult::NotOptimalNoWitness();  // not a repair
  }
  if (std::optional<FactId> extension = FindExtension(cg, j)) {
    DynamicBitset improvement = j;
    improvement.set(*extension);
    return CheckResult::NotOptimal(
        std::move(improvement),
        "J is not maximal: " + instance.FactToString(*extension) +
            " can be added without conflict");
  }

  Digraph graph = BuildCcpPrimaryKeyGraph(cg, pr, j, AllFactIds(cg));
  std::optional<std::vector<size_t>> cycle = graph.FindCycle();
  if (!cycle.has_value()) {
    return CheckResult::Optimal();
  }
  // Lemma 7.3: J' = (J \ {f_i}) ∪ {g_i} over the cycle's J / I\J nodes.
  DynamicBitset improvement = j;
  for (size_t node : *cycle) {
    FactId f = static_cast<FactId>(node);
    if (j.test(f)) {
      improvement.reset(f);
    } else {
      improvement.set(f);
    }
  }
  return CheckResult::NotOptimal(std::move(improvement),
                                 "cycle in G_{J, I\\J}");
}

}  // namespace prefrep

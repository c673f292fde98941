// Polynomial ccp algorithm for the constant-attribute tractable case of
// Theorem 7.1 (§7.2.2): a single FD ∅ → B.
#include "repair/ccp_constant_attr.h"

#include <unordered_map>

#include "base/hash.h"
#include "conflicts/blocks.h"
#include "repair/subinstance_ops.h"

namespace prefrep {

std::vector<std::vector<FactId>> ConsistentPartitions(
    const Instance& instance, RelId rel, const std::vector<FactId>& facts) {
  const Schema& schema = instance.schema();
  // ⟦R.∅⟧: the attributes forced constant by ∆|rel.
  AttrSet constant_attrs = schema.fds(rel).Closure(AttrSet());
  std::unordered_map<std::vector<ValueId>, std::vector<FactId>,
                     VectorHash<ValueId>>
      groups;
  std::vector<std::vector<ValueId>> order;  // deterministic output order
  for (FactId f : facts) {
    const Fact& fact = instance.fact(f);
    std::vector<ValueId> key;
    constant_attrs.ForEach(
        [&](int a) { key.push_back(fact.values[a - 1]); });
    auto [it, inserted] = groups.try_emplace(key);
    if (inserted) {
      order.push_back(key);
    }
    it->second.push_back(f);
  }
  std::vector<std::vector<FactId>> out;
  out.reserve(order.size());
  for (const std::vector<ValueId>& key : order) {
    out.push_back(std::move(groups[key]));
  }
  return out;
}

void ForEachConstantAttrRepair(
    const Instance& instance, const std::vector<FactId>& facts,
    const std::function<bool(const DynamicBitset&)>& fn) {
  const Schema& schema = instance.schema();
  std::vector<std::vector<FactId>> facts_of(schema.num_relations());
  for (FactId f : facts) {
    facts_of[instance.fact(f).rel].push_back(f);
  }
  std::vector<std::vector<std::vector<FactId>>> partitions;
  for (RelId rel = 0; rel < schema.num_relations(); ++rel) {
    if (!facts_of[rel].empty()) {
      partitions.push_back(ConsistentPartitions(instance, rel, facts_of[rel]));
    }
  }
  // Odometer over one partition choice per relation with listed facts.
  std::vector<size_t> choice(partitions.size(), 0);
  for (;;) {
    DynamicBitset repair(instance.num_facts());
    for (size_t i = 0; i < partitions.size(); ++i) {
      for (FactId f : partitions[i][choice[i]]) {
        repair.set(f);
      }
    }
    if (!fn(repair)) {
      return;
    }
    // Advance the odometer.
    size_t pos = 0;
    while (pos < choice.size()) {
      if (++choice[pos] < partitions[pos].size()) {
        break;
      }
      choice[pos] = 0;
      ++pos;
    }
    if (pos == choice.size()) {
      return;  // odometer wrapped: all combinations visited
    }
  }
}

CheckResult CheckGlobalOptimalCcpConstantAttr(const ConflictGraph& cg,
                                              const PriorityRelation& pr,
                                              const DynamicBitset& j) {
  if (!IsRepair(cg, j)) {
    // If J is consistent but not maximal, the extension is a witness.
    if (IsConsistent(cg, j)) {
      if (std::optional<FactId> ext = FindExtension(cg, j)) {
        DynamicBitset improvement = j;
        improvement.set(*ext);
        return CheckResult::NotOptimal(std::move(improvement),
                                       "J is not maximal");
      }
    }
    return CheckResult::NotOptimalNoWitness();
  }
  // If a global improvement exists, its maximal extension is also a global
  // improvement (J′ ⊆ J″ keeps J″\J ⊇ J′\J while shrinking J\J″), so it
  // suffices to scan the repairs.
  CheckResult result = CheckResult::Optimal();
  ForEachConstantAttrRepair(
      cg.instance(), AllFactIds(cg), [&](const DynamicBitset& candidate) {
        if (IsGlobalImprovement(cg, pr, j, candidate)) {
          result = CheckResult::NotOptimal(
              candidate, "an enumerated repair globally improves J");
          return false;
        }
        return true;
      });
  return result;
}

}  // namespace prefrep

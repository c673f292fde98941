#include "repair/global_two_keys.h"

#include "conflicts/conflicts.h"
#include "conflicts/projection.h"

namespace prefrep {

namespace {

// Renders a fact's projection onto `key`: the constant itself for a
// one-attribute key, "(c1, c2, ...)" otherwise.
std::string RenderProjection(const Instance& instance, const ValueId* row,
                             const AttrOffsets& key) {
  if (key.count == 1) {
    return instance.dict().Text(row[key.offsets[0]]);
  }
  std::string out = "(";
  for (uint8_t i = 0; i < key.count; ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += instance.dict().Text(row[key.offsets[i]]);
  }
  out += ")";
  return out;
}

// Node interner for the two sides of the bipartite graph.  Each side is
// an open-addressing table keyed by the seeded projection hash of a fact
// and verified against the row of the node's first fact
// (conflicts/projection.h), so a lookup materializes no key.  Nodes are
// numbered in first-seen order.  A side never holds more nodes than the
// graph has facts, so each table is sized once for at most half load.
class NodeTable {
 public:
  NodeTable(KeyedImprovementGraph* g, const Instance* instance,
            AttrSet first_key, AttrSet second_key, size_t num_facts)
      : g_(g), instance_(instance) {
    size_t capacity = 16;
    while (capacity < 2 * num_facts) {
      capacity *= 2;
    }
    sides_[0].key = AttrOffsets::Build(first_key);
    sides_[1].key = AttrOffsets::Build(second_key);
    for (Side& side : sides_) {
      side.slots.assign(capacity, Slot{});
    }
  }

  // The node of f's projection on the left (first-key) or right
  // (second-key) side, created on first sight.
  size_t Get(FactId f, bool left) {
    Side& side = sides_[left ? 0 : 1];
    const ValueId* row = instance_->row(f);
    const uint64_t hash = ProjectHash(row, side.key, kNodeHashSeed);
    const size_t mask = side.slots.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      Slot& slot = side.slots[i];
      if (slot.rep == kInvalidFactId) {
        slot = Slot{hash, f, static_cast<uint32_t>(g_->graph.AddNode())};
        g_->labels.push_back(RenderProjection(*instance_, row, side.key));
        g_->is_left.push_back(left);
        g_->left_fact.push_back(kInvalidFactId);
        g_->right_fact.push_back(kInvalidFactId);
        return slot.node;
      }
      if (slot.hash == hash &&
          RowsEqualOn(row, instance_->row(slot.rep), side.key)) {
        return slot.node;
      }
    }
  }

 private:
  struct Slot {
    uint64_t hash = 0;
    FactId rep = kInvalidFactId;  ///< first fact seen; kInvalidFactId = empty
    uint32_t node = 0;
  };
  struct Side {
    AttrOffsets key;
    std::vector<Slot> slots;
  };
  static constexpr uint64_t kNodeHashSeed = 0x6e0de7ab1e5eed00ULL;

  KeyedImprovementGraph* g_;
  const Instance* instance_;
  Side sides_[2];
};

}  // namespace

size_t KeyedImprovementGraph::FindNode(const std::string& label,
                                       bool left) const {
  for (size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == label && is_left[i] == left) {
      return i;
    }
  }
  return SIZE_MAX;
}

bool KeyedImprovementGraph::HasEdge(const std::string& from_label,
                                    bool from_left,
                                    const std::string& to_label,
                                    bool to_left) const {
  size_t from = FindNode(from_label, from_left);
  size_t to = FindNode(to_label, to_left);
  if (from == SIZE_MAX || to == SIZE_MAX) {
    return false;
  }
  for (size_t v : graph.successors(from)) {
    if (v == to) {
      return true;
    }
  }
  return false;
}

KeyedImprovementGraph BuildImprovementGraph(
    const Instance& instance, const PriorityRelation& pr, AttrSet first_key,
    AttrSet second_key, const std::vector<FactId>& facts,
    const DynamicBitset& j) {
  KeyedImprovementGraph g;
  NodeTable nodes(&g, &instance, first_key, second_key, facts.size());
  const AttrOffsets second = AttrOffsets::Build(second_key);

  // Forward edges: one per J-fact, f[first] → f[second].
  for (FactId f : facts) {
    if (!j.test(f)) {
      continue;
    }
    size_t left = nodes.Get(f, /*left=*/true);
    size_t right = nodes.Get(f, /*left=*/false);
    PREFREP_CHECK_MSG(g.left_fact[left] == kInvalidFactId,
                      "two J-facts share a key projection: J violates the "
                      "first key");
    PREFREP_CHECK_MSG(g.right_fact[right] == kInvalidFactId,
                      "two J-facts share a key projection: J violates the "
                      "second key");
    g.left_fact[left] = f;
    g.right_fact[right] = f;
    g.graph.AddEdge(left, right);
  }

  // Backward edges: f′ ∈ I \ J preferred over a J-fact f that shares the
  // second-key projection contributes f′[second] → f′[first].
  for (FactId f_prime : facts) {
    if (j.test(f_prime)) {
      continue;
    }
    const RelId rel = instance.rel_of(f_prime);
    const ValueId* fp_row = instance.row(f_prime);
    for (FactId f : pr.Dominates(f_prime)) {
      if (!j.test(f)) {
        continue;
      }
      if (instance.rel_of(f) != rel ||
          !RowsEqualOn(fp_row, instance.row(f), second)) {
        continue;
      }
      size_t right = nodes.Get(f_prime, /*left=*/false);
      size_t left = nodes.Get(f_prime, /*left=*/true);
      auto key = std::make_pair(right, left);
      if (!g.backward_witness.count(key)) {
        g.backward_witness.emplace(key, f_prime);
        g.graph.AddEdge(right, left);
      }
      break;  // one backward edge per f′ suffices (same endpoints anyway)
    }
  }
  return g;
}

KeyedImprovementGraph BuildImprovementGraph(
    const Instance& instance, const PriorityRelation& pr, RelId rel,
    AttrSet first_key, AttrSet second_key, const DynamicBitset& j) {
  return BuildImprovementGraph(instance, pr, first_key, second_key,
                               instance.facts_of(rel), j);
}

namespace {

// Turns a cycle of G^{first,second}_J into the global improvement
// (J \ F) ∪ F′ of Lemma 4.4.
DynamicBitset ImprovementFromCycle(const KeyedImprovementGraph& g,
                                   const std::vector<size_t>& cycle,
                                   const DynamicBitset& j) {
  DynamicBitset out = j;
  size_t k = cycle.size();
  for (size_t i = 0; i < k; ++i) {
    size_t u = cycle[i];
    size_t v = cycle[(i + 1) % k];
    if (g.is_left[u]) {
      // Forward edge u → v: remove the J-fact of this left node.
      PREFREP_CHECK_MSG(g.left_fact[u] != kInvalidFactId,
                        "a left node on a cycle must carry its J-fact");
      out.reset(g.left_fact[u]);
    } else {
      // Backward edge u → v: add its witness fact.
      auto it = g.backward_witness.find({u, v});
      PREFREP_CHECK_MSG(it != g.backward_witness.end(),
                        "cycle uses an unknown backward edge");
      out.set(it->second);
    }
  }
  return out;
}

}  // namespace

CheckResult CheckGlobalOptimalTwoKeys(const ConflictGraph& cg,
                                      const PriorityRelation& pr,
                                      AttrSet key1, AttrSet key2,
                                      const std::vector<FactId>& facts,
                                      const DynamicBitset& j) {
  const Instance& instance = cg.instance();

  // Reject inconsistent J (not a repair, hence not globally-optimal).
  for (FactId f : facts) {
    if (!j.test(f)) {
      continue;
    }
    for (FactId g : cg.neighbors(f)) {
      if (g > f && j.test(g)) {
        return CheckResult::NotOptimalNoWitness();
      }
    }
  }

  // Step 1 of GRepCheck2Keys: a Pareto improvement (this also catches a
  // non-maximal J).  Restrict attention to the listed facts: a Pareto
  // improvement through a fact of another relation or block is invisible
  // to this sub-problem and is handled by its own check.
  for (FactId g : facts) {
    if (j.test(g)) {
      continue;
    }
    bool improves = true;
    for (FactId f : cg.neighbors(g)) {
      if (j.test(f) && !pr.Prefers(g, f)) {
        improves = false;
        break;
      }
    }
    if (improves) {
      DynamicBitset improvement = j;
      for (FactId f : cg.neighbors(g)) {
        if (j.test(f)) {
          improvement.reset(f);
        }
      }
      improvement.set(g);
      return CheckResult::NotOptimal(
          std::move(improvement),
          "Pareto improvement through " + instance.FactToString(g));
    }
  }

  // Step 2: cycles in G12_J and G21_J.
  KeyedImprovementGraph g12 =
      BuildImprovementGraph(instance, pr, key1, key2, facts, j);
  if (auto cycle = g12.graph.FindCycle()) {
    return CheckResult::NotOptimal(ImprovementFromCycle(g12, *cycle, j),
                                   "cycle in G12_J");
  }
  KeyedImprovementGraph g21 =
      BuildImprovementGraph(instance, pr, key2, key1, facts, j);
  if (auto cycle = g21.graph.FindCycle()) {
    return CheckResult::NotOptimal(ImprovementFromCycle(g21, *cycle, j),
                                   "cycle in G21_J");
  }
  return CheckResult::Optimal();
}

CheckResult CheckGlobalOptimalTwoKeys(const ConflictGraph& cg,
                                      const PriorityRelation& pr, RelId rel,
                                      AttrSet key1, AttrSet key2,
                                      const DynamicBitset& j) {
  return CheckGlobalOptimalTwoKeys(cg, pr, key1, key2,
                                   cg.instance().facts_of(rel), j);
}

}  // namespace prefrep

// Tests for priority relations: acyclicity, conflict-bounded validation
// (§2.3) vs cross-conflict relaxation (§7), and adjacency queries.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "base/random.h"
#include "priority/priority.h"
#include "test_util.h"

namespace prefrep {
namespace {

using testing_util::ProblemSpec;

PreferredRepairProblem ThreeConflicting() {
  ProblemSpec spec;
  spec.arity = 2;
  spec.fds = {"1 -> 2"};
  spec.facts = {"a: k, 1", "b: k, 2", "c: k, 3", "z: m, 1"};
  return testing_util::MakeProblem(spec);
}

TEST(PriorityTest, AddAndQuery) {
  PreferredRepairProblem p = ThreeConflicting();
  const Instance& inst = *p.instance;
  FactId a = inst.FindLabel("a"), b = inst.FindLabel("b"),
         c = inst.FindLabel("c");
  EXPECT_TRUE(p.priority->Add(a, b).ok());
  EXPECT_TRUE(p.priority->Add(a, c).ok());
  EXPECT_TRUE(p.priority->Prefers(a, b));
  EXPECT_FALSE(p.priority->Prefers(b, a));
  EXPECT_EQ(p.priority->Dominates(a).size(), 2u);
  EXPECT_EQ(p.priority->DominatedBy(b), std::vector<FactId>{a});
  // Duplicate edges are no-ops.
  EXPECT_TRUE(p.priority->Add(a, b).ok());
  EXPECT_EQ(p.priority->num_edges(), 2u);
}

TEST(PriorityTest, EdgeIndexTracksAddsAndRemovals) {
  // The flat edge index against a reference set, through index growth
  // and the backward shifts of many removals.
  Schema schema = Schema::SingleRelation("R", 1, {});
  Instance inst(&schema);
  constexpr FactId kFacts = 40;
  for (FactId f = 0; f < kFacts; ++f) {
    inst.MustAddFact("R", {"v" + std::to_string(f)});
  }
  PriorityRelation pr(&inst);
  std::set<std::pair<FactId, FactId>> expected;
  std::vector<std::pair<FactId, FactId>> order;
  Rng rng(7);
  for (int op = 0; op < 3000; ++op) {
    const FactId f = static_cast<FactId>(rng.NextBounded(kFacts));
    if (rng.NextBounded(8) == 0) {
      auto touches = [f](const std::pair<FactId, FactId>& e) {
        return e.first == f || e.second == f;
      };
      const size_t before = order.size();
      order.erase(std::remove_if(order.begin(), order.end(), touches),
                  order.end());
      std::erase_if(expected, touches);
      ASSERT_EQ(pr.RemoveEdgesTouching(f), before - order.size());
    } else {
      const FactId g = static_cast<FactId>(rng.NextBounded(kFacts));
      if (f == g) {
        continue;
      }
      ASSERT_TRUE(pr.Add(f, g).ok());
      if (expected.insert({f, g}).second) {
        order.emplace_back(f, g);
      }
    }
    ASSERT_EQ(pr.edges(), order) << "after op " << op;
    for (FactId x = 0; x < kFacts; ++x) {
      for (FactId y = 0; y < kFacts; ++y) {
        ASSERT_EQ(pr.Prefers(x, y), expected.count({x, y}) > 0)
            << x << " > " << y << " after op " << op;
      }
    }
  }
  EXPECT_GT(order.size(), 100u);
}

TEST(PriorityTest, SelfLoopRejected) {
  PreferredRepairProblem p = ThreeConflicting();
  FactId a = p.instance->FindLabel("a");
  EXPECT_FALSE(p.priority->Add(a, a).ok());
}

TEST(PriorityTest, OutOfRangeRejected) {
  PreferredRepairProblem p = ThreeConflicting();
  EXPECT_FALSE(p.priority->Add(0, 99).ok());
  EXPECT_FALSE(p.priority->AddByLabels("a", "nope").ok());
  EXPECT_FALSE(p.priority->AddByLabels("nope", "a").ok());
}

TEST(PriorityTest, AcyclicityDetection) {
  PreferredRepairProblem p = ThreeConflicting();
  const Instance& inst = *p.instance;
  FactId a = inst.FindLabel("a"), b = inst.FindLabel("b"),
         c = inst.FindLabel("c");
  p.priority->MustAdd(a, b);
  p.priority->MustAdd(b, c);
  EXPECT_TRUE(p.priority->IsAcyclic());
  p.priority->MustAdd(c, a);  // closes a 3-cycle
  EXPECT_FALSE(p.priority->IsAcyclic());
  EXPECT_FALSE(p.priority->Validate(PriorityMode::kConflictOnly).ok());
  EXPECT_FALSE(p.priority->Validate(PriorityMode::kCrossConflict).ok());
}

TEST(PriorityTest, ConflictBoundedValidation) {
  PreferredRepairProblem p = ThreeConflicting();
  const Instance& inst = *p.instance;
  FactId a = inst.FindLabel("a"), z = inst.FindLabel("z");
  // a and z do not conflict (different keys): the edge is legal only in
  // cross-conflict mode.
  p.priority->MustAdd(a, z);
  EXPECT_TRUE(p.priority->IsAcyclic());
  EXPECT_FALSE(p.priority->IsConflictBounded());
  EXPECT_FALSE(p.priority->Validate(PriorityMode::kConflictOnly).ok());
  EXPECT_TRUE(p.priority->Validate(PriorityMode::kCrossConflict).ok());
}

TEST(PriorityTest, EmptyPriorityValidInBothModes) {
  PreferredRepairProblem p = ThreeConflicting();
  EXPECT_TRUE(p.priority->Validate(PriorityMode::kConflictOnly).ok());
  EXPECT_TRUE(p.priority->Validate(PriorityMode::kCrossConflict).ok());
}

}  // namespace
}  // namespace prefrep

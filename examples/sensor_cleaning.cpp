// Timestamp-based cleaning — the paper's second motivating scenario
// ("timestamp information implies that a more recent fact should be
// preferred over an earlier one").
//
// A fleet of sensors reports Reading(sensor, window, value) where each
// sensor must report one value per window ({1,2} → 3), and sensors are
// registered at one site in Site(sensor, site) with conflicting
// registrations resolved towards the most recent one (two keys: a
// sensor has one site; here each site also hosts one sensor).
//
// The demo ingests an out-of-order stream, prefers later arrivals among
// conflicting facts, and compares the "keep the last write" state
// against the globally-optimal repairs.
//
// Run: ./build/examples/sensor_cleaning

#include <cstdio>
#include <string>
#include <vector>

#include "conflicts/conflicts.h"
#include "repair/subinstance_ops.h"
#include "model/problem.h"
#include "repair/block_solver.h"
#include "repair/checker.h"

using namespace prefrep;

namespace {

struct Arrival {
  int timestamp;
  std::string relation;
  std::vector<std::string> values;
};

}  // namespace

int main() {
  Schema schema;
  RelId reading = schema.MustAddRelation("Reading", 3);
  RelId site = schema.MustAddRelation("Site", 2);
  schema.MustAddFd(reading, FD(AttrSet{1, 2}, AttrSet{3}));  // single fd
  schema.MustAddFd(site, FD(AttrSet{1}, AttrSet{2}));        // two keys
  schema.MustAddFd(site, FD(AttrSet{2}, AttrSet{1}));

  std::vector<Arrival> stream = {
      {1, "Site", {"s1", "roof"}},
      {2, "Site", {"s2", "basement"}},
      {3, "Reading", {"s1", "w1", "21.5"}},
      {4, "Reading", {"s2", "w1", "18.0"}},
      {5, "Reading", {"s1", "w1", "21.9"}},   // correction of t=3
      {6, "Site", {"s1", "basement"}},        // s1 moved; clashes with s2
      {7, "Reading", {"s2", "w2", "18.4"}},
      {8, "Reading", {"s1", "w2", "22.0"}},
      {9, "Site", {"s2", "roof"}},            // swap completed
  };

  PreferredRepairProblem problem(std::move(schema));
  Instance& inst = *problem.instance;
  std::vector<int> arrived_at;
  for (const Arrival& a : stream) {
    std::string label = "t" + std::to_string(a.timestamp);
    FactId id = inst.MustAddFact(a.relation, a.values, label);
    if (arrived_at.size() <= id) {
      arrived_at.resize(id + 1, 0);
    }
    arrived_at[id] = a.timestamp;
  }

  // Later conflicting facts are preferred.
  problem.InitPriority();
  for (FactId f = 0; f < inst.num_facts(); ++f) {
    for (FactId g = 0; g < inst.num_facts(); ++g) {
      if (f != g && FactsConflict(inst, f, g) &&
          arrived_at[f] > arrived_at[g]) {
        problem.priority->MustAdd(f, g);
      }
    }
  }

  RepairChecker checker(inst, *problem.priority);
  const ConflictGraph& cg = checker.conflict_graph();
  std::printf("%zu facts, %zu conflicting pairs; schema tractable: %s\n\n",
              inst.num_facts(), cg.num_edges(),
              checker.SchemaIsTractable() ? "yes" : "no");

  // Strategy 1 — last-writer-wins: keep each fact unless a later
  // conflicting fact exists.
  DynamicBitset lww = inst.AllFacts();
  for (FactId f = 0; f < inst.num_facts(); ++f) {
    for (FactId g : cg.neighbors(f)) {
      if (arrived_at[g] > arrived_at[f]) {
        lww.reset(f);
      }
    }
  }
  // Strategy 2 — keep the earliest facts instead.
  DynamicBitset stale = inst.AllFacts();
  for (FactId f = 0; f < inst.num_facts(); ++f) {
    for (FactId g : cg.neighbors(f)) {
      if (arrived_at[g] < arrived_at[f]) {
        stale.reset(f);
      }
    }
  }

  for (auto& [name, state] :
       std::vector<std::pair<std::string, DynamicBitset*>>{
           {"last-writer-wins", &lww}, {"first-writer-wins", &stale}}) {
    // The strategies may leave a non-maximal state; extend first.
    DynamicBitset candidate = ExtendToRepair(cg, *state);
    auto outcome = checker.CheckGloballyOptimal(candidate);
    std::printf("state '%s': %s\n", name.c_str(),
                inst.SubinstanceToString(candidate).c_str());
    std::printf("  globally-optimal: %s\n",
                outcome.ok() && outcome->result.optimal ? "yes" : "no");
    if (outcome.ok() && !outcome->result.optimal &&
        outcome->result.witness.has_value()) {
      std::printf("  cleaner state: %s\n",
                  inst.SubinstanceToString(
                          outcome->result.witness->improvement)
                      .c_str());
    }
  }

  std::printf("\nall globally-optimal cleanings:\n");
  for (const DynamicBitset& j :
       AllOptimalRepairs(checker.context(), RepairSemantics::kGlobal)) {
    std::printf("  %s\n", inst.SubinstanceToString(j).c_str());
  }
  return 0;
}

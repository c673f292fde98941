// Data fusion across sources of different reliability — the paper's
// first motivating scenario ("one source is regarded to be more
// reliable than another").
//
// We integrate customer records from three sources (crm > billing >
// legacy import) into one Customer(id, email, city) relation with the
// key id → {email, city}.  Conflicting facts are prioritized by source
// reliability; globally-optimal repairs are exactly the "trust the most
// reliable source, fall back when it is silent" fusions, and the demo
// shows repair checking both accepting and rejecting fusions.
//
// Run: ./build/examples/data_fusion

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "conflicts/conflicts.h"
#include "model/problem.h"
#include "repair/block_solver.h"
#include "repair/checker.h"

using namespace prefrep;

namespace {

struct SourcedFact {
  std::string source;  // "crm", "billing", "legacy"
  std::string id, email, city;
};

}  // namespace

int main() {
  Schema schema;
  RelId customer = schema.MustAddRelation("Customer", 3);
  // id determines the whole record: a primary key.
  schema.MustAddFd(customer, FD(AttrSet{1}, AttrSet{1, 2, 3}));

  std::vector<SourcedFact> feed = {
      {"legacy", "c1", "ada@old-mail.org", "Zurich"},
      {"billing", "c1", "ada@pay.example", "Zurich"},
      {"crm", "c1", "ada@example.com", "Bern"},
      {"legacy", "c2", "bob@old-mail.org", "Geneva"},
      {"billing", "c2", "bob@pay.example", "Lausanne"},
      {"crm", "c3", "cleo@example.com", "Basel"},
      {"legacy", "c4", "dan@old-mail.org", "Lugano"},
  };
  std::map<std::string, int> reliability = {
      {"crm", 3}, {"billing", 2}, {"legacy", 1}};

  PreferredRepairProblem problem(std::move(schema));
  Instance& inst = *problem.instance;
  std::vector<std::string> source_of;
  for (size_t i = 0; i < feed.size(); ++i) {
    const SourcedFact& f = feed[i];
    std::string label = f.source + ":" + f.id;
    inst.MustAddFact("Customer", {f.id, f.email, f.city}, label);
    source_of.push_back(f.source);
  }

  // Priority: between conflicting facts, the more reliable source wins.
  problem.InitPriority();
  for (FactId f = 0; f < inst.num_facts(); ++f) {
    for (FactId g = 0; g < inst.num_facts(); ++g) {
      if (f != g && FactsConflict(inst, f, g) &&
          reliability[source_of[f]] > reliability[source_of[g]]) {
        problem.priority->MustAdd(f, g);
      }
    }
  }

  RepairChecker checker(inst, *problem.priority);
  std::printf("Customer feed: %zu facts, %zu conflicts, schema is %s\n\n",
              inst.num_facts(), checker.conflict_graph().num_edges(),
              checker.SchemaIsTractable() ? "tractable (single key)"
                                          : "coNP-complete");

  // Candidate fusion A: always trust the most reliable available source.
  DynamicBitset best = inst.SubinstanceByLabels(
      {"crm:c1", "billing:c2", "crm:c3", "legacy:c4"});
  // Candidate fusion B: the legacy import wherever it has a record.
  DynamicBitset legacy_first = inst.SubinstanceByLabels(
      {"legacy:c1", "legacy:c2", "crm:c3", "legacy:c4"});

  for (auto& [name, j] :
       std::vector<std::pair<std::string, DynamicBitset*>>{
           {"reliability-first", &best}, {"legacy-first", &legacy_first}}) {
    auto outcome = checker.CheckGloballyOptimal(*j);
    std::printf("fusion '%s' = %s\n", name.c_str(),
                inst.SubinstanceToString(*j).c_str());
    if (!outcome.ok()) {
      std::printf("  error: %s\n", outcome.status().ToString().c_str());
      continue;
    }
    std::printf("  globally-optimal: %s\n",
                outcome->result.optimal ? "yes" : "no");
    if (!outcome->result.optimal && outcome->result.witness.has_value()) {
      std::printf("  better fusion: %s\n",
                  inst.SubinstanceToString(
                          outcome->result.witness->improvement)
                      .c_str());
    }
  }

  // With a single key per relation, priorities define a unique optimal
  // fusion exactly when every conflict set has a top element; enumerate
  // to confirm.
  std::vector<DynamicBitset> optimal =
      AllOptimalRepairs(checker.context(), RepairSemantics::kGlobal);
  std::printf("\n%zu globally-optimal fusion(s):\n", optimal.size());
  for (const DynamicBitset& j : optimal) {
    std::printf("  %s\n", inst.SubinstanceToString(j).c_str());
  }
  return 0;
}

// Cleaning inconsistencies in information extraction — the application
// that motivated preferred repairs in Fagin, Kimelfeld, Reiss and
// Vansummeren (PODS 2014), cited in the paper's introduction: rule-based
// extractors emit overlapping/contradictory annotations, and cleaning
// strategies of systems like SystemT are captured by prioritized
// repairs.
//
// Model: Mention(doc_pos, type) — each document position carries at most
// one entity type (fd 1 → 2).  Extractors disagree; priorities encode
// the cleaning policy "dictionary matches beat regex matches, longer
// rules beat shorter ones".  The globally-optimal repairs are exactly
// the cleanings the policy sanctions.
//
// Run: ./build/examples/span_cleaning

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "classify/categoricity.h"
#include "conflicts/conflicts.h"
#include "model/problem.h"
#include "repair/checker.h"

using namespace prefrep;

namespace {

struct Annotation {
  std::string extractor;  // "dict", "regex_long", "regex_short"
  std::string position;   // e.g. "doc1:17"
  std::string type;       // "PERSON", "ORG", ...
};

}  // namespace

int main() {
  Schema schema;
  RelId mention = schema.MustAddRelation("Mention", 2);
  schema.MustAddFd(mention, FD(AttrSet{1}, AttrSet{2}));

  // Extraction output over two documents (disagreements at doc1:17 and
  // doc2:03).
  std::vector<Annotation> annotations = {
      {"dict", "doc1:17", "PERSON"},
      {"regex_long", "doc1:17", "ORG"},
      {"regex_short", "doc1:17", "LOC"},
      {"regex_long", "doc1:42", "DATE"},
      {"regex_long", "doc2:03", "ORG"},
      {"regex_short", "doc2:03", "PERSON"},
      {"dict", "doc2:90", "LOC"},
  };
  std::map<std::string, int> strength = {
      {"dict", 3}, {"regex_long", 2}, {"regex_short", 1}};

  PreferredRepairProblem problem(std::move(schema));
  Instance& inst = *problem.instance;
  std::vector<std::string> extractor_of;
  for (const Annotation& a : annotations) {
    std::string label = a.extractor + "@" + a.position;
    inst.MustAddFact("Mention", {a.position, a.type}, label);
    extractor_of.push_back(a.extractor);
  }
  problem.InitPriority();
  for (FactId f = 0; f < inst.num_facts(); ++f) {
    for (FactId g = 0; g < inst.num_facts(); ++g) {
      if (f != g && FactsConflict(inst, f, g) &&
          strength[extractor_of[f]] > strength[extractor_of[g]]) {
        problem.priority->MustAdd(f, g);
      }
    }
  }

  RepairChecker checker(inst, *problem.priority);
  std::printf("annotations: %zu, contradictions: %zu\n",
              inst.num_facts(), checker.conflict_graph().num_edges());

  // The policy induces a total priority on every contradiction here, so
  // the cleaning is unambiguous: categoricity decides every block in
  // polynomial time.
  const CategoricityResult unique =
      DecideCategoricity(checker.context(), RepairSemantics::kGlobal);
  if (unique.verdict == Categoricity::kCategorical) {
    std::printf("policy gives an unambiguous cleaning:\n  %s\n",
                inst.SubinstanceToString(unique.repair).c_str());
    auto outcome = checker.CheckGloballyOptimal(unique.repair);
    std::printf("checker confirms optimality: %s\n",
                outcome.ok() && outcome->result.optimal ? "yes" : "no");
  } else {
    std::printf("policy leaves ambiguity (categoricity: %s)\n",
                CategoricityName(unique.verdict));
  }

  // An ad-hoc cleaning that keeps the *first* annotation per position —
  // what a naive pipeline might do — is rejected with a better cleaning.
  DynamicBitset naive = inst.AllFacts();
  for (FactId f = 0; f < inst.num_facts(); ++f) {
    for (FactId g : checker.conflict_graph().neighbors(f)) {
      if (g < f) {
        naive.reset(f);
      }
    }
  }
  auto outcome = checker.CheckGloballyOptimal(naive);
  std::printf("\nnaive first-wins cleaning %s\n",
              inst.SubinstanceToString(naive).c_str());
  if (outcome.ok() && !outcome->result.optimal &&
      outcome->result.witness.has_value()) {
    std::printf("rejected; policy-sanctioned cleaning: %s\n",
                inst.SubinstanceToString(outcome->result.witness->improvement)
                    .c_str());
  } else {
    std::printf("accepted (it coincides with the policy's cleaning)\n");
  }
  return 0;
}

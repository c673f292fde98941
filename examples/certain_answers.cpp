// Consistent query answering under preferred repairs — the open problem
// the paper points to (§8).  This demo shows how priorities sharpen
// query answers: a hospital merges two patient-record systems, and the
// classical consistent answers (all repairs) lose disputed facts, while
// preferred-repair answers keep exactly what the priorities justify.
//
// Run: ./build/examples/certain_answers

#include <cstdio>

#include "conflicts/conflicts.h"
#include "model/problem.h"
#include "query/consistent_answers.h"

using namespace prefrep;

namespace {

void PrintAnswers(const char* title,
                  const std::vector<ConjunctiveQuery::AnswerTuple>& answers) {
  std::printf("%s (%zu):\n", title, answers.size());
  for (const auto& tuple : answers) {
    std::printf("  (");
    for (size_t i = 0; i < tuple.size(); ++i) {
      std::printf("%s%s", i ? ", " : "", tuple[i].c_str());
    }
    std::printf(")\n");
  }
}

}  // namespace

int main() {
  // Patient(id, ward) — a patient is in one ward; Allergy(id, drug) —
  // free of FDs (allergies accumulate, no conflicts).
  Schema schema;
  RelId patient = schema.MustAddRelation("Patient", 2);
  schema.MustAddRelation("Allergy", 2);
  schema.MustAddFd(patient, FD(AttrSet{1}, AttrSet{2}));

  PreferredRepairProblem problem(std::move(schema));
  Instance& inst = *problem.instance;
  // The two systems disagree about p1's ward; system A is authoritative.
  inst.MustAddFact("Patient", {"p1", "cardiology"}, "sysA:p1");
  inst.MustAddFact("Patient", {"p1", "oncology"}, "sysB:p1");
  inst.MustAddFact("Patient", {"p2", "neurology"}, "sysB:p2");
  inst.MustAddFact("Allergy", {"p1", "penicillin"});
  inst.MustAddFact("Allergy", {"p2", "ibuprofen"});

  problem.InitPriority();
  PREFREP_CHECK(problem.priority->AddByLabels("sysA:p1", "sysB:p1").ok());

  const ProblemContext ctx(inst, *problem.priority);
  std::printf("facts: %zu, conflicts: %zu\n\n", inst.num_facts(),
              ctx.conflict_graph().num_edges());

  auto ward_query = ConjunctiveQuery::Parse("Q(id, ward) :- Patient(id, ward)");
  PREFREP_CHECK(ward_query.ok());
  PrintAnswers("classical consistent answers (all repairs)",
               ConsistentAnswers(ctx, *ward_query,
                                 AnswerSemantics::kAllRepairs));
  PrintAnswers("\nglobally-optimal repair answers",
               ConsistentAnswers(ctx, *ward_query, AnswerSemantics::kGlobal));

  // A join: which allergies matter on each ward?
  auto join = ConjunctiveQuery::Parse(
      "Q(ward, drug) :- Patient(id, ward), Allergy(id, drug)");
  PREFREP_CHECK(join.ok());
  PrintAnswers("\nward-level allergy list (classical)",
               ConsistentAnswers(ctx, *join, AnswerSemantics::kAllRepairs));
  PrintAnswers("ward-level allergy list (globally-optimal)",
               ConsistentAnswers(ctx, *join, AnswerSemantics::kGlobal));

  // Boolean certainty.
  auto boolean = ConjunctiveQuery::Parse(
      "Q() :- Patient(\"p1\", \"cardiology\")");
  PREFREP_CHECK(boolean.ok());
  std::printf("\n'p1 in cardiology' certainly true classically: %s\n",
              CertainlyTrue(ctx, *boolean, AnswerSemantics::kAllRepairs)
                  ? "yes"
                  : "no");
  std::printf("'p1 in cardiology' certainly true under preferences: %s\n",
              CertainlyTrue(ctx, *boolean, AnswerSemantics::kGlobal)
                  ? "yes"
                  : "no");
  return 0;
}

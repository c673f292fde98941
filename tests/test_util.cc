#include "test_util.h"

#include "base/string_util.h"

namespace prefrep {
namespace testing_util {

PreferredRepairProblem MakeProblem(const ProblemSpec& spec) {
  Schema schema;
  schema.MustAddRelation("R", spec.arity);
  for (const std::string& fd : spec.fds) {
    schema.MustAddFdParsed(fd);
  }
  PreferredRepairProblem problem(std::move(schema));
  for (const std::string& fact : spec.facts) {
    size_t colon = fact.find(':');
    PREFREP_CHECK_MSG(colon != std::string::npos,
                      "fact spec needs 'label: values'");
    std::string label(StripAsciiWhitespace(fact.substr(0, colon)));
    std::vector<std::string> values =
        StrSplitTrimmed(fact.substr(colon + 1), ',');
    problem.instance->MustAddFact("R", values, label);
  }
  problem.InitPriority();
  for (const std::string& edge : spec.priorities) {
    size_t gt = edge.find('>');
    PREFREP_CHECK_MSG(gt != std::string::npos,
                      "priority spec needs 'higher > lower'");
    std::string higher(StripAsciiWhitespace(edge.substr(0, gt)));
    std::string lower(StripAsciiWhitespace(edge.substr(gt + 1)));
    PREFREP_CHECK(problem.priority->AddByLabels(higher, lower).ok());
  }
  problem.j = problem.instance->EmptySubinstance();
  return problem;
}

DynamicBitset Sub(const Instance& instance,
                  const std::vector<std::string>& labels) {
  return instance.SubinstanceByLabels(labels);
}

DynamicBitset ListBits(const std::vector<FactId>& facts, size_t num_facts) {
  DynamicBitset bits(num_facts);
  for (FactId f : facts) {
    bits.set(f);
  }
  return bits;
}

std::string VerifyWitness(const ConflictGraph& cg, const PriorityRelation& pr,
                          const DynamicBitset& j, const CheckResult& result) {
  if (result.optimal || !result.witness.has_value()) {
    return "";
  }
  if (!IsGlobalImprovement(cg, pr, j, result.witness->improvement)) {
    return "witness is not a global improvement (" +
           result.witness->explanation + "); witness = " +
           cg.instance().SubinstanceToString(result.witness->improvement);
  }
  return "";
}

}  // namespace testing_util
}  // namespace prefrep

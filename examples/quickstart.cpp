// Quickstart: the paper's running example, end to end.
//
// Builds the BookLoc/LibLoc instance of Figure 1 with the priority of
// Example 2.3, then walks through the notions of the paper: conflicts,
// repairs, Pareto/global/completion optimality, the dichotomy
// classification, and witness extraction for a non-optimal repair.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "classify/dichotomy.h"
#include "gen/running_example.h"
#include "repair/block_solver.h"
#include "repair/checker.h"

using namespace prefrep;

int main() {
  // 1. The inconsistent prioritizing instance (I, ≻) of the paper.
  PreferredRepairProblem problem = RunningExampleProblem();
  const Instance& inst = *problem.instance;
  std::printf("schema:\n%s\n", inst.schema().ToString().c_str());
  std::printf("I has %zu facts; the priority has %zu edges\n\n",
              inst.num_facts(), problem.priority->num_edges());

  // 2. Which side of the dichotomy of Theorem 3.1 is this schema on?
  SchemaClassification classification = ClassifySchema(inst.schema());
  for (RelId r = 0; r < inst.schema().num_relations(); ++r) {
    std::printf("%-8s: %s (%s)\n",
                inst.schema().relation_name(r).c_str(),
                TractableKindName(classification.relations[r].kind),
                classification.relations[r].explanation.c_str());
  }
  std::printf("=> globally-optimal repair checking is %s here\n\n",
              classification.tractable ? "polynomial" : "coNP-complete");

  // 3. Check the four candidate repairs of Example 2.5.
  RepairChecker checker(inst, *problem.priority);
  for (int i = 1; i <= 4; ++i) {
    DynamicBitset j = RunningExampleJ(inst, i);
    bool pareto = checker.CheckParetoOptimal(j).optimal;
    bool completion = checker.CheckCompletionOptimal(j).optimal;
    auto global = checker.CheckGloballyOptimal(j);
    std::printf("J%d = %s\n", i, inst.SubinstanceToString(j).c_str());
    std::printf("    repair=%s pareto=%s global=%s completion=%s\n",
                checker.IsRepair(j) ? "yes" : "no", pareto ? "yes" : "no",
                global.ok() && global->result.optimal ? "yes" : "no",
                completion ? "yes" : "no");
    if (global.ok() && !global->result.optimal &&
        global->result.witness.has_value()) {
      std::printf("    improvement: %s\n        (%s)\n",
                  inst.SubinstanceToString(
                          global->result.witness->improvement)
                      .c_str(),
                  global->result.witness->explanation.c_str());
    }
    for (const std::string& step : global.ok() ? global->route
                                               : std::vector<std::string>{}) {
      std::printf("    route: %s\n", step.c_str());
    }
  }

  // 4. Count the repairs under each preferred-repair semantics.
  const ProblemContext& ctx = checker.context();
  std::printf("\nrepairs: %llu total, %zu globally-optimal, %zu "
              "Pareto-optimal, %zu completion-optimal\n",
              static_cast<unsigned long long>(
                  CountRepairs(ctx.conflict_graph())),
              AllOptimalRepairs(ctx, RepairSemantics::kGlobal).size(),
              AllOptimalRepairs(ctx, RepairSemantics::kPareto).size(),
              AllOptimalRepairs(ctx, RepairSemantics::kCompletion).size());
  return 0;
}

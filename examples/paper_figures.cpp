// paper_figures — regenerates the paper's figures as Graphviz files.
//
//   Figure 1  the running-example instance  → figure1_instance.dot
//             (conflict graph + priorities, J2 highlighted)
//   Figure 3  G12_J and G21_J for J = {d1a, f2b, f3c} on LibLoc
//             → figure3_g12.dot, figure3_g21.dot
//   Figure 5  the Lemma 5.2 instance for K2 → figure5_reduction.dot
//   Figure 6  G_{J,I\J} for Example 7.2 → figure6_ccp.dot
//
// Render with: dot -Tsvg figure3_g21.dot > figure3_g21.svg
//
// Usage: ./build/examples/paper_figures [output-dir]
// Exits 1 when any figure could not be written.

#include <cstdio>
#include <fstream>
#include <string>

#include "gen/running_example.h"
#include "graph/undirected.h"
#include "io/dot_export.h"
#include "reductions/hc_to_s1.h"

using namespace prefrep;

namespace {

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), content.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir = argc > 1 ? argv[1] : ".";
  bool all_written = true;

  // Figure 1: the running-example instance, J2 highlighted.
  PreferredRepairProblem running = RunningExampleProblem();
  ConflictGraph cg(*running.instance);
  DynamicBitset j2 = RunningExampleJ(*running.instance, 2);
  all_written &= WriteFile(dir + "/figure1_instance.dot",
                           ConflictGraphToDot(cg, *running.priority, j2));

  // Figure 3: G12_J and G21_J for J = {d1a, f2b, f3c} on LibLoc.
  RelId lib_loc = running.instance->schema().FindRelation("LibLoc");
  DynamicBitset j =
      running.instance->SubinstanceByLabels({"d1a", "f2b", "f3c"});
  KeyedImprovementGraph g12 = BuildImprovementGraph(
      *running.instance, *running.priority, lib_loc, AttrSet{1}, AttrSet{2},
      j);
  KeyedImprovementGraph g21 = BuildImprovementGraph(
      *running.instance, *running.priority, lib_loc, AttrSet{2}, AttrSet{1},
      j);
  all_written &= WriteFile(dir + "/figure3_g12.dot",
                           ImprovementGraphToDot(g12, "G12"));
  all_written &= WriteFile(dir + "/figure3_g21.dot",
                           ImprovementGraphToDot(g21, "G21"));

  // Figure 5: the reduction instance for K2.
  UndirectedGraph k2(2);
  k2.AddEdge(0, 1);
  PreferredRepairProblem reduced = ReduceHamiltonianCycleToS1(k2);
  ConflictGraph reduced_cg(*reduced.instance);
  all_written &=
      WriteFile(dir + "/figure5_reduction.dot",
                ConflictGraphToDot(reduced_cg, *reduced.priority, reduced.j));

  // Figure 6: the ccp graph of Example 7.2.
  Schema schema = Schema::SingleRelation("R", 2, {FD(AttrSet{1}, AttrSet{2})});
  PreferredRepairProblem ccp(std::move(schema));
  Instance& inst = *ccp.instance;
  inst.MustAddFact("R", {"0", "1"}, "f01");
  inst.MustAddFact("R", {"0", "2"}, "f02");
  inst.MustAddFact("R", {"0", "c"}, "f0c");
  inst.MustAddFact("R", {"1", "a"}, "f1a");
  inst.MustAddFact("R", {"1", "b"}, "f1b");
  inst.MustAddFact("R", {"1", "3"}, "f13");
  ccp.InitPriority();
  PREFREP_CHECK(ccp.priority->AddByLabels("f0c", "f1b").ok());
  PREFREP_CHECK(ccp.priority->AddByLabels("f13", "f02").ok());
  PREFREP_CHECK(ccp.priority->AddByLabels("f02", "f01").ok());
  ConflictGraph ccp_cg(inst);
  all_written &= WriteFile(dir + "/figure6_ccp.dot",
                           CcpGraphToDot(ccp_cg, *ccp.priority,
                                         inst.SubinstanceByLabels(
                                             {"f02", "f1b"})));
  return all_written ? 0 : 1;
}

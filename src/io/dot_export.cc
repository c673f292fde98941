#include "io/dot_export.h"

#include "conflicts/blocks.h"
#include "repair/ccp_primary_key.h"

namespace prefrep {

namespace {

// DOT string literal with basic escaping.
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  out += '"';
  return out;
}

std::string NodeName(const Instance& inst, FactId f) {
  const std::string& label = inst.label(f);
  return label.empty() ? "f" + std::to_string(f) : label;
}

}  // namespace

std::string ConflictGraphToDot(const ConflictGraph& cg,
                               const PriorityRelation& pr,
                               const DynamicBitset& j) {
  const Instance& inst = cg.instance();
  std::string out = "digraph conflicts {\n";
  out += "  rankdir=LR;\n  node [shape=ellipse];\n";
  for (FactId f = 0; f < inst.num_facts(); ++f) {
    out += "  " + Quote(NodeName(inst, f)) + " [label=" +
           Quote(inst.FactToString(f));
    if (j.test(f)) {
      out += ", style=filled, fillcolor=lightblue";
    }
    out += "];\n";
  }
  for (const auto& [f, g] : cg.edges()) {
    out += "  " + Quote(NodeName(inst, f)) + " -> " +
           Quote(NodeName(inst, g)) + " [dir=none];\n";
  }
  for (const auto& [higher, lower] : pr.edges()) {
    out += "  " + Quote(NodeName(inst, higher)) + " -> " +
           Quote(NodeName(inst, lower)) +
           " [style=dashed, color=red, constraint=false];\n";
  }
  out += "}\n";
  return out;
}

std::string ImprovementGraphToDot(const KeyedImprovementGraph& graph,
                                  const std::string& title) {
  std::string out = "digraph " + title + " {\n  rankdir=LR;\n";
  // Two ranks: left projections, right projections.
  out += "  { rank=source;";
  for (size_t v = 0; v < graph.labels.size(); ++v) {
    if (graph.is_left[v]) {
      out += " " + Quote("L:" + graph.labels[v]) + ";";
    }
  }
  out += " }\n  { rank=sink;";
  for (size_t v = 0; v < graph.labels.size(); ++v) {
    if (!graph.is_left[v]) {
      out += " " + Quote("R:" + graph.labels[v]) + ";";
    }
  }
  out += " }\n";
  for (size_t v = 0; v < graph.labels.size(); ++v) {
    std::string name =
        (graph.is_left[v] ? "L:" : "R:") + graph.labels[v];
    out += "  " + Quote(name) + " [label=" + Quote(graph.labels[v]) +
           (graph.is_left[v] ? ", shape=box" : ", shape=ellipse") + "];\n";
  }
  for (size_t u = 0; u < graph.labels.size(); ++u) {
    std::string from = (graph.is_left[u] ? "L:" : "R:") + graph.labels[u];
    for (size_t v : graph.graph.successors(u)) {
      std::string to = (graph.is_left[v] ? "L:" : "R:") + graph.labels[v];
      bool backward = !graph.is_left[u];
      out += "  " + Quote(from) + " -> " + Quote(to) +
             (backward ? " [style=dashed, color=red]" : "") + ";\n";
    }
  }
  out += "}\n";
  return out;
}

std::string CcpGraphToDot(const ConflictGraph& cg,
                          const PriorityRelation& pr,
                          const DynamicBitset& j) {
  const Instance& inst = cg.instance();
  Digraph graph = BuildCcpPrimaryKeyGraph(cg, pr, j, AllFactIds(cg));
  std::string out = "digraph ccp {\n  rankdir=LR;\n";
  out += "  { rank=source;";
  for (FactId f = 0; f < inst.num_facts(); ++f) {
    if (j.test(f)) {
      out += " " + Quote(NodeName(inst, f)) + ";";
    }
  }
  out += " }\n";
  for (FactId f = 0; f < inst.num_facts(); ++f) {
    out += "  " + Quote(NodeName(inst, f)) + " [label=" +
           Quote(inst.FactToString(f)) +
           (j.test(f) ? ", style=filled, fillcolor=lightblue" : "") +
           "];\n";
  }
  for (size_t u = 0; u < graph.num_nodes(); ++u) {
    for (size_t v : graph.successors(u)) {
      bool priority_edge = !j.test(u);  // I\J → J edges carry ≻
      out += "  " + Quote(NodeName(inst, static_cast<FactId>(u))) + " -> " +
             Quote(NodeName(inst, static_cast<FactId>(v))) +
             (priority_edge ? " [style=dashed, color=red]" : "") + ";\n";
    }
  }
  out += "}\n";
  return out;
}

}  // namespace prefrep

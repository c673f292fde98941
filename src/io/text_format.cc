#include "io/text_format.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

#include "base/string_util.h"

namespace prefrep {

namespace {

Status LineError(size_t line_no, const std::string& message) {
  return Status::ParseError("line " + std::to_string(line_no) + ": " +
                            message);
}

// One significant line: its 1-based number and its text with the
// comment cut and surrounding whitespace stripped, viewed in place.
struct TextLine {
  size_t number;
  std::string_view text;
};

// The non-blank lines of `text`, as views into it.
std::vector<TextLine> SignificantLines(std::string_view text) {
  std::vector<TextLine> lines;
  lines.reserve(static_cast<size_t>(
                    std::count(text.begin(), text.end(), '\n')) +
                1);
  size_t line_no = 0;
  for (size_t start = 0; start <= text.size();) {
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    ++line_no;
    std::string_view line = text.substr(start, end - start);
    line = StripAsciiWhitespace(line.substr(0, line.find('#')));
    if (!line.empty()) {
      lines.push_back(TextLine{line_no, line});
    }
    start = end + 1;
  }
  return lines;
}

// Parses "Name(c1, c2, ...)" into relation name + constants, as views
// into `term`.
Status ParseFactTerm(std::string_view term, std::string_view* relation,
                     std::vector<std::string_view>* constants) {
  size_t open = term.find('(');
  if (open == std::string_view::npos || term.back() != ')') {
    return Status::ParseError("expected Name(c1, c2, ...), got '" +
                              std::string(term) + "'");
  }
  *relation = StripAsciiWhitespace(term.substr(0, open));
  StrSplitTrimmedViews(term.substr(open + 1, term.size() - open - 2), ',',
                       constants);
  if (relation->empty()) {
    return Status::ParseError("missing relation name in fact term");
  }
  if (constants->empty()) {
    return Status::ParseError("fact needs at least one constant");
  }
  return Status::OK();
}

}  // namespace

Result<PreferredRepairProblem> ParseProblemText(std::string_view text) {
  // Passes over views of `text`: schema lines first (relations, then
  // fds), then facts, then priorities and J, so declarations may appear
  // in any order.  `parts` is reused by every split.
  const std::vector<TextLine> lines = SignificantLines(text);
  std::vector<std::string_view> parts;

  Schema schema;
  // Relations first so fd lines may precede their relation declaration.
  for (const auto& [line_no, line] : lines) {
    if (StartsWith(line, "relation ")) {
      StrSplitTrimmedViews(line, ' ', &parts);
      if (parts.size() != 3) {
        return LineError(line_no, "expected 'relation <Name> <arity>'");
      }
      std::optional<uint64_t> arity = ParseUint(parts[2]);
      if (!arity.has_value() || *arity < 1 ||
          *arity > static_cast<uint64_t>(kMaxArity)) {
        return LineError(line_no,
                         "bad arity '" + std::string(parts[2]) + "'");
      }
      Result<RelId> rel =
          schema.AddRelation(std::string(parts[1]), static_cast<int>(*arity));
      if (!rel.ok()) {
        return LineError(line_no, rel.status().message());
      }
    }
  }
  for (const auto& [line_no, line] : lines) {
    if (StartsWith(line, "fd ")) {
      Status s = schema.AddFdParsed(line.substr(3));
      if (!s.ok()) {
        return LineError(line_no, s.message());
      }
    }
  }

  PreferredRepairProblem problem(std::move(schema));
  Instance& inst = *problem.instance;
  // Second pass: facts, each constant interned straight from its view.
  std::vector<ValueId> values;
  for (const auto& [line_no, line] : lines) {
    if (!StartsWith(line, "fact ")) {
      continue;
    }
    std::string_view rest = StripAsciiWhitespace(line.substr(5));
    size_t space = rest.find_first_of(" \t");
    if (space == std::string_view::npos) {
      return LineError(line_no, "expected 'fact <label> <Name>(...)'");
    }
    std::string_view relation;
    Status s = ParseFactTerm(StripAsciiWhitespace(rest.substr(space)),
                             &relation, &parts);
    if (!s.ok()) {
      return LineError(line_no, s.message());
    }
    RelId rel = inst.schema().FindRelation(relation);
    if (rel == kInvalidRelId) {
      return LineError(line_no,
                       "unknown relation '" + std::string(relation) + "'");
    }
    values.clear();
    for (std::string_view constant : parts) {
      values.push_back(inst.dict().Intern(constant));
    }
    Result<FactId> added =
        inst.AddFactValues(rel, values, rest.substr(0, space));
    if (!added.ok()) {
      return LineError(line_no, added.status().message());
    }
  }

  // Third pass: priorities and J.
  problem.InitPriority();
  problem.j = inst.EmptySubinstance();
  for (const auto& [line_no, line] : lines) {
    if (StartsWith(line, "prefer ")) {
      StrSplitTrimmedViews(line.substr(7), '>', &parts);
      if (parts.size() < 2) {
        return LineError(line_no, "expected 'prefer a > b [> c ...]'");
      }
      for (size_t i = 0; i + 1 < parts.size(); ++i) {
        Status s = problem.priority->AddByLabels(parts[i], parts[i + 1]);
        if (!s.ok()) {
          return LineError(line_no, s.message());
        }
      }
    } else if (StartsWith(line, "j ") || line == "j") {
      StrSplitTrimmedViews(line.substr(1), ' ', &parts);
      for (std::string_view label : parts) {
        FactId id = inst.FindLabel(label);
        if (id == kInvalidFactId) {
          return LineError(line_no,
                           "unknown fact label '" + std::string(label) + "'");
        }
        problem.j.set(id);
      }
    } else if (!StartsWith(line, "relation ") && !StartsWith(line, "fd ") &&
               !StartsWith(line, "fact ")) {
      return LineError(line_no,
                       "unrecognized directive: '" + std::string(line) + "'");
    }
  }
  return problem;
}

Result<PreferredRepairProblem> ParseProblemFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseProblemText(buffer.str());
}

std::string ProblemToText(const PreferredRepairProblem& problem) {
  return ProblemToText(*problem.instance, problem.priority.get(), &problem.j);
}

std::string ProblemToText(const Instance& instance,
                          const PriorityRelation* priority,
                          const DynamicBitset* j) {
  const Schema& schema = instance.schema();
  std::string out;
  for (RelId r = 0; r < schema.num_relations(); ++r) {
    out += "relation " + schema.relation_name(r) + " " +
           std::to_string(schema.arity(r)) + "\n";
    for (const FD& fd : schema.fds(r).fds()) {
      out += "fd " + schema.relation_name(r) + ": " + fd.ToString() + "\n";
    }
  }
  auto label_of = [&instance](FactId f) {
    return instance.label(f).empty() ? "f" + std::to_string(f)
                                     : instance.label(f);
  };
  for (FactId f = 0; f < instance.num_facts(); ++f) {
    const Fact& fact = instance.fact(f);
    out += "fact " + label_of(f) + " " +
           schema.relation_name(fact.rel) + "(";
    for (size_t i = 0; i < fact.values.size(); ++i) {
      if (i > 0) {
        out += ", ";
      }
      out += instance.dict().Text(fact.values[i]);
    }
    out += ")\n";
  }
  if (priority != nullptr) {
    for (const auto& [higher, lower] : priority->edges()) {
      out += "prefer " + label_of(higher) + " > " + label_of(lower) + "\n";
    }
  }
  if (j != nullptr && j->any()) {
    out += "j";
    j->ForEach([&](size_t f) {
      out += " " + label_of(static_cast<FactId>(f));
    });
    out += "\n";
  }
  return out;
}

}  // namespace prefrep

#include "io/ops_format.h"

#include <cctype>
#include <cstdlib>
#include <limits>
#include <optional>

#include "base/string_util.h"

namespace prefrep {

namespace {

std::vector<std::string> SplitWords(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() &&
           std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    size_t start = i;
    while (i < s.size() &&
           !std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    if (i > start) {
      out.emplace_back(s.substr(start, i - start));
    }
  }
  return out;
}

Status ParseSemantics(std::string_view word, bool allow_all_repairs,
                      AnswerSemantics* out) {
  if (word == "global") {
    *out = AnswerSemantics::kGlobal;
  } else if (word == "pareto") {
    *out = AnswerSemantics::kPareto;
  } else if (word == "completion") {
    *out = AnswerSemantics::kCompletion;
  } else if (word == "repairs" && allow_all_repairs) {
    *out = AnswerSemantics::kAllRepairs;
  } else {
    return Status::InvalidArgument("unknown semantics '" +
                                   std::string(word) + "'");
  }
  return Status::OK();
}

Status ParseU64(std::string_view word, uint64_t* out) {
  // ParseUint rejects overflow; the old hand-rolled loop here wrapped
  // silently, letting a 20-digit budget value round-trip as garbage
  // (found by tests/fuzz/ops_format_fuzz.cc).
  std::optional<uint64_t> value = ParseUint(word);
  if (!value.has_value()) {
    return Status::InvalidArgument("bad number '" + std::string(word) +
                                   "'");
  }
  *out = *value;
  return Status::OK();
}

// Parses "<Rel>(<c1>, <c2>, ...)" into op->relation / op->constants.
Status ParseFactTerm(std::string_view term, SessionOp* op) {
  size_t open = term.find('(');
  if (open == std::string_view::npos || term.back() != ')') {
    return Status::InvalidArgument("expected <Rel>(<c1>, ...), got '" +
                                   std::string(term) + "'");
  }
  op->relation = std::string(StripAsciiWhitespace(term.substr(0, open)));
  if (op->relation.empty()) {
    return Status::InvalidArgument("missing relation name");
  }
  std::string_view inner = term.substr(open + 1,
                                       term.size() - open - 2);
  inner = StripAsciiWhitespace(inner);
  op->constants.clear();
  if (inner.empty()) {
    return Status::InvalidArgument("facts need at least one constant");
  }
  while (!inner.empty()) {
    size_t comma = inner.find(',');
    std::string_view piece = comma == std::string_view::npos
                                 ? inner
                                 : inner.substr(0, comma);
    piece = StripAsciiWhitespace(piece);
    if (piece.empty()) {
      return Status::InvalidArgument("empty constant in fact term");
    }
    op->constants.emplace_back(piece);
    if (comma == std::string_view::npos) {
      break;
    }
    inner = inner.substr(comma + 1);
  }
  return Status::OK();
}

}  // namespace

Status SetBudgetValue(std::string_view key, std::string_view value,
                      ResourceBudget* budget) {
  uint64_t number = 0;
  Status s = ParseU64(value, &number);
  if (!s.ok()) {
    return s;
  }
  if (key == "deadline-ms") {
    // deadline_ms is signed; values above INT64_MAX would flip negative
    // and render unparseably.
    if (number > static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
      return Status::InvalidArgument("deadline-ms value out of range");
    }
    budget->deadline_ms = static_cast<int64_t>(number);
  } else if (key == "max-nodes") {
    budget->max_nodes = number;
  } else if (key == "max-block") {
    budget->max_block = static_cast<size_t>(number);
  } else {
    return Status::InvalidArgument("unknown budget key '" + std::string(key) +
                                   "'");
  }
  return Status::OK();
}

const char* SemanticsName(AnswerSemantics s) {
  switch (s) {
    case AnswerSemantics::kAllRepairs:
      return "repairs";
    case AnswerSemantics::kGlobal:
      return "global";
    case AnswerSemantics::kPareto:
      return "pareto";
    case AnswerSemantics::kCompletion:
      return "completion";
  }
  return "global";
}

Result<SessionOp> ParseSessionOp(std::string_view line) {
  std::string_view rest = StripAsciiWhitespace(line);
  size_t space = rest.find_first_of(" \t");
  std::string_view verb =
      space == std::string_view::npos ? rest : rest.substr(0, space);
  rest = space == std::string_view::npos
             ? std::string_view{}
             : StripAsciiWhitespace(rest.substr(space + 1));
  SessionOp op;
  if (verb == "insert") {
    op.kind = SessionOp::Kind::kInsert;
    size_t label_end = rest.find_first_of(" \t");
    if (label_end == std::string_view::npos) {
      return Status::InvalidArgument(
          "insert needs a label and a fact term");
    }
    op.label = std::string(rest.substr(0, label_end));
    Status s =
        ParseFactTerm(StripAsciiWhitespace(rest.substr(label_end + 1)), &op);
    if (!s.ok()) {
      return s;
    }
    return op;
  }
  if (verb == "delete") {
    op.kind = SessionOp::Kind::kDelete;
    if (rest.empty() || rest.find_first_of(" \t") != std::string_view::npos) {
      return Status::InvalidArgument("delete needs exactly one label");
    }
    op.label = std::string(rest);
    return op;
  }
  if (verb == "prefer") {
    op.kind = SessionOp::Kind::kPrefer;
    // "a > b > c": split on '>' and trim.
    while (!rest.empty()) {
      size_t gt = rest.find('>');
      std::string_view piece =
          gt == std::string_view::npos ? rest : rest.substr(0, gt);
      piece = StripAsciiWhitespace(piece);
      if (piece.empty() ||
          piece.find_first_of(" \t") != std::string_view::npos) {
        return Status::InvalidArgument("bad prefer chain");
      }
      op.chain.emplace_back(piece);
      if (gt == std::string_view::npos) {
        break;
      }
      rest = rest.substr(gt + 1);
    }
    if (op.chain.size() < 2) {
      return Status::InvalidArgument(
          "prefer needs at least two labels (a > b)");
    }
    return op;
  }
  if (verb == "jset" || verb == "jadd" || verb == "jdel") {
    op.kind = verb == "jset"   ? SessionOp::Kind::kJSet
              : verb == "jadd" ? SessionOp::Kind::kJAdd
                               : SessionOp::Kind::kJDel;
    op.labels = SplitWords(rest);
    if (op.kind != SessionOp::Kind::kJSet && op.labels.empty()) {
      return Status::InvalidArgument(std::string(verb) +
                                     " needs at least one label");
    }
    return op;
  }
  if (verb == "budget") {
    op.kind = SessionOp::Kind::kBudget;
    std::vector<std::string> words = SplitWords(rest);
    if (words.size() % 2 != 0) {
      return Status::InvalidArgument(
          "budget takes key/value pairs: deadline-ms, max-nodes, "
          "max-block");
    }
    for (size_t i = 0; i < words.size(); i += 2) {
      Status s = SetBudgetValue(words[i], words[i + 1], &op.budget);
      if (!s.ok()) {
        return s;
      }
    }
    return op;
  }
  if (verb == "check" || verb == "count") {
    op.kind = verb == "check" ? SessionOp::Kind::kCheck
                              : SessionOp::Kind::kCount;
    if (!rest.empty()) {
      if (rest.find_first_of(" \t") != std::string_view::npos) {
        return Status::InvalidArgument(std::string(verb) +
                                       " takes at most one semantics word");
      }
      Status s = ParseSemantics(rest, /*allow_all_repairs=*/false,
                                &op.semantics);
      if (!s.ok()) {
        return s;
      }
    }
    return op;
  }
  if (verb == "construct") {
    op.kind = SessionOp::Kind::kConstruct;
    if (!rest.empty()) {
      return Status::InvalidArgument("construct takes no arguments");
    }
    return op;
  }
  if (verb == "cqa") {
    op.kind = SessionOp::Kind::kCqa;
    size_t sem_end = rest.find_first_of(" \t");
    if (sem_end == std::string_view::npos) {
      return Status::InvalidArgument("cqa needs a semantics and a query");
    }
    Status s = ParseSemantics(rest.substr(0, sem_end),
                              /*allow_all_repairs=*/true, &op.semantics);
    if (!s.ok()) {
      return s;
    }
    op.query = std::string(StripAsciiWhitespace(rest.substr(sem_end + 1)));
    if (op.query.empty()) {
      return Status::InvalidArgument("cqa needs a query");
    }
    return op;
  }
  if (verb == "stats") {
    op.kind = SessionOp::Kind::kStats;
    if (!rest.empty()) {
      return Status::InvalidArgument("stats takes no arguments");
    }
    return op;
  }
  return Status::InvalidArgument("unknown op '" + std::string(verb) + "'");
}

Result<std::vector<SessionOp>> ParseSessionScript(std::string_view text) {
  std::vector<SessionOp> ops;
  size_t line_no = 0;
  while (!text.empty()) {
    ++line_no;
    size_t nl = text.find('\n');
    std::string_view line =
        nl == std::string_view::npos ? text : text.substr(0, nl);
    text = nl == std::string_view::npos ? std::string_view{}
                                        : text.substr(nl + 1);
    if (line.size() > kMaxSessionOpLineBytes) {
      return Status::ResourceExhausted(
          "line " + std::to_string(line_no) + ": " +
          std::to_string(line.size()) + " bytes is over the " +
          std::to_string(kMaxSessionOpLineBytes) + "-byte line cap");
    }
    size_t hash = line.find('#');
    if (hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = StripAsciiWhitespace(line);
    if (line.empty()) {
      continue;
    }
    if (ops.size() >= kMaxSessionScriptOps) {
      return Status::ResourceExhausted(
          "line " + std::to_string(line_no) + ": script exceeds the " +
          std::to_string(kMaxSessionScriptOps) + "-op cap");
    }
    Result<SessionOp> op = ParseSessionOp(line);
    if (!op.ok()) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": " + op.status().message());
    }
    ops.push_back(*std::move(op));
  }
  return ops;
}

std::string SessionOpToString(const SessionOp& op) {
  switch (op.kind) {
    case SessionOp::Kind::kInsert: {
      std::string out = "insert " + op.label + " " + op.relation + "(";
      for (size_t i = 0; i < op.constants.size(); ++i) {
        if (i > 0) {
          out += ", ";
        }
        out += op.constants[i];
      }
      return out + ")";
    }
    case SessionOp::Kind::kDelete:
      return "delete " + op.label;
    case SessionOp::Kind::kPrefer: {
      std::string out = "prefer";
      for (size_t i = 0; i < op.chain.size(); ++i) {
        out += (i == 0 ? " " : " > ") + op.chain[i];
      }
      return out;
    }
    case SessionOp::Kind::kJSet:
    case SessionOp::Kind::kJAdd:
    case SessionOp::Kind::kJDel: {
      std::string out = op.kind == SessionOp::Kind::kJSet   ? "jset"
                        : op.kind == SessionOp::Kind::kJAdd ? "jadd"
                                                            : "jdel";
      for (const std::string& label : op.labels) {
        out += " " + label;
      }
      return out;
    }
    case SessionOp::Kind::kBudget: {
      std::string out = "budget";
      if (op.budget.deadline_ms != 0) {
        out += " deadline-ms " + std::to_string(op.budget.deadline_ms);
      }
      if (op.budget.max_nodes != 0) {
        out += " max-nodes " + std::to_string(op.budget.max_nodes);
      }
      if (op.budget.max_block != 0) {
        out += " max-block " + std::to_string(op.budget.max_block);
      }
      return out;
    }
    case SessionOp::Kind::kCheck:
      return std::string("check ") + SemanticsName(op.semantics);
    case SessionOp::Kind::kCount:
      return std::string("count ") + SemanticsName(op.semantics);
    case SessionOp::Kind::kConstruct:
      return "construct";
    case SessionOp::Kind::kCqa:
      return std::string("cqa ") + SemanticsName(op.semantics) + " " +
             op.query;
    case SessionOp::Kind::kStats:
      return "stats";
  }
  return "stats";
}

}  // namespace prefrep

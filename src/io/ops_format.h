// Copyright (c) prefrep contributors.
// The line-oriented session-ops grammar driving resident sessions
// (src/serve/session.h) through prefrepd and `prefrepctl session`.
// One op per line; '#' starts a comment; blank lines are ignored:
//
//   insert <label> <Rel>(<c1>, <c2>, ...)   # add (or revive) a fact
//   delete <label>                          # tombstone a fact
//   prefer <a> > <b> [> <c> ...]            # chain of conflicting facts
//   jset [<label> ...]                      # replace the candidate J
//   jadd <label> [<label> ...]              # add facts to J
//   jdel <label> [<label> ...]              # remove facts from J
//   budget [deadline-ms <N>] [max-nodes <N>] [max-block <N>]
//                                           # per-request budget
//                                           # (no args: unlimited)
//   check [global|pareto|completion]        # is J σ-optimal? (def. global)
//   count [global|pareto|completion]        # number of σ-optimal repairs
//   construct                               # build a globally-optimal repair
//   cqa [repairs|global|pareto|completion] <query>
//                                           # consistent answers, e.g.
//                                           #   cqa global Q(x) :- R(x, y)
//   stats                                   # session counters (not part of
//                                           # the byte-identical contract)
//
// The fact/prefer/j vocabulary deliberately matches io/text_format.h:
// a session script speaks about the same labels a problem file declares.

#ifndef PREFREP_IO_OPS_FORMAT_H_
#define PREFREP_IO_OPS_FORMAT_H_

#include <string>
#include <string_view>
#include <vector>

#include "base/governor.h"
#include "base/status.h"
#include "query/consistent_answers.h"

namespace prefrep {

/// One parsed session op.  Only the fields of the matching kind are
/// meaningful.
struct SessionOp {
  enum class Kind {
    kInsert,
    kDelete,
    kPrefer,
    kJSet,
    kJAdd,
    kJDel,
    kBudget,
    kCheck,
    kCount,
    kConstruct,
    kCqa,
    kStats,
  };

  Kind kind = Kind::kStats;
  std::string label;                   ///< insert/delete
  std::string relation;                ///< insert
  std::vector<std::string> constants;  ///< insert
  std::vector<std::string> chain;      ///< prefer (≥ 2 labels, high → low)
  std::vector<std::string> labels;     ///< jset/jadd/jdel
  ResourceBudget budget;               ///< budget
  AnswerSemantics semantics = AnswerSemantics::kGlobal;  ///< check/count/cqa
  std::string query;                   ///< cqa (unparsed text)
};

/// Parses one op line (no comments/blank lines — callers strip those).
[[nodiscard]] Result<SessionOp> ParseSessionOp(std::string_view line);

/// Sets the budget dimension `key` ("deadline-ms", "max-nodes" or
/// "max-block") to the non-negative decimal `value`.  InvalidArgument
/// on an unknown key, a malformed value, or a deadline above INT64_MAX.
/// The `budget` op and the command-line budget flags share it.
[[nodiscard]] Status SetBudgetValue(std::string_view key,
                                    std::string_view value,
                                    ResourceBudget* budget);

/// Hostile-input caps on batch scripts.  They live HERE, on the script
/// reader (and on prefrepd's stream reader, which shares the line cap),
/// not inside ParseSessionOp: rendering can legitimately inflate an
/// accepted line (canonical spacing), so a per-op byte cap would break
/// the render/reparse closure the fuzzer proves.  The line cap matches
/// the WAL record payload cap (persist/wal.h) so every acceptable op is
/// also loggable.
inline constexpr size_t kMaxSessionOpLineBytes = 1u << 20;  // 1 MiB
inline constexpr size_t kMaxSessionScriptOps = 1u << 20;

/// Parses a whole script: one op per line, '#' comments and blank lines
/// skipped.  Errors carry the 1-based line number.  Scripts over the
/// caps above are rejected with kResourceExhausted before any
/// proportional allocation happens.
[[nodiscard]] Result<std::vector<SessionOp>> ParseSessionScript(
    std::string_view text);

/// The grammar word of a semantics ("repairs", "global", "pareto",
/// "completion"), which session replies also print.
const char* SemanticsName(AnswerSemantics s);

/// Renders an op back to its grammar line (tests round-trip through
/// this; generated workloads are emitted as text so every consumer —
/// battery, bench, prefrepd — speaks the same scripts).
std::string SessionOpToString(const SessionOp& op);

}  // namespace prefrep

#endif  // PREFREP_IO_OPS_FORMAT_H_

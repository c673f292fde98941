// Copyright (c) prefrep contributors.
// Failure classification of resident-session replies
// (SessionContext::Execute, DurableSession::Execute).
//
// A reply fails when it carries an error status, when its verdict is
// "unknown", or when it reports a nonzero number of abandoned blocks —
// the three ways a budget or an error can cut an answer short.  A
// saturated count with zero abandoned blocks is an answer:
//
//   count global: >= 18446744073709551615 (saturated) (0 block(s) abandoned)
//
// which is why a substring search for ">= " or "abandoned" miscounts.

#ifndef PREFREP_E2EBENCH_REPLY_H_
#define PREFREP_E2EBENCH_REPLY_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "base/status.h"

namespace e2ebench {

enum class ReplyOutcome {
  kAnswer,     ///< a complete answer
  kBudgetCut,  ///< "unknown", or some block abandoned by the budget
  kError,      ///< a non-OK status
};

/// Classifies the text of an OK reply.
ReplyOutcome ClassifyReplyText(std::string_view text);

/// Classifies a whole reply, status included.
ReplyOutcome ClassifyReply(const prefrep::Result<std::string>& reply);

/// Blocks the reply reports abandoned: the "(N block(s) abandoned)" of a
/// count, or the "N abandoned" of a degradation summary.
uint64_t AbandonedBlocks(std::string_view text);

/// Search nodes a degradation summary reports ("nodes spent: N"); 0 when
/// the reply carries none.
uint64_t ReportedNodes(std::string_view text);

}  // namespace e2ebench

#endif  // PREFREP_E2EBENCH_REPLY_H_

#include "reply.h"

namespace e2ebench {

namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

uint64_t Digits(std::string_view text, size_t begin, size_t end) {
  uint64_t value = 0;
  for (size_t i = begin; i < end; ++i) {
    value = value * 10 + static_cast<uint64_t>(text[i] - '0');
  }
  return value;
}

// The decimal number that ends at `end` (exclusive).
uint64_t NumberBefore(std::string_view text, size_t end) {
  size_t begin = end;
  while (begin > 0 && IsDigit(text[begin - 1])) {
    --begin;
  }
  return Digits(text, begin, end);
}

// The decimal number that starts at `begin`.
uint64_t NumberAfter(std::string_view text, size_t begin) {
  size_t end = begin;
  while (end < text.size() && IsDigit(text[end])) {
    ++end;
  }
  return Digits(text, begin, end);
}

// Sums the numbers next to every occurrence of `marker`.
uint64_t SumAround(std::string_view text, std::string_view marker,
                   bool number_follows) {
  uint64_t total = 0;
  for (size_t pos = text.find(marker); pos != std::string_view::npos;
       pos = text.find(marker, pos + marker.size())) {
    total += number_follows ? NumberAfter(text, pos + marker.size())
                            : NumberBefore(text, pos);
  }
  return total;
}

}  // namespace

uint64_t AbandonedBlocks(std::string_view text) {
  // "count global: >= 7 (2 block(s) abandoned)" and the degradation
  // summary "blocks: 3/4 solved exactly, 1 abandoned; nodes spent: ...".
  return SumAround(text, " block(s) abandoned)", false) +
         SumAround(text, " solved exactly, ", true);
}

uint64_t ReportedNodes(std::string_view text) {
  return SumAround(text, "nodes spent: ", true);
}

ReplyOutcome ClassifyReplyText(std::string_view text) {
  // Only the verdict on the first line ("check global: unknown",
  // "cqa global: unknown (...)", "construct: unknown (...)") counts;
  // later lines hold witnesses and answer tuples, whose constants are
  // data.
  const std::string_view first = text.substr(0, text.find('\n'));
  const size_t colon = first.find(": ");
  if (colon != std::string_view::npos &&
      first.substr(colon + 2).starts_with("unknown")) {
    return ReplyOutcome::kBudgetCut;
  }
  return AbandonedBlocks(text) > 0 ? ReplyOutcome::kBudgetCut
                                   : ReplyOutcome::kAnswer;
}

ReplyOutcome ClassifyReply(const prefrep::Result<std::string>& reply) {
  return reply.ok() ? ClassifyReplyText(*reply) : ReplyOutcome::kError;
}

}  // namespace e2ebench

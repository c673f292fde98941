// Copyright (c) prefrep contributors.
// Numeric command-line flags of prefrepd and prefrepctl.  A malformed
// value is a usage error: the helpers print why and return false, and
// the binaries exit 2, so a typo never silently changes a budget.

#ifndef PREFREP_EXAMPLES_CLI_FLAGS_H_
#define PREFREP_EXAMPLES_CLI_FLAGS_H_

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string_view>

#include "base/governor.h"
#include "base/string_util.h"
#include "io/ops_format.h"

namespace prefrep {

// Parses the decimal value `text` of `flag` into *out; prints the error
// and returns false when it is not a non-negative integer.
template <typename T>
bool ParseFlag(const char* flag, std::string_view text, T* out) {
  const std::optional<uint64_t> value = ParseUint(text);
  if (!value.has_value()) {
    std::fprintf(stderr, "error: %s takes a non-negative integer, got '%.*s'\n",
                 flag, static_cast<int>(text.size()), text.data());
    return false;
  }
  *out = static_cast<T>(*value);
  return true;
}

// Parses the value of the budget flag `flag` ("--deadline-ms",
// "--max-nodes" or "--max-block") by the `budget` op's rules; prints
// the error and returns false when they reject it.
inline bool ParseBudgetFlag(const char* flag, const char* text,
                            ResourceBudget* budget) {
  const Status status = SetBudgetValue(flag + 2, text, budget);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", flag, status.message().c_str());
  }
  return status.ok();
}

}  // namespace prefrep

#endif  // PREFREP_EXAMPLES_CLI_FLAGS_H_

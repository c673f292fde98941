// Fixture for tools/check_prefrep.py --selftest (never compiled): the
// invariant goes through PREFREP_CHECK_MSG, which fires in every build
// type.  A static_assert, and assert( or abort( inside a comment or a
// string literal, are not raw asserts.

#include <vector>

#include "base/macros.h"

namespace prefrep {

static_assert(sizeof(int) >= 2, "int holds a fact id");

int FirstFact(const std::vector<int>& block) {
  PREFREP_CHECK_MSG(!block.empty(), "assert(block) must not abort()");
  return block.front();
}

}  // namespace prefrep

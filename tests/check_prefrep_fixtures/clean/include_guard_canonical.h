// Fixture for tools/check_prefrep.py --selftest (never compiled): the
// canonical guard — the path upper-cased with `src/` stripped, a
// matching #define, and the guard named again on the closing #endif.

#ifndef PREFREP_TESTS_CHECK_PREFREP_FIXTURES_CLEAN_INCLUDE_GUARD_CANONICAL_H_
#define PREFREP_TESTS_CHECK_PREFREP_FIXTURES_CLEAN_INCLUDE_GUARD_CANONICAL_H_

namespace prefrep {

struct Widget {
  int size = 0;
};

}  // namespace prefrep

#endif  // PREFREP_TESTS_CHECK_PREFREP_FIXTURES_CLEAN_INCLUDE_GUARD_CANONICAL_H_

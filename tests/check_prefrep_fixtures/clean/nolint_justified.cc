// Fixture for tools/check_prefrep.py --selftest (never compiled): the
// accepted suppression forms — named checks with an inline reason, named
// checks under an explanatory comment, and a matched begin/end pair.

namespace prefrep {

int g_count = 0;  // NOLINT(misc-fixture-global): shared by the tests.

// The fixture needs a mutable global to suppress a check on.
// NOLINTNEXTLINE(misc-fixture-global)
int g_total = 0;

// NOLINTBEGIN(readability-magic-numbers): fixture constants.
int g_limit = 12;
// NOLINTEND(readability-magic-numbers)

}  // namespace prefrep

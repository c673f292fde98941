// Fixture for tools/check_prefrep.py --selftest (never compiled): a
// blanket suppression that names no check and gives no reason, so it
// hides every present and future diagnostic on its line.
// EXPECT-FINDING: nolint

namespace prefrep {

int g_count = 0;  // NOLINT

}  // namespace prefrep

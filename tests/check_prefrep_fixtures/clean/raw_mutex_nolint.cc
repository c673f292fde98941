// Fixture for tools/check_prefrep.py --selftest (never compiled): the
// suppression escape for the raw-concurrency ban — allowed when named
// and justified (the nolint rule enforces the justification).

#include <mutex>

namespace prefrep {

// NOLINT(prefrep-raw-concurrency): fixture exercises the inline escape.
std::mutex g_probe_mu;  // NOLINT(prefrep-raw-concurrency): same-line form.

void Lock() {
  // fixture: exercises the line-above escape form
  // NOLINT(prefrep-raw-concurrency)
  std::lock_guard<std::mutex> lock(g_probe_mu);
}

}  // namespace prefrep

// Copyright (c) prefrep contributors.
// Positive control for the negative-compile tests: the same constructs
// written correctly — Status, Result and CheckResult consumed, guarded
// field accessed under its lock — compile cleanly with every flag the
// negative TUs are compiled with.  If this fails, the negative tests'
// "failure" proves nothing (the flags or includes are broken, not the
// discipline).

#include "base/status.h"
#include "base/thread_annotations.h"
#include "repair/improvement.h"

namespace {

prefrep::Status MightFail() { return prefrep::Status::OK(); }
prefrep::Result<int> MightParse() { return 1; }
prefrep::CheckResult Decide() { return prefrep::CheckResult::Optimal(); }

struct Counter {
  prefrep::Mutex mu;
  int value PREFREP_GUARDED_BY(mu) = 0;
};

int LockedRead(Counter& c) {
  prefrep::MutexLock lock(c.mu);
  return c.value;
}

bool Caller() {
  prefrep::Status s = MightFail();
  prefrep::Result<int> parsed = MightParse();
  prefrep::CheckResult r = Decide();
  return s.ok() && parsed.ok() && r.optimal;
}

}  // namespace

int main() {
  Counter c;
  return Caller() ? LockedRead(c) : 1;
}

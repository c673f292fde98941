// Copyright (c) prefrep contributors.
// Negative-compile proof: dropping a Result<T> MUST NOT compile under
// -Werror=unused-result.  A dropped Result discards both the value and
// the failure, so the class template is declared [[nodiscard]] in
// base/status.h.

#include "base/status.h"

namespace {

prefrep::Result<int> MightParse() { return 1; }

void Caller() {
  MightParse();  // dropped Result — must be a hard error
}

}  // namespace

int main() {
  Caller();
  return 0;
}

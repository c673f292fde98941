// Fixture for tools/check_prefrep.py --selftest (never compiled): a
// header whose guard does not follow the path-derived canonical name,
// so two headers can silently share a guard and one of them vanishes
// from every translation unit that includes both.
// EXPECT-FINDING: include-guard

#ifndef WIDGET_H
#define WIDGET_H

namespace prefrep {

struct Widget {
  int size = 0;
};

}  // namespace prefrep

#endif  // WIDGET_H

// Copyright (c) prefrep contributors.
// Signatures and schemas (§2.1, §2.2).  A signature is a finite set of
// relation symbols with arities; a schema S = (R, ∆) pairs a signature
// with a set of FDs, stored per relation symbol (∆|R).

#ifndef PREFREP_MODEL_SCHEMA_H_
#define PREFREP_MODEL_SCHEMA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/hash.h"
#include "base/status.h"
#include "fd/fd_set.h"

namespace prefrep {

/// Dense index of a relation symbol within a signature.
using RelId = uint32_t;

inline constexpr RelId kInvalidRelId = UINT32_MAX;

/// A relation symbol: a name and an arity.
struct RelationDef {
  std::string name;
  int arity = 0;
};

/// A schema S = (R, ∆): relation symbols with their FD sets.
///
/// Built incrementally via AddRelation / AddFd; once an Instance refers to
/// a Schema the schema must not change (enforced by convention: instances
/// hold `const Schema&`).
class Schema {
 public:
  Schema() = default;

  /// Declares a relation symbol; names must be unique, 1 ≤ arity ≤ 64.
  Result<RelId> AddRelation(std::string name, int arity);

  /// Declares a relation; fatal on error (for literal schema construction
  /// in tests and examples).
  RelId MustAddRelation(std::string name, int arity);

  /// Adds an FD R: A → B to ∆|R.
  Status AddFd(RelId rel, const FD& fd);
  Status AddFd(std::string_view relation_name, const FD& fd);

  /// Adds an FD parsed from "Rel: A -> B" or, for single-relation schemas,
  /// "A -> B".
  Status AddFdParsed(std::string_view text);

  /// Fatal-on-error convenience for literal construction.
  void MustAddFd(RelId rel, const FD& fd);
  void MustAddFdParsed(std::string_view text);

  size_t num_relations() const { return relations_.size(); }
  const RelationDef& relation(RelId rel) const {
    PREFREP_CHECK(rel < relations_.size());
    return relations_[rel];
  }
  int arity(RelId rel) const { return relation(rel).arity; }
  const std::string& relation_name(RelId rel) const {
    return relation(rel).name;
  }

  /// Looks up a relation symbol by name; kInvalidRelId if absent.
  RelId FindRelation(std::string_view name) const;

  /// ∆|R — the FDs of relation `rel`.
  const FDSet& fds(RelId rel) const {
    PREFREP_CHECK(rel < fd_sets_.size());
    return fd_sets_[rel];
  }

  /// Builds a single-relation schema over a relation named `name`.
  static Schema SingleRelation(std::string name, int arity,
                               std::initializer_list<FD> fds);

  /// Renders a human-readable multi-line description.
  std::string ToString() const;

 private:
  std::vector<RelationDef> relations_;
  std::vector<FDSet> fd_sets_;
  StringViewMap<RelId> by_name_;
};

}  // namespace prefrep

#endif  // PREFREP_MODEL_SCHEMA_H_

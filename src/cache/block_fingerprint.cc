#include "cache/block_fingerprint.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "base/macros.h"
#include "classify/dichotomy.h"
#include "model/instance.h"

namespace prefrep {
namespace {

// Section tags for domain separation inside one fingerprint.
constexpr uint64_t kTagRelation = 0xa11a'0001;
constexpr uint64_t kTagFacts = 0xa11a'0002;
constexpr uint64_t kTagConflicts = 0xa11a'0003;
constexpr uint64_t kTagPriority = 0xa11a'0004;
constexpr uint64_t kTagRelationOfFact = 0xa11a'0005;

constexpr uint64_t kDomainBlock = 0x626c'6f63'6b66'7001ULL;   // "blockfp"
constexpr uint64_t kDomainSubset = 0x7375'6273'6574'6401ULL;  // "subsetd"

constexpr uint64_t kHiSeed = 0x9368'5f8a'6d1c'3b47ULL;
constexpr uint64_t kLoSeed = 0x27d4'eb2f'1656'67c5ULL;

}  // namespace

FingerprintAccumulator::FingerprintAccumulator(uint64_t domain)
    : hi_(HashMix64(domain ^ kHiSeed)), lo_(HashMix64(domain ^ kLoSeed)) {}

FingerprintAccumulator::FingerprintAccumulator(const BlockFingerprint& base,
                                               uint64_t domain)
    : hi_(HashMix64(base.hi ^ domain ^ kHiSeed)),
      lo_(HashMix64(base.lo ^ domain ^ kLoSeed)) {}

BlockFingerprint FingerprintAccumulator::Finish() const {
  BlockFingerprint fp;
  fp.hi = HashMix64(hi_ ^ (length_ * 0xff51'afd7'ed55'8ccdULL));
  fp.lo = HashMix64(lo_ + length_);
  return fp;
}

BlockFingerprint ComputeBlockFingerprint(const ProblemContext& ctx,
                                         const Block& b) {
  // Binding every Block field (conflicts/blocks.h) makes a new one a
  // compile error here.  If it fires, decide whether the field changes
  // block identity: absorb it below, or show it is derived (id and
  // fact_list are coordinates the canonical relabeling exists to erase,
  // rel is the relation of fact_list.front(), covered by the relation
  // and value sections).  Then extend the binding.
  const auto& [id, rel, fact_list] = b;
  const Instance& instance = ctx.instance();
  const ConflictGraph& cg = ctx.conflict_graph();
  const PriorityRelation& priority = ctx.priority();
  const size_t n = fact_list.size();
  PREFREP_CHECK_MSG(n >= 2, "fingerprinting a non-block");

  FingerprintAccumulator acc(kDomainBlock);

  // Relation shape + Theorem 3.1 classification, one section per
  // relation the block spans, in order of first appearance (rel first).
  // The classification masks pin down everything the tractable solvers
  // read of the FD set; the conflict-edge section pins down everything
  // the exhaustive and greedy paths read of it.  A block spans two
  // relations only when a cross-conflict priority edge joined blocks;
  // it then also absorbs each fact's relation, as a local index into
  // those sections, so a single-relation block hashes as it always has.
  std::vector<RelId> relations{rel};
  for (FactId f : fact_list) {
    const RelId r = instance.fact(f).rel;
    if (std::find(relations.begin(), relations.end(), r) ==
        relations.end()) {
      relations.push_back(r);
    }
  }
  for (RelId r : relations) {
    const RelationClassification& rc = ctx.classification().relations[r];
    acc.Absorb(kTagRelation);
    acc.Absorb(static_cast<uint64_t>(instance.schema().arity(r)));
    acc.Absorb(static_cast<uint64_t>(rc.kind));
    acc.Absorb(rc.single_fd.lhs.mask());
    acc.Absorb(rc.single_fd.rhs.mask());
    acc.Absorb(rc.key1.mask());
    acc.Absorb(rc.key2.mask());
  }
  if (relations.size() > 1) {
    acc.Absorb(kTagRelationOfFact);
    for (FactId f : fact_list) {
      const RelId r = instance.fact(f).rel;
      acc.Absorb(static_cast<uint64_t>(
          std::find(relations.begin(), relations.end(), r) -
          relations.begin()));
    }
  }

  // Facts as canonical value tuples: local order is ascending fact id
  // (fact_list order), values renamed first-occurrence-first.  Two
  // blocks agreeing here have the same equality structure over their
  // tuples, which is all that FD-based conflict/violation reasoning
  // observes.  The rename table is a flat first-seen vector (a few
  // dozen values per block): a linear scan beats a hash map at this
  // size and keeps the all-miss overhead down (bench_cache, distinct).
  acc.Absorb(kTagFacts);
  acc.Absorb(n);
  std::vector<ValueId> first_seen;
  first_seen.reserve(n * 4);
  for (FactId f : fact_list) {
    const Fact& fact = instance.fact(f);
    for (ValueId v : fact.values) {
      size_t canonical = 0;
      while (canonical < first_seen.size() && first_seen[canonical] != v) {
        ++canonical;
      }
      if (canonical == first_seen.size()) {
        first_seen.push_back(v);
      }
      acc.Absorb(canonical);
    }
  }

  // Conflict edges as local pairs (i, j), i < j.  fact_list and every
  // neighbor list are ascending, so the emission order is canonical
  // without sorting.
  acc.Absorb(kTagConflicts);
  for (size_t i = 0; i < n; ++i) {
    for (FactId g : cg.neighbors(fact_list[i])) {
      const size_t j = PositionIn(fact_list, g);
      if (j == SIZE_MAX || j <= i) {
        continue;  // neighbor outside the block (impossible) or j <= i
      }
      acc.Absorb(i);
      acc.Absorb(j);
    }
  }

  // Priority edges inside the block as local pairs (higher, lower).
  // An edge that leaves the block ends at a free fact (ForEachBlockLink
  // joins every other edge's endpoints), which no solver reads, so it
  // is skipped.  Dominates() lists are in insertion order — not
  // canonical — so the pairs are sorted before absorption.
  acc.Absorb(kTagPriority);
  std::vector<std::pair<uint64_t, uint64_t>> priority_edges;
  for (size_t i = 0; i < n; ++i) {
    for (FactId g : priority.Dominates(fact_list[i])) {
      const size_t j = PositionIn(fact_list, g);
      if (j != SIZE_MAX) {
        priority_edges.emplace_back(i, j);
      }
    }
  }
  std::sort(priority_edges.begin(), priority_edges.end());
  for (const auto& [hi, lo] : priority_edges) {
    acc.Absorb(hi);
    acc.Absorb(lo);
  }

  return acc.Finish();
}

BlockFingerprint DeriveOpKey(const BlockFingerprint& base, BlockCacheOp op,
                             uint64_t salt_a, uint64_t salt_b) {
  FingerprintAccumulator acc(base, 0x6f70'6b65'7964'6501ULL);  // "opkeyd"
  acc.Absorb(static_cast<uint64_t>(op));
  acc.Absorb(salt_a);
  acc.Absorb(salt_b);
  return acc.Finish();
}

uint64_t CanonicalSubsetDigest(const Block& b, const DynamicBitset& sub) {
  FingerprintAccumulator acc(kDomainSubset);
  for (size_t i = 0; i < b.fact_list.size(); ++i) {
    if (sub.test(b.fact_list[i])) {
      acc.Absorb(i);
    }
  }
  return acc.Finish().lo;
}

}  // namespace prefrep

// Copyright (c) prefrep contributors.
// ResourceGovernor — per-call budgets and cooperative cancellation for
// the exponential solving paths.
//
// The FKK dichotomies guarantee that outside the tractable cases
// checking is coNP-complete, so the exhaustive per-block fallbacks are
// exponential *by design*: one oversized block can otherwise stall a
// whole solving session.  A ResourceGovernor carries a per-call budget
// (wall-clock deadline, explored-node count, peak admissible block
// size) that the enumeration loops poll at cheap checkpoints.  When the
// budget runs out the stack degrades gracefully instead of hanging:
// verdicts become three-valued (yes / no / unknown), per-block
// dispatchers keep answering tractable blocks exactly and report only
// the over-budget blocks as unknown, and counting falls back to a
// verified lower bound (see DegradationReport).
//
// The governor is single-call state: create one per solving call (or
// per request), install it on the ProblemContext, and read the
// degradation report afterwards.  One thread owns it at a time, so its
// counters are plain fields.  The parallel solver
// (repair/parallel_solver.h) gives every worker a private governor and
// replays the workers' consumption onto the caller's governor, on the
// caller's thread and in serial block order, which is what keeps
// parallel verdicts byte-identical to serial ones.  The workers share
// only the session's cancellation bound, an atomic their governors read
// (ArmCancellation), and the Unlimited() governor, which nothing writes.

#ifndef PREFREP_BASE_GOVERNOR_H_
#define PREFREP_BASE_GOVERNOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "base/macros.h"
#include "base/status.h"

namespace prefrep {

/// Three-valued answer for budget-bounded decision procedures.
enum class Trilean {
  kFalse,
  kTrue,
  kUnknown,  ///< the budget ran out before the answer was certified
};

/// Short human-readable name ("false" / "true" / "unknown").
const char* TrileanName(Trilean value);

/// Why a governor stopped admitting work.
enum class ExhaustCause {
  kNone = 0,        ///< budget not exhausted
  kDeadline,        ///< wall-clock deadline passed
  kNodeBudget,      ///< explored-node budget spent
  kFaultInjection,  ///< test-only forced exhaustion (N-th checkpoint)
  kCancelled,       ///< a parallel worker was superseded (its block's
                    ///< result cannot affect the merged answer anymore)
};

/// A per-call resource budget.  Zero in any field means "unlimited" for
/// that dimension; a default-constructed budget is fully unlimited.
struct ResourceBudget {
  /// Wall-clock deadline, measured from governor construction.
  int64_t deadline_ms = 0;
  /// Maximum number of enumeration checkpoints (≈ explored subsets /
  /// search-tree nodes) across the whole call.
  uint64_t max_nodes = 0;
  /// Largest block (in facts) an exponential solver may dive into;
  /// larger blocks are reported unknown without being attempted.  The
  /// hard cap ResourceGovernor::kMaxExhaustiveBlockFacts applies on top.
  size_t max_block = 0;

  bool Unlimited() const {
    return deadline_ms == 0 && max_nodes == 0 && max_block == 0;
  }
};

/// Multiplies two uint64 counts, saturating at UINT64_MAX instead of
/// wrapping.  Sets `*saturated` (when non-null) if the product
/// overflowed.  Used by the per-block repair-count cross-product, where
/// a wrapped count would be a silent lie.
uint64_t SaturatingMulU64(uint64_t a, uint64_t b, bool* saturated = nullptr);

/// Cooperative budget enforcement.  Enumeration loops call Checkpoint()
/// once per explored node and unwind when it returns false; exponential
/// block solvers call AdmitBlock() before diving into a block.
/// Exhaustion by deadline or node budget is sticky: once fired, every
/// further Checkpoint() returns false, so cancellation propagates
/// through nested enumerations without extra plumbing.  Block refusal
/// (AdmitBlock) is *not* sticky — other blocks may still be solved
/// exactly — but is recorded, so degraded() reflects it.
class ResourceGovernor {
 public:
  /// Hard cap on the size of a block any exponential per-block routine
  /// may attempt, independent of the configured budget: per-block
  /// subset spaces and repair counts are tracked in uint64_t, and a
  /// `1 << n`-style bound for n ≥ 64 is undefined behaviour before it
  /// is even unaffordable.  Such blocks are refused up front with
  /// kResourceExhausted instead.
  static constexpr size_t kMaxExhaustiveBlockFacts = 63;

  /// Checkpoints between wall-clock reads: the deadline is polled every
  /// this many Checkpoint() calls, so its enforcement granularity (and
  /// the promised return latency) is one checkpoint interval.
  static constexpr uint64_t kDeadlineCheckInterval = 256;

  /// An unlimited governor: every checkpoint passes, nothing is
  /// counted.
  ResourceGovernor() = default;

  explicit ResourceGovernor(const ResourceBudget& budget);

  /// Worker-local governor for parallel solving: same budget semantics,
  /// but the deadline is measured from `start` (the anchor of the
  /// governor whose budget a worker enforces a share of) instead of
  /// from construction, so every worker and the serial replay agree on
  /// when the deadline fires.
  ResourceGovernor(const ResourceBudget& budget,
                   std::chrono::steady_clock::time_point start);

  PREFREP_DISALLOW_COPY(ResourceGovernor);

  /// The shared no-op governor used when none is installed.  Its fast
  /// path performs no writes, so it is safe to share across threads.
  static ResourceGovernor& Unlimited();

  const ResourceBudget& budget() const { return budget_; }

  /// True when neither a budget dimension nor the test fault is armed.
  bool unlimited() const { return !armed_; }

  /// Counts one unit of enumeration work and polls the budget.  Returns
  /// false once the budget is exhausted (sticky).  On the unarmed fast
  /// path this performs no writes and always returns true.
  bool Checkpoint() {
    if (PREFREP_LIKELY(!armed_)) {
      return true;
    }
    return CheckpointSlow();
  }

  /// Whether an exponential solver may dive into a block of
  /// `block_facts` facts.  False when the block exceeds the hard cap or
  /// the configured max_block, or when the governor is already
  /// exhausted.  A refusal is recorded (degraded()) but does not stop
  /// other blocks from being solved.
  bool AdmitBlock(size_t block_facts);

  /// Pure query: would AdmitBlock(block_facts) currently return true?
  /// Records nothing.  The block-solve cache's round trip
  /// (CachedBlockSolve, repair/block_solver.h) uses it to decide whether
  /// serving a stored result preserves the refusal accounting a fresh
  /// solve would have produced; ordinary solvers must keep calling
  /// AdmitBlock so refusals are recorded.
  bool WouldAdmitBlock(size_t block_facts) const;

  /// True once the deadline, node budget, injected fault, or a
  /// cancellation fired.
  bool exhausted() const { return cause() != ExhaustCause::kNone; }

  /// True when any budget enforcement happened: exhaustion or at least
  /// one refused block.  A degraded call's "unknown" parts are real.
  bool degraded() const { return exhausted() || blocks_refused() > 0; }

  ExhaustCause cause() const { return cause_; }

  /// Checkpoints passed so far (0 on the unarmed fast path, which does
  /// not count).
  uint64_t nodes_spent() const { return nodes_; }

  /// Number of blocks AdmitBlock refused.
  uint64_t blocks_refused() const { return blocks_refused_; }

  /// Human-readable description of what fired ("deadline of 50 ms
  /// exceeded after 12345 nodes", ...).  "within budget" when nothing
  /// did.
  std::string CauseString() const;

  /// Maps the governor state to a Status: OK when not degraded,
  /// kDeadlineExceeded for a deadline, kResourceExhausted otherwise.
  Status ToStatus() const;

  /// Test-only fault injection, in the spirit of
  /// audit::internal::ForceWrongVerdictForTesting: makes the governor
  /// fire deterministically at the `nth` Checkpoint() call (1-based),
  /// so tests can prove that cancellation unwinds cleanly from any
  /// enumeration state.  0 disables.  Never call this on Unlimited().
  void ForceExhaustAtCheckpointForTesting(uint64_t nth);

  // ---- Replay support (repair/parallel_solver.h, the block cache) ---
  //
  // The hooks below exist for the deterministic parallel merge and for
  // serving stored block answers, and are of no use to ordinary callers.

  /// Arms cooperative cancellation on a worker-local governor: once
  /// `*cancel_bound` drops to `position` or below, the next
  /// Checkpoint() fires with ExhaustCause::kCancelled and the worker
  /// unwinds exactly like any other budget exhaustion.  `cancel_bound`
  /// must outlive the governor.  Never call this on Unlimited().
  void ArmCancellation(const std::atomic<uint64_t>* cancel_bound,
                       uint64_t position);

  /// The node index at which the node-space budget fires, i.e. the
  /// smallest global checkpoint index that does NOT succeed: the
  /// injected fault fires at `fault_at`, the node budget at
  /// `max_nodes + 1`.  0 when no node-space dimension is armed (the
  /// deadline is wall-clock, not node-space).  This is the constant the
  /// parallel merge replays worker node counts against.
  uint64_t NodeFiringIndex() const;

  /// The one replay rule: may a result computed elsewhere — a parallel
  /// worker's payload or a block-cache hit — stand in for a fresh run
  /// under this governor?  `nodes` is the checkpoints that run spent
  /// and `nodes_valid` whether they were counted (an unarmed governor
  /// counts nothing).  True iff the fresh run would have completed
  /// too: always when unarmed or armed for cancellation only (nothing
  /// reads their count back), never when exhausted, and otherwise iff
  /// the count is valid and replaying it stays strictly below
  /// NodeFiringIndex() — in which case it is committed as if its
  /// checkpoints had happened here, keeping nodes_spent() on the fresh
  /// run's trajectory.  Block admission is the caller's test
  /// (WouldAdmitBlock).
  bool TryReplay(uint64_t nodes, bool nodes_valid);

  /// The deadline anchor (set iff deadline_ms > 0); workers pass it to
  /// the anchored constructor so all shares of one budget agree.
  std::chrono::steady_clock::time_point start() const { return start_; }

 private:
  // Concurrency contract (TSAN-verified): a governor is owned by one
  // thread, the caller's or one parallel worker's, and only that thread
  // writes it, so no field needs a lock or an atomic.  The one value
  // another thread writes is *cancel_bound_, which is atomic.  The
  // shared Unlimited() governor is never written — unarmed checkpoints
  // and TryReplay return before any write, and AdmitBlock records no
  // refusal on it — so every thread may read it; the unarmed
  // Checkpoint() fast path stays write-free and fence-free.
  bool CheckpointSlow();
  void Exhaust(ExhaustCause cause) {
    // First cause wins: a later exhaustion keeps the original diagnosis.
    if (cause_ == ExhaustCause::kNone) {
      cause_ = cause;
    }
  }

  ResourceBudget budget_;
  bool armed_ = false;
  ExhaustCause cause_ = ExhaustCause::kNone;
  uint64_t nodes_ = 0;
  uint64_t blocks_refused_ = 0;
  uint64_t fault_at_ = 0;
  const std::atomic<uint64_t>* cancel_bound_ = nullptr;
  uint64_t cancel_position_ = 0;
  std::chrono::steady_clock::time_point start_{};
};

/// Per-block record of a degraded (abandoned) block.
struct BlockDegradation {
  size_t block_id = 0;
  size_t block_size = 0;
  /// Checkpoints spent inside this block before it was abandoned.
  uint64_t nodes = 0;
  /// Why the block was abandoned (budget cause or admission refusal).
  std::string reason;
};

/// What a budget-bounded call actually did: how many blocks were solved
/// exactly, which were abandoned (and how much work each consumed), and
/// what fired.  Attached to checker outcomes and printable by
/// `prefrepctl` as the degradation summary.
struct DegradationReport {
  size_t blocks_total = 0;
  size_t blocks_exact = 0;
  size_t blocks_abandoned = 0;
  uint64_t nodes_spent = 0;
  /// Overall exhaustion cause description; empty when only per-block
  /// admission refusals degraded the call.
  std::string cause;
  /// One entry per abandoned block.
  std::vector<BlockDegradation> abandoned;

  bool Degraded() const { return blocks_abandoned > 0; }

  /// Multi-line human-readable summary (one line per abandoned block).
  std::string ToString() const;
};

}  // namespace prefrep

#endif  // PREFREP_BASE_GOVERNOR_H_

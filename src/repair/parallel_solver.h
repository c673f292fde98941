// Copyright (c) prefrep contributors.
// ParallelBlockSession — parallel per-block solving with a
// deterministic, serial-equivalent merge.
//
// Blocks are independent (Proposition 3.5 of the paper; docs/algorithms.md,
// "Why blocks are sound"), so per-block checking, counting, enumeration
// and construction can run
// on a work-stealing pool (base/thread_pool.h).  The hard part is not
// the fan-out but the contract: verdicts, witnesses, BoundedCount and
// DegradationReport must be byte-identical to the serial pass at any
// thread count, including under a ResourceGovernor that fires mid-call.
// The session achieves that with speculate-then-replay:
//
//   1. SPECULATE.  Every block is submitted to the pool,
//      largest-cost-first (cost = block size, the exponent of the
//      2^|b| fallback — the same quantity the block-size histogram of
//      conflicts/stats.h aggregates).  Each worker runs the UNCHANGED
//      per-block routine against a private governor whose node cap is
//      the shared budget's remaining node-space headroom, so no worker
//      can run past the point where any serial schedule would have
//      fired, and whose deadline is anchored at the shared governor's
//      start.
//   2. MERGE, in the caller's serial block order.  A worker result is
//      adopted verbatim iff the worker completed it, it is a usable
//      payload, and the shared governor's replay rule
//      (ResourceGovernor::TryReplay — the one the block-solve cache
//      serves by) accepts its node count: replayed after the blocks
//      merged before it, it stays strictly below the budget's firing
//      index, i.e. the serial pass would have completed the block
//      identically.  TryReplay commits the adopted count to
//      the shared governor, keeping its nodes_spent() exactly on the
//      serial trajectory.  Any other block is simply
//      RERUN on the caller's thread against the shared governor, which
//      reproduces the serial behaviour bit for bit: where inside the
//      block the budget fires, the exhaustion cause string, admission
//      refusals, partial counts.  Once the shared governor is
//      exhausted, reruns of exponential blocks are refused immediately
//      (AdmitBlock) and tractable blocks stay exact — the same
//      degradation ladder as the serial loop.
//   3. CANCEL cooperatively.  A definite "J is not optimal" in block k
//      makes every block after k (in merge order) unreachable for the
//      serial pass, and shared-governor exhaustion makes exponential
//      results after the exhaustion point unadoptable; both lower a
//      shared cancellation bound that worker governors poll at their
//      checkpoints (ResourceGovernor::ArmCancellation).  Abandoning the
//      session (early return, destructor) cancels everything that the
//      caller did not consume.
//
// The one dimension that cannot be deterministic is the wall-clock
// deadline — it is nondeterministic in the serial pass already.  Under
// a deadline the merge stays sound (adopted results are exact, the rest
// degrades exactly like a serial pass whose clock fired at merge time);
// see docs/parallelism.md for the full guarantee.

#ifndef PREFREP_REPAIR_PARALLEL_SOLVER_H_
#define PREFREP_REPAIR_PARALLEL_SOLVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "base/thread_annotations.h"
#include "base/thread_pool.h"
#include "model/context.h"

namespace prefrep {

namespace parallel_internal {

/// Submission order for the pool: positions of `order` sorted by block
/// size descending (ties by position, so scheduling is deterministic).
std::vector<size_t> LargestFirstSchedule(const BlockDecomposition& blocks,
                                         const std::vector<size_t>& order);

/// Worker threads a session may use for `num_blocks` blocks under the
/// context's parallelism knob; 0 or 1 means "stay serial".
size_t SessionThreads(const ProblemContext& ctx, size_t num_blocks);

}  // namespace parallel_internal

/// One parallel pass over the blocks listed in `order` (block ids, in
/// the caller's serial iteration order).  The caller then consumes the
/// per-block payloads by calling Next(block) for a prefix of `order` —
/// stopping early (e.g. at a refuting block) is fine and cancels the
/// rest.  `run` computes one block's payload and must route every
/// governor interaction through the ProblemContext it is given (it runs
/// once per block, against a worker context or the caller's context —
/// never both for the same final payload).  `valid` says whether a
/// payload is adoptable at all (e.g. a known verdict, a complete
/// optimal set); invalid payloads are recomputed serially so the shared
/// governor records the authoritative refusal/exhaustion.  `refutes`
/// (optional) marks payloads that make the serial pass return
/// immediately, enabling the kNo short-circuit.
template <typename Payload>
class ParallelBlockSession {
 public:
  using RunFn = std::function<Payload(const ProblemContext&, const Block&)>;
  using ValidFn = std::function<bool(const Payload&)>;
  using RefutesFn = std::function<bool(const Payload&)>;

  ParallelBlockSession(const ProblemContext& ctx, std::vector<size_t> order,
                       RunFn run, ValidFn valid, RefutesFn refutes = nullptr)
      : parent_(ctx),
        order_(std::move(order)),
        run_(std::move(run)),
        valid_(std::move(valid)),
        refutes_(std::move(refutes)) {
    ResourceGovernor& shared = parent_.governor();
    const uint64_t firing = shared.NodeFiringIndex();
    const size_t threads =
        parallel_internal::SessionThreads(parent_, order_.size());
    serial_ = threads <= 1 || shared.exhausted();
    uint64_t worker_cap = 0;
    if (!serial_ && firing != 0) {
      const uint64_t spent = shared.nodes_spent();
      if (firing <= spent + 1) {
        serial_ = true;  // no node-space headroom left to speculate in
      } else {
        // Workers fire at local node worker_cap + 1 = the earliest
        // global index at which any serial schedule could fire.
        worker_cap = firing - spent - 1;
      }
    }
    if (serial_) {
      return;
    }
    parent_.Prime();
    worker_budget_.deadline_ms = shared.budget().deadline_ms;
    worker_budget_.max_nodes = worker_cap;
    worker_budget_.max_block = shared.budget().max_block;
    start_ = shared.start();
    slots_ = std::vector<Slot>(order_.size());
    pool_ = std::make_unique<ThreadPool>(threads);
    for (size_t pos :
         parallel_internal::LargestFirstSchedule(parent_.blocks(), order_)) {
      pool_->Submit([this, pos] { RunTask(pos); });
    }
  }

  /// Cancels and joins whatever the caller did not consume.
  ~ParallelBlockSession() {
    if (pool_ != nullptr) {
      LowerCancelBound(next_pos_);
      pool_.reset();  // joins in-flight tasks, discards unstarted ones
    }
  }

  PREFREP_DISALLOW_COPY(ParallelBlockSession);

  /// The serial-equivalent payload for `b`, which must be the next
  /// block of `order`.
  Payload Next(const Block& b) {
    PREFREP_CHECK_MSG(next_pos_ < order_.size() && order_[next_pos_] == b.id,
                      "parallel session consumed out of its block order");
    const size_t pos = next_pos_++;
    if (serial_) {
      return run_(parent_, b);
    }
    Slot& slot = slots_[pos];
    {
      MutexLock lock(mutex_);
      done_cv_.Wait(mutex_, [&slot] { return slot.done; });
    }
    ResourceGovernor& shared = parent_.governor();
    if (slot.completed && valid_(slot.payload) &&
        shared.TryReplay(slot.nodes, /*nodes_valid=*/true)) {
      return std::move(slot.payload);
    }
    // Serial-order rerun against the shared governor: reproduces what
    // the serial pass does with this block bit for bit — where inside
    // it the budget fires, the cause string, admission refusals.
    Payload payload = run_(parent_, b);
    if (shared.exhausted()) {
      // Exponential results after the exhaustion point can never be
      // adopted; release those workers at their next checkpoint.
      LowerCancelBound(pos + 1);
    }
    return payload;
  }

 private:
  struct Slot {
    Payload payload{};
    uint64_t nodes = 0;
    bool completed = false;
    bool done = false;  // written under mutex_, waited on via done_cv_
  };

  void RunTask(size_t pos) {
    Slot& slot = slots_[pos];
    ResourceGovernor local(worker_budget_, start_);
    local.ArmCancellation(&cancel_bound_, pos);
    ProblemContext view = parent_.WorkerView(&local);
    slot.payload = run_(view, parent_.blocks().block(order_[pos]));
    slot.nodes = local.nodes_spent();
    slot.completed = !local.exhausted();
    if (slot.completed && refutes_ != nullptr && refutes_(slot.payload)) {
      // The serial pass returns at the first refuting block; everything
      // after it (in merge order) is unreachable.
      LowerCancelBound(pos + 1);
    }
    {
      MutexLock lock(mutex_);
      slot.done = true;
    }
    done_cv_.NotifyAll();
  }

  void LowerCancelBound(uint64_t bound) {
    uint64_t current = cancel_bound_.load(std::memory_order_relaxed);
    while (bound < current &&
           !cancel_bound_.compare_exchange_weak(current, bound,
                                                std::memory_order_relaxed)) {
    }
  }

  const ProblemContext& parent_;
  std::vector<size_t> order_;
  RunFn run_;
  ValidFn valid_;
  RefutesFn refutes_;
  bool serial_ = true;
  ResourceBudget worker_budget_;
  std::chrono::steady_clock::time_point start_{};
  size_t next_pos_ = 0;
  std::atomic<uint64_t> cancel_bound_{std::numeric_limits<uint64_t>::max()};
  // Slot ownership protocol (finer than one annotation can say): a
  // slot's payload/nodes/completed are written exclusively by the one
  // worker running that block, then published by setting `done` under
  // mutex_; the consumer reads them only after observing done under
  // mutex_.  The mutex therefore guards the done flags and orders the
  // payload hand-off (TSAN-verified; per-slot fields cannot carry a
  // PREFREP_GUARDED_BY because each is guarded only from publication
  // on).
  std::vector<Slot> slots_;
  Mutex mutex_;
  CondVar done_cv_;
  // Last member: destroyed (joined) first, while everything the tasks
  // reference is still alive.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace prefrep

#endif  // PREFREP_REPAIR_PARALLEL_SOLVER_H_

#include "base/governor.h"

#include <cstdint>
#include <limits>
#include <string>

namespace prefrep {

const char* TrileanName(Trilean value) {
  switch (value) {
    case Trilean::kFalse:
      return "false";
    case Trilean::kTrue:
      return "true";
    case Trilean::kUnknown:
      return "unknown";
  }
  return "invalid";
}

uint64_t SaturatingMulU64(uint64_t a, uint64_t b, bool* saturated) {
  if (a != 0 && b > std::numeric_limits<uint64_t>::max() / a) {
    if (saturated != nullptr) {
      *saturated = true;
    }
    return std::numeric_limits<uint64_t>::max();
  }
  return a * b;
}

ResourceGovernor::ResourceGovernor(const ResourceBudget& budget)
    : budget_(budget), armed_(!budget.Unlimited()) {
  if (budget_.deadline_ms > 0) {
    start_ = std::chrono::steady_clock::now();
  }
}

ResourceGovernor::ResourceGovernor(const ResourceBudget& budget,
                                   std::chrono::steady_clock::time_point start)
    : budget_(budget), armed_(!budget.Unlimited()) {
  if (budget_.deadline_ms > 0) {
    start_ = start;
  }
}

ResourceGovernor& ResourceGovernor::Unlimited() {
  // Shared across every call that installs no governor; the unarmed
  // Checkpoint() fast path never writes, so sharing is safe.
  static ResourceGovernor* const kUnlimited = new ResourceGovernor();
  return *kUnlimited;
}

bool ResourceGovernor::CheckpointSlow() {
  if (exhausted()) {
    return false;  // sticky: nested enumerations unwind without re-arming
  }
  if (cancel_bound_ != nullptr &&
      cancel_position_ >= cancel_bound_->load(std::memory_order_relaxed)) {
    Exhaust(ExhaustCause::kCancelled);
    return false;
  }
  const uint64_t n = ++nodes_;
  if (fault_at_ != 0 && n >= fault_at_) {
    Exhaust(ExhaustCause::kFaultInjection);
    return false;
  }
  if (budget_.max_nodes != 0 && n > budget_.max_nodes) {
    Exhaust(ExhaustCause::kNodeBudget);
    return false;
  }
  if (budget_.deadline_ms > 0 && n % kDeadlineCheckInterval == 0) {
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start_);
    if (elapsed.count() >= budget_.deadline_ms) {
      Exhaust(ExhaustCause::kDeadline);
      return false;
    }
  }
  return true;
}

bool ResourceGovernor::AdmitBlock(size_t block_facts) {
  if (WouldAdmitBlock(block_facts)) {
    return true;
  }
  // Record the refusal, except on the shared Unlimited() governor, which
  // must stay write-free, and where exhaustion alone turned the block
  // away.
  if (this != &Unlimited() &&
      (block_facts > kMaxExhaustiveBlockFacts || !exhausted())) {
    ++blocks_refused_;
  }
  return false;
}

bool ResourceGovernor::WouldAdmitBlock(size_t block_facts) const {
  if (block_facts > kMaxExhaustiveBlockFacts) {
    return false;  // binds even the unarmed governor
  }
  if (!armed_) {
    return true;
  }
  return !exhausted() &&
         (budget_.max_block == 0 || block_facts <= budget_.max_block);
}

std::string ResourceGovernor::CauseString() const {
  switch (cause()) {
    case ExhaustCause::kNone:
      break;
    case ExhaustCause::kDeadline:
      return "deadline of " + std::to_string(budget_.deadline_ms) +
             " ms exceeded after " + std::to_string(nodes_spent()) + " nodes";
    case ExhaustCause::kNodeBudget:
      return "node budget of " + std::to_string(budget_.max_nodes) +
             " exhausted";
    case ExhaustCause::kFaultInjection:
      return "fault injected at checkpoint " + std::to_string(nodes_spent());
    case ExhaustCause::kCancelled:
      return "cancelled: superseded by another block's result";
  }
  if (blocks_refused() > 0) {
    return std::to_string(blocks_refused()) +
           " block(s) refused by block-size limit";
  }
  return "within budget";
}

Status ResourceGovernor::ToStatus() const {
  if (!degraded()) {
    return Status::OK();
  }
  if (cause() == ExhaustCause::kDeadline) {
    return Status::DeadlineExceeded(CauseString());
  }
  return Status::ResourceExhausted(CauseString());
}

void ResourceGovernor::ForceExhaustAtCheckpointForTesting(uint64_t nth) {
  PREFREP_CHECK_MSG(this != &Unlimited(),
                    "fault injection on the shared unlimited governor");
  fault_at_ = nth;
  armed_ = nth != 0 || !budget_.Unlimited() || cancel_bound_ != nullptr;
}

void ResourceGovernor::ArmCancellation(
    const std::atomic<uint64_t>* cancel_bound, uint64_t position) {
  PREFREP_CHECK_MSG(this != &Unlimited(),
                    "cancellation on the shared unlimited governor");
  cancel_bound_ = cancel_bound;
  cancel_position_ = position;
  armed_ = true;
}

uint64_t ResourceGovernor::NodeFiringIndex() const {
  uint64_t firing = 0;
  if (fault_at_ != 0) {
    firing = fault_at_;
  }
  if (budget_.max_nodes != 0 &&
      (firing == 0 || budget_.max_nodes + 1 < firing)) {
    firing = budget_.max_nodes + 1;
  }
  return firing;
}

bool ResourceGovernor::TryReplay(uint64_t nodes, bool nodes_valid) {
  if (!armed_) {
    return true;  // counts nothing, so there is nothing to replay
  }
  if (exhausted()) {
    return false;  // a fresh run would not have run either
  }
  const uint64_t firing = NodeFiringIndex();
  if (budget_.Unlimited() && firing == 0) {
    // Armed for cancellation only (a worker of an ungoverned parallel
    // session): the merge never reads its node count back.
    return true;
  }
  if (!nodes_valid || (firing != 0 && nodes_spent() + nodes >= firing)) {
    // Uncounted, or the fresh run would have fired mid-block: rerun it so
    // the budget fires at exactly the same checkpoint.
    return false;
  }
  nodes_ += nodes;
  return true;
}

std::string DegradationReport::ToString() const {
  std::string out = "blocks: " + std::to_string(blocks_exact) + "/" +
                    std::to_string(blocks_total) + " solved exactly, " +
                    std::to_string(blocks_abandoned) +
                    " abandoned; nodes spent: " + std::to_string(nodes_spent);
  if (!cause.empty()) {
    out += "; cause: " + cause;
  }
  if (cache_hits + cache_misses > 0) {
    out += "; cache: " + std::to_string(cache_hits) + " hit(s), " +
           std::to_string(cache_misses) + " miss(es)";
  }
  for (const BlockDegradation& b : abandoned) {
    out += "\n  block #" + std::to_string(b.block_id) + " (" +
           std::to_string(b.block_size) + " facts, " + std::to_string(b.nodes) +
           " nodes): " + b.reason;
  }
  return out;
}

}  // namespace prefrep

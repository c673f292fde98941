// Copyright (c) prefrep contributors.
// The three end-to-end workloads (see README.md for why each exists):
//
//   bulk-check    one-shot ParseProblemText → ProblemContext →
//                 RepairChecker::CheckGloballyOptimal on large
//                 one-FD + two-keys instances (the polynomial side);
//   hard-sharded  one-shot parse → check global → bounded count on
//                 instances of 16 distinct exhaustive S1 blocks (the
//                 coNP side);
//   zipf-session  a Zipf edit/query script replayed op by op through
//                 ParseSessionOp and DurableSession::Execute.
//
// Load is one closed-loop client: each op is issued after the previous
// reply arrived.  Solving is serial (parallelism 1).  A run repeats
// whole passes (one request per instance, or one replay of every
// session script) until its time is spent, so every run measures the
// same op mix; each op's latency is its best over the passes.

#ifndef PREFREP_E2EBENCH_WORKLOADS_H_
#define PREFREP_E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Adds a traced phase after the untraced one and reports per-layer
  /// metrics from it.
  bool trace = false;
  /// Directory for WAL and snapshot files (must exist).
  std::string work_dir = ".";
  /// Where a traced run writes its spans (CSV); empty: nowhere.
  std::string spans_path;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  /// The first correctness failure, when !correct.
  std::string failure;
  uint64_t attempted = 0;
  /// Ops that returned an error status.
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  /// Filled only when RunOptions::trace is set.
  std::vector<Metric> per_layer;
  /// Deterministic per-pass counters (a function of workload and seed
  /// alone), as reported in per_layer; traced runs only.
  std::map<std::string, uint64_t> counters;
};

/// The workload names RunWorkload accepts.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload.  An unknown workload name yields !correct.
RunReport RunWorkload(const RunOptions& options);

}  // namespace e2ebench

#endif  // PREFREP_E2EBENCH_WORKLOADS_H_

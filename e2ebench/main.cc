// Copyright (c) prefrep contributors.
// The end-to-end benchmark driver:
//
//   e2ebench --workload <bulk-check|hard-sharded|zipf-session>
//            --seed <n> --seconds <s> --trace <0|1>
//            [--work-dir <dir>] [--spans <csv path>]
//
// Prints every metric as "name value unit", then, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1.  Exits 0 when every output check passed, 1 when one did
// not, 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::cerr << "e2ebench: " << why
            << "\nusage: e2ebench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] [--spans <path>]\n";
  return 2;
}

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.10g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      return Usage("unknown flag");
    }
  }
  if (argc % 2 != 1 || options.workload.empty() || options.seconds <= 0) {
    return Usage("missing or malformed arguments");
  }

  const e2ebench::RunReport report = e2ebench::RunWorkload(options);
  if (!report.correct) {
    std::cerr << "e2ebench: output check failed: " << report.failure << "\n";
  }
  for (const auto* set : {&report.end_to_end, &report.per_layer}) {
    for (const e2ebench::Metric& m : *set) {
      std::cout << m.name << " " << Number(m.value) << " " << m.unit << "\n";
    }
  }
  const auto& metrics = options.trace ? report.per_layer : report.end_to_end;
  std::string json = std::string("{\"correct\": ") +
                     (report.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const e2ebench::Metric& m = metrics[i];
    json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            Number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::cout << json << "}}" << std::endl;
  return report.correct ? 0 : 1;
}

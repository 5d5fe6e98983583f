// The run loop: set-up, the timed closed loop, checks and metrics.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"

namespace sysbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes <workload>.trace.json and
  /// <workload>.summary.json.
  std::string trace_dir = ".";
};

struct RunOutcome {
  uint64_t attempted = 0;  ///< ops started in the timed loop
  uint64_t failed = 0;     ///< ops that failed or failed an output check
  /// Everything else that went wrong: set-up, script steps, final checks,
  /// set-ups that disagreed under one seed. Any entry makes the run
  /// incorrect.
  std::vector<std::string> errors;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Canonical text of the run's deterministic metrics: virtual time and
  /// program counts over the deterministic window. Two runs with one seed
  /// and one --seconds must produce identical text.
  std::string fingerprint;

  bool correct() const { return failed == 0 && errors.empty(); }
};

using Catalog = std::vector<std::pair<std::string, std::string>>;

/// (name, unit) of every metric the untraced run reports, in output order.
const Catalog& EndToEndCatalog();
/// (name, unit) of every metric the traced run reports, in output order.
const Catalog& PerLayerCatalog();

RunOutcome RunWorkload(const RunOptions& options);

/// The result line: {"workload":..,"seed":..,"correct":..,"attempted":..,
/// "failed":..,"errors":[..],"fingerprint":..,"metrics":{..}}.
std::string OutcomeJson(const RunOptions& options, const RunOutcome& outcome);

}  // namespace sysbench

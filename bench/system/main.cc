// system_bench: runs one workload of the system benchmark.
//
//   system_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--trace-dir <dir>]
//
// Prints every metric by name with its unit, then, as the last line, one
// JSON object with the outcome (see runner.h). Exits 0 when every op and
// output check passed, 1 otherwise, 2 on a usage error. All work runs on
// one application thread with a large stack (the traverse workload
// recurses 10,000 frames deep).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "runner.h"
#include "workload/list_workload.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "system_bench: %s\nusage: system_bench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  sysbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return Usage("bad --seed");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options.seconds > 0))
        return Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");

  sysbench::RunOutcome outcome;
  obiswap::workload::RunWithBigStack(
      [&] { outcome = sysbench::RunWorkload(options); });

  for (const sysbench::Metric& metric : outcome.metrics) {
    std::printf("%-36s %16s %s\n", metric.name.c_str(),
                sysbench::FormatNumber(metric.value).c_str(),
                metric.unit.c_str());
  }
  for (const std::string& error : outcome.errors)
    std::fprintf(stderr, "system_bench: %s\n", error.c_str());
  std::printf("%s\n", sysbench::OutcomeJson(options, outcome).c_str());
  return outcome.correct() ? 0 : 1;
}

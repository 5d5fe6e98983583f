// system_bench_selftest: checks the benchmark's own statistics.
//
// Covers the percentile rules, span nesting and self time, number and
// string encoding, and prints (as its last line) a JSON object with one
// sample metric set per run mode:
//   {"end_to_end": {<metric>: {"value":..,"unit":..}, ..},
//    "per_layer": {..}}
// run.py parses that line and checks that it names exactly the metrics,
// with the units, that BENCHMARK.json lists. Exits 1 on any failure.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "runner.h"
#include "stats.h"

namespace {

using sysbench::Span;

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

void CheckNear(double got, double want, const std::string& what) {
  Check(std::fabs(got - want) < 1e-9,
        what + ": got " + std::to_string(got) + ", want " + std::to_string(want));
}

void TestPercentile() {
  using sysbench::Percentile;
  CheckNear(Percentile({}, 50), 0, "empty sample set");
  CheckNear(Percentile({7}, 1), 7, "single sample, p1");
  CheckNear(Percentile({7}, 100), 7, "single sample, p100");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted input
  CheckNear(Percentile(hundred, 50), 50, "p50 of 1..100");
  CheckNear(Percentile(hundred, 99), 99, "p99 of 1..100");
  CheckNear(Percentile(hundred, 100), 100, "p100 of 1..100");
  CheckNear(Percentile({1, 2, 3, 4}, 50), 2, "p50 of an even count");
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  // Ten samples lie strictly beyond p99 at 1,000 samples.
  CheckNear(Percentile(thousand, 99), 990, "p99 of 1..1000");
  CheckNear(Percentile({3, 1, 2}, 50), 2, "p50 of three");
}

void TestBlockPercentile() {
  using sysbench::BlockPercentile;
  // 20 blocks of 100 samples, values 1..100 in each block.
  std::vector<double> samples;
  for (int b = 0; b < 20; ++b)
    for (int i = 1; i <= 100; ++i) samples.push_back(i);
  CheckNear(BlockPercentile(samples, 99, 20), 99, "uniform blocks");
  // A burst tripling three blocks owns the plain p99 but not the block one.
  std::vector<double> burst = samples;
  for (size_t i = 500; i < 800; ++i) burst[i] *= 3;
  CheckNear(sysbench::Percentile(burst, 99), 282, "burst owns the plain p99");
  CheckNear(BlockPercentile(burst, 99, 20), 99, "burst in 3 of 20 blocks");
  // A slowdown of every block moves it.
  std::vector<double> slower = samples;
  for (double& v : slower) v *= 2;
  CheckNear(BlockPercentile(slower, 99, 20), 198, "every block slower");
  CheckNear(BlockPercentile({5, 1, 3}, 50, 20), 3, "fewer samples than blocks");
}

void TestSelfTime() {
  // op [0, 100) holds a [10, 40) and b [50, 90); a holds c [20, 30).
  std::vector<Span> spans = {
      {"op", 0, 100, -1, 1},  {"a", 10, 40, 0, 1}, {"c", 20, 30, 1, 1},
      {"b", 50, 90, 0, 1},    {"op", 100, 130, -1, 2},
      {"a", 105, 125, 4, 2},
  };
  auto totals = sysbench::Summarize(spans);
  Check(totals["op"].count == 2, "op count");
  Check(totals["op"].total_ns == 130, "op total");
  Check(totals["op"].self_ns == (100 - 30 - 40) + (30 - 20), "op self");
  Check(totals["a"].total_ns == 50, "a total");
  Check(totals["a"].self_ns == (30 - 10) + 20, "a self");
  Check(totals["c"].self_ns == 10, "leaf self equals duration");
  Check(totals["b"].self_ns == 40, "b self");

  // The recorder links parents by nesting and closes spans left open.
  sysbench::SpanRecorder recorder;
  Check(recorder.Begin("off", 1) == -1, "disabled recorder records nothing");
  recorder.set_enabled(true);
  const int32_t root = recorder.Begin("op", 7);
  const int32_t child = recorder.Begin("child", 7);
  recorder.Begin("left-open", 7);
  recorder.End(child);
  const int32_t sibling = recorder.Begin("sibling", 7);
  recorder.End(sibling);
  recorder.End(root);
  const auto& recorded = recorder.spans();
  Check(recorded.size() == 4, "four spans recorded");
  Check(recorded[1].parent == root && recorded[2].parent == child &&
            recorded[3].parent == root,
        "parent links follow nesting");
  Check(recorded[2].end_ns == recorded[1].end_ns,
        "a span left open closes with its parent");
  Check(recorded[3].op_id == 7, "op id carried");
  for (const Span& span : recorded)
    Check(span.end_ns >= span.start_ns, "span ends after it starts");
}

void TestEncoding() {
  for (double value : {0.0, 1.0, 0.1, 1.0 / 3.0, 123456.789, 1e-300, 6.02e23}) {
    const std::string text = sysbench::FormatNumber(value);
    Check(std::strtod(text.c_str(), nullptr) == value,
          "number round-trips: " + text);
  }
  Check(sysbench::FormatNumber(NAN) == "null", "NaN encodes as null");
  Check(sysbench::JsonString("a\"b\\c\n\x01") == "\"a\\\"b\\\\c\\n\\u0001\"",
        "string escaping");
}

std::string SampleMetrics(const sysbench::Catalog& catalog) {
  std::vector<sysbench::Metric> metrics;
  double value = 0.5;
  for (const auto& [name, unit] : catalog) {
    metrics.push_back({name, value, unit});
    value *= 1.5;
  }
  return sysbench::MetricsJson(metrics);
}

}  // namespace

int main() {
  TestPercentile();
  TestBlockPercentile();
  TestSelfTime();
  TestEncoding();
  std::printf("{\"end_to_end\": %s, \"per_layer\": %s}\n",
              SampleMetrics(sysbench::EndToEndCatalog()).c_str(),
              SampleMetrics(sysbench::PerLayerCatalog()).c_str());
  if (g_failures > 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  return 0;
}

// Figure 5 reproduction: "Performance penalty of Object-Swapping w.r.t.
// swap-cluster size and graph transversals."
//
// Four tests over a list of 10000 64-byte objects with quasi-empty methods,
// each run with swap-clusters of 20, 50 and 100 objects and with
// object-swapping disabled entirely (the NO SWAP-CLUSTERS lower bound):
//
//   A1 — recursive traversal passing an int depth; swap-cluster-proxies are
//        invoked only at the 10000/size boundary crossings.
//   A2 — A1 plus an inner recursion of depth 10 at every step that returns
//        a reference (discarded); every inner recursion that crosses a
//        boundary creates a swap-cluster-proxy that the LGC later reclaims.
//   B1 — full iteration with a global variable: every returned reference is
//        mediated by a *fresh* cluster-0 proxy (the §4 pathology).
//   B2 — B1 with the assign() optimization: the proxy patches itself.
//
// Besides the wall time, each cell records what its timed runs did:
// invocations, proxies created, boundary crossings and collections. These
// counts are deterministic, so two builds that mean to behave the same must
// report them identically (scripts/bench_diff.py).
//
// Paper values (ms): A1 43/38/36/35, A2 467/398/377/305, B1 339/331/296/36,
// B2 64/51/49/36 for sizes 20/50/100/none. We reproduce the *shape* — see
// EXPERIMENTS.md.
//
// `--json [path]` additionally dumps the grid to BENCH_fig5_traversal.json.
#include <cstdio>
#include <memory>
#include <optional>

#include "bench_json.h"
#include "obiswap/obiswap.h"
#include "workload/list_workload.h"

namespace {

using namespace obiswap;            // NOLINT
using runtime::Object;
using runtime::Value;
using workload::BuildList;
using workload::MedianTimeMs;
using workload::RegisterNodeClass;

constexpr int kListSize = 10000;
constexpr int kReps = 9;

/// One benchmark configuration: a runtime with (or without) the swapping
/// layer and the 10000-node list already built.
struct Config {
  explicit Config(std::optional<int> cluster_size) {
    rt = std::make_unique<runtime::Runtime>(1);
    node_cls = RegisterNodeClass(*rt);
    if (cluster_size.has_value()) {
      manager = std::make_unique<swap::SwappingManager>(*rt);
      BuildList(*rt, manager.get(), node_cls, kListSize, *cluster_size,
                "head");
    } else {
      BuildList(*rt, nullptr, node_cls, kListSize, kListSize, "head");
    }
  }

  Object* Head() { return rt->GetGlobal("head")->ref(); }

  std::unique_ptr<runtime::Runtime> rt;
  std::unique_ptr<swap::SwappingManager> manager;
  const runtime::ClassInfo* node_cls = nullptr;
};

/// Deterministic work counts of one cell's timed runs.
struct Counts {
  uint64_t invocations = 0;
  uint64_t proxies_created = 0;
  uint64_t boundary_crossings = 0;
  uint64_t collections = 0;
};

Counts ReadCounts(const Config& config) {
  Counts counts;
  const runtime::Runtime::Stats& rt_stats = config.rt->stats();
  counts.invocations =
      rt_stats.direct_invocations + rt_stats.intercepted_invocations;
  counts.collections = config.rt->heap().stats().collections;
  if (config.manager != nullptr) {
    counts.proxies_created = config.manager->stats().proxies_created;
    counts.boundary_crossings = config.manager->stats().boundary_crossings;
  }
  return counts;
}

/// Runs `test` on `config` and returns its time with the counts it added.
double Measure(Config& config, double (*test)(Config&), Counts* added) {
  const Counts before = ReadCounts(config);
  const double ms = test(config);
  const Counts after = ReadCounts(config);
  added->invocations = after.invocations - before.invocations;
  added->proxies_created = after.proxies_created - before.proxies_created;
  added->boundary_crossings =
      after.boundary_crossings - before.boundary_crossings;
  added->collections = after.collections - before.collections;
  return ms;
}

double RunA1(Config& config) {
  // A1 is fast on modern hardware; amplify each sample to escape timer and
  // GC-scheduling noise, then report per-traversal time.
  constexpr int kInner = 20;
  return MedianTimeMs(kReps, [&] {
    for (int i = 0; i < kInner; ++i) {
      Result<Value> depth =
          config.rt->Invoke(config.Head(), "step", {Value::Int(0)});
      OBISWAP_CHECK(depth.ok());
      OBISWAP_CHECK(depth->as_int() == kListSize - 1);
    }
  }) / kInner;
}

double RunA2(Config& config) {
  return MedianTimeMs(kReps, [&] {
    Result<Value> depth =
        config.rt->Invoke(config.Head(), "walk", {Value::Int(0)});
    OBISWAP_CHECK(depth.ok());
    OBISWAP_CHECK(depth->as_int() == kListSize - 1);
  });
}

/// Full iteration with a global variable ("cur"), as in the paper's B
/// tests: each step invokes next() on the object behind the global and
/// re-assigns the global.
double RunB(Config& config, bool assign) {
  return MedianTimeMs(kReps, [&] {
    // Obtain a dedicated iteration reference (probe(0) returns a mediated
    // self-reference): assign() patches the proxy in place, so the loop
    // variable must not alias the head global's proxy.
    Result<Value> start =
        config.rt->Invoke(config.Head(), "probe", {Value::Int(0)});
    OBISWAP_CHECK(start.ok());
    OBISWAP_CHECK(config.rt->SetGlobal("cur", *start).ok());
    if (assign) {
      Object* cursor = config.rt->GetGlobal("cur")->ref();
      OBISWAP_CHECK(config.manager->Assign(cursor).ok());
    }
    int steps = 0;
    for (;;) {
      Value cur = *config.rt->GetGlobal("cur");
      if (!cur.is_ref() || cur.ref() == nullptr) break;
      Result<Value> next = config.rt->Invoke(cur.ref(), "next");
      OBISWAP_CHECK(next.ok());
      OBISWAP_CHECK(config.rt->SetGlobal("cur", *next).ok());
      ++steps;
    }
    OBISWAP_CHECK(steps == kListSize);
  });
}

}  // namespace

int main(int argc, char** argv) {
  benchjson::JsonWriter json;
  workload::RunWithBigStack([&json] {
    std::printf(
        "Figure 5: Performance penalty of Object-Swapping w.r.t. "
        "swap-cluster size and graph transversals\n");
    std::printf("list: %d objects x 64 bytes, %d reps, median wall ms\n\n",
                kListSize, kReps);

    const std::optional<int> kSizes[] = {20, 50, 100, std::nullopt};
    double results[4][4] = {};
    Counts counts[4][4] = {};
    double (*run_b1)(Config&) = [](Config& c) { return RunB(c, false); };
    double (*run_b2)(Config&) = [](Config& c) { return RunB(c, true); };

    for (int col = 0; col < 4; ++col) {
      {
        Config config(kSizes[col]);
        results[0][col] = Measure(config, RunA1, &counts[0][col]);
        results[1][col] = Measure(config, RunA2, &counts[1][col]);
      }
      {
        // Fresh graph for the B tests (A2 leaves proxy garbage behind).
        // Without swap-clusters there is no assign(): B2 repeats B1.
        Config config(kSizes[col]);
        results[2][col] = Measure(config, run_b1, &counts[2][col]);
        results[3][col] = Measure(
            config, kSizes[col].has_value() ? run_b2 : run_b1,
            &counts[3][col]);
      }
    }

    const char* kRowNames[] = {"A1", "A2", "B1", "B2"};
    const double kPaper[4][4] = {{43, 38, 36, 35},
                                 {467, 398, 377, 305},
                                 {339, 331, 296, 36},
                                 {64, 51, 49, 36}};

    for (int row = 0; row < 4; ++row) {
      for (int col = 0; col < 4; ++col) {
        json.BeginRow();
        json.Add("test", std::string(kRowNames[row]));
        json.Add("cluster_size",
                 static_cast<int64_t>(kSizes[col].value_or(0)));
        json.Add("measured_ms", results[row][col]);
        json.Add("paper_ms", kPaper[row][col]);
        const Counts& cell = counts[row][col];
        json.Add("invocations", cell.invocations);
        json.Add("proxies_created", cell.proxies_created);
        json.Add("boundary_crossings", cell.boundary_crossings);
        json.Add("collections", cell.collections);
      }
    }

    std::printf("%-6s %10s %10s %10s %16s\n", "test", "20", "50", "100",
                "NO SWAP-CLUSTERS");
    for (int row = 0; row < 4; ++row) {
      std::printf("%-6s %10.1f %10.1f %10.1f %16.1f\n", kRowNames[row],
                  results[row][0], results[row][1], results[row][2],
                  results[row][3]);
      std::printf("%-6s %10.0f %10.0f %10.0f %16.0f   (paper, iPAQ 3360)\n",
                  "", kPaper[row][0], kPaper[row][1], kPaper[row][2],
                  kPaper[row][3]);
    }

    std::printf("\nshape checks (measured):\n");
    auto overhead = [&](int row, int col) {
      return 100.0 * (results[row][col] - results[row][3]) / results[row][3];
    };
    std::printf(
        "  A1 overhead vs no-swap: %+.0f%% (20), %+.0f%% (50), %+.0f%% "
        "(100)  [paper max +16%%, shrinking]\n",
        overhead(0, 0), overhead(0, 1), overhead(0, 2));
    std::printf(
        "  A2 overhead vs no-swap: %+.0f%% (20), %+.0f%% (50), %+.0f%% "
        "(100)  [paper max +53%%, shrinking]\n",
        overhead(1, 0), overhead(1, 1), overhead(1, 2));
    std::printf(
        "  B1 overhead vs no-swap: %+.0f%% (20), %+.0f%% (50), %+.0f%% "
        "(100)  [paper ~+800%%, roughly flat]\n",
        overhead(2, 0), overhead(2, 1), overhead(2, 2));
    std::printf(
        "  B2 speed-up over B1:    %.1fx (20), %.1fx (50), %.1fx (100)  "
        "[paper >5x in all cases]\n",
        results[2][0] / results[3][0], results[2][1] / results[3][1],
        results[2][2] / results[3][2]);
  });
  benchjson::MaybeWriteJson(argc, argv, json, "BENCH_fig5_traversal.json");
  return 0;
}

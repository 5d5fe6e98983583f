// Fleet-scale gate: 500 device runtimes against a 200-store shared pool in
// one deterministic virtual-time simulation.
//
// This is the bench the single-device tables cannot produce: every device
// owns a full middleware stack (runtime, swapping manager, rendezvous
// placement directory, indexed durability monitor) but they all share
// one simulated network, one store pool and one virtual clock. The script
// is the paper's environment at building scale — steady swap activity,
// then a correlated outage that silently kills 20% of the store pool at
// once, then the recovery convergence that follows.
//
// The binary enforces three gates in-process and exits nonzero if any
// fails (CI runs it as a regression tripwire):
//   1. placement balance: max store fill / mean store fill <= 1.35 over
//      the live pool after recovery (rendezvous + bounded load);
//   2. incremental durability: across the churn episode — from the outage
//      until every monitor is fully reconciled again — the per-poll replica
//      records the monitors examined are <= 10% of what a full registry
//      scan would have examined per poll over the same episode (each
//      monitor's computed `full_scan_replicas`: one whole-registry pass per
//      departed store plus one per sweep, as the deleted full-scan monitor
//      ran them);
//   3. recovery convergence: after the 20% correlated outage every cluster
//      is back at K replicas and none was lost.
//
// A walk row at the same scale (linear nearby-store placement, the same
// indexed monitors) runs alongside for the comparison table; it is not
// gated — it exists to show what the directory buys.
//
// `--json [path]` dumps the table to BENCH_fleet_scale.json.
#include <cstdio>
#include <string>

#include "bench_json.h"
#include "obiswap/obiswap.h"

namespace {

using namespace obiswap;  // NOLINT

constexpr size_t kDevices = 500;
constexpr size_t kStores = 200;
constexpr int kClustersPerDevice = 4;
constexpr int kObjectsPerCluster = 12;
constexpr size_t kReplicationFactor = 2;
constexpr int kActivityRounds = 3;
constexpr double kOutageFraction = 0.20;
constexpr int kMaxRecoveryPolls = 100;

constexpr double kBalanceGate = 1.35;
constexpr double kScanGate = 0.10;

struct Run {
  fleet::FleetReport report;
  size_t stores_killed = 0;
  int recovery_polls = -1;  ///< -1: never converged
  /// Replica records examined / examinable across the churn episode: from
  /// the outage until a whole poll passes with no monitor touching
  /// anything (the fleet is reconciled and quiet again).
  uint64_t churn_scan = 0;
  uint64_t churn_full_scan = 0;
  int churn_polls = 0;
  bool build_ok = false;
};

fleet::FleetOptions Options(bool use_directory) {
  fleet::FleetOptions options;
  options.devices = kDevices;
  options.stores = kStores;
  options.clusters_per_device = kClustersPerDevice;
  options.objects_per_cluster = kObjectsPerCluster;
  options.replication_factor = kReplicationFactor;
  options.use_directory = use_directory;
  return options;
}

/// Activity rounds, a 20% correlated store outage, recovery to K.
Run Exercise(bool use_directory) {
  Run run;
  fleet::FleetDriver driver(Options(use_directory));
  Status built = driver.Build();
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n", built.ToString().c_str());
    return run;
  }
  run.build_ok = true;
  OBISWAP_CHECK(driver.RunRounds(kActivityRounds).ok());
  fleet::FleetReport before = driver.Report();
  run.stores_killed = driver.InjectCorrelatedOutage(kOutageFraction);
  Result<int> recovered = driver.RunUntilRecovered(kMaxRecoveryPolls);
  if (recovered.ok()) run.recovery_polls = *recovered;
  run.churn_polls = run.recovery_polls < 0 ? kMaxRecoveryPolls
                                           : run.recovery_polls;
  // The churn episode ends when the monitors are quiet again, not when the
  // last replica lands: post-repair refreshes drain over the next polls.
  for (int settle = 0; settle < 10; ++settle) {
    uint64_t scanned = driver.Report().scan_replicas;
    driver.PollAll();
    ++run.churn_polls;
    if (driver.Report().scan_replicas == scanned) break;
  }
  run.report = driver.Report();
  run.churn_scan = run.report.scan_replicas - before.scan_replicas;
  run.churn_full_scan =
      run.report.full_scan_replicas - before.full_scan_replicas;
  return run;
}

double ChurnScanRatio(const Run& run) {
  if (run.churn_full_scan == 0) return 1.0;
  return static_cast<double>(run.churn_scan) /
         static_cast<double>(run.churn_full_scan);
}

/// Replica records per poll across the run's churn episode.
double PerChurnPoll(const Run& run, uint64_t records) {
  if (run.churn_polls <= 0) return 0.0;
  return static_cast<double>(records) / static_cast<double>(run.churn_polls);
}

void AddRow(benchjson::JsonWriter& json, const char* config, const Run& run) {
  const fleet::FleetReport& r = run.report;
  const double scan_ratio = ChurnScanRatio(run);
  std::printf(
      "%-12s  %4zu dev  %3zu/%3zu stores live  balance %.3f  "
      "churn scan %llu/%llu (%.1f%%)  re-repl %llu  recovery %d polls  "
      "%.0f swaps/s\n",
      config, kDevices, r.live_stores, kStores, r.balance_max_over_mean,
      (unsigned long long)run.churn_scan,
      (unsigned long long)run.churn_full_scan, scan_ratio * 100.0,
      (unsigned long long)r.replicas_re_replicated, run.recovery_polls,
      r.swap_ops_per_s);
  json.BeginRow();
  json.Add("config", std::string(config));
  json.Add("devices", static_cast<uint64_t>(kDevices));
  json.Add("stores", static_cast<uint64_t>(kStores));
  json.Add("live_stores", static_cast<uint64_t>(r.live_stores));
  json.Add("stores_killed", static_cast<uint64_t>(run.stores_killed));
  json.Add("swap_outs", r.swap_outs);
  json.Add("swap_ins", r.swap_ins);
  json.Add("swap_ops_per_s", r.swap_ops_per_s);
  json.Add("replicas_placed", r.replicas_placed);
  json.Add("fleet_placements", r.fleet_placements);
  json.Add("balance_max_over_mean", r.balance_max_over_mean);
  json.Add("stores_departed", r.stores_departed);
  json.Add("replicas_re_replicated", r.replicas_re_replicated);
  json.Add("scan_replicas", r.scan_replicas);
  json.Add("full_scan_replicas", r.full_scan_replicas);
  json.Add("churn_scan_replicas", run.churn_scan);
  json.Add("churn_full_scan_replicas", run.churn_full_scan);
  json.Add("churn_polls", static_cast<int64_t>(run.churn_polls));
  json.Add("churn_scan_per_poll", PerChurnPoll(run, run.churn_scan));
  json.Add("churn_scan_ratio", scan_ratio);
  json.Add("recovery_polls", static_cast<int64_t>(run.recovery_polls));
  json.Add("clusters_below_k", static_cast<uint64_t>(r.clusters_below_k));
  json.Add("clusters_lost", static_cast<uint64_t>(r.clusters_lost));
  json.Add("virtual_us", r.virtual_us);
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("fleet_scale: %zu devices x %zu stores, K=%zu, "
              "%d clusters/device, %d%% correlated outage\n\n",
              kDevices, kStores, kReplicationFactor, kClustersPerDevice,
              static_cast<int>(kOutageFraction * 100));

  benchjson::JsonWriter json;
  Run directory = Exercise(/*use_directory=*/true);
  Run walk = Exercise(/*use_directory=*/false);
  if (!directory.build_ok || !walk.build_ok) return 1;
  AddRow(json, "directory", directory);
  AddRow(json, "walk", walk);

  const fleet::FleetReport& r = directory.report;
  // Per-poll replica touches under churn, examined vs what full registry
  // scans would have examined over the same episode.
  const double incremental_per_poll =
      PerChurnPoll(directory, directory.churn_scan);
  const double baseline_per_poll =
      PerChurnPoll(directory, directory.churn_full_scan);
  const double scan_ratio = baseline_per_poll <= 0.0
                                ? 1.0
                                : incremental_per_poll / baseline_per_poll;
  const bool balance_gate =
      r.balance_max_over_mean > 0.0 && r.balance_max_over_mean <= kBalanceGate;
  const bool scan_gate = scan_ratio <= kScanGate;
  // The greedy outage spares any store whose death would strand a cluster's
  // last replica (the scripted failure is survivable by construction), so
  // the realized kill count can fall short of the 20% target once victims
  // saturate the replica graph — require at least a tenth of the pool
  // (half the nominal target) actually went down.
  const bool recovery_gate = directory.recovery_polls >= 0 &&
                             directory.stores_killed >= kStores / 10 &&
                             r.clusters_below_k == 0 && r.clusters_lost == 0 &&
                             r.replicas_re_replicated > 0;
  std::printf(
      "\ngates: balance %.3f (need <= %.2f) %s | churn scans/poll %.0f vs "
      "baseline %.0f (%.1f%%, need <= %.0f%%) %s | %zu stores killed, "
      "recovered in %d polls, %zu below K, %zu lost %s\n",
      r.balance_max_over_mean, kBalanceGate, balance_gate ? "ok" : "FAIL",
      incremental_per_poll, baseline_per_poll, scan_ratio * 100.0,
      kScanGate * 100.0, scan_gate ? "ok" : "FAIL", directory.stores_killed,
      directory.recovery_polls, r.clusters_below_k, r.clusters_lost,
      recovery_gate ? "ok" : "FAIL");

  json.BeginRow();
  json.Add("config", std::string("gate"));
  json.Add("incremental_scan_per_poll", incremental_per_poll);
  json.Add("baseline_scan_per_poll", baseline_per_poll);
  json.Add("scan_per_poll_ratio", scan_ratio);
  json.Add("balance_gate", std::string(balance_gate ? "ok" : "fail"));
  json.Add("scan_gate", std::string(scan_gate ? "ok" : "fail"));
  json.Add("recovery_gate", std::string(recovery_gate ? "ok" : "fail"));

  benchjson::MaybeWriteJson(argc, argv, json, "BENCH_fleet_scale.json");
  return balance_gate && scan_gate && recovery_gate ? 0 : 1;
}

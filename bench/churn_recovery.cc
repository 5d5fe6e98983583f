// Churn recovery: how the durability layer (K-replica placement + the
// DurabilityMonitor) responds when store devices permanently wander off.
//
// The harness swaps a clustered list out across a pool of stores, then
// repeatedly kills one store (silent departure — the monitor must notice
// via missed polls) while a fresh store joins. Swept over the replication
// factor K and the churn period (virtual time between departures). Emits:
//
//   * replicas lost      — replica records that died with departed stores
//   * re-replicated KB   — payload bytes copied to restore K
//   * recovery ms        — mean virtual time from a departure to the point
//                          every surviving cluster is back at K replicas
//                          (includes the miss-threshold detection window)
//   * clusters lost      — swapped clusters that cannot be swapped in after
//                          the run (all replicas gone = real data loss)
//
// Expected shape: K=1 turns every unlucky departure into a lost cluster;
// K>=2 converts departures into bounded recovery latency and extra radio
// bytes, with zero loss as long as the churn period exceeds the detection +
// re-replication time.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_json.h"
#include "obiswap/obiswap.h"
#include "workload/list_workload.h"

namespace {

using namespace obiswap;  // NOLINT

constexpr int kObjects = 160;
constexpr int kPerCluster = 20;
constexpr int kStorePool = 4;
constexpr int kDepartures = 6;
constexpr uint64_t kPollUs = 250'000;  // monitor cadence: 4 Hz virtual
constexpr size_t kStoreCapacity = 8 * 1024 * 1024;

struct RunResult {
  uint64_t replicas_lost = 0;
  uint64_t re_replicated_bytes = 0;
  double mean_recovery_ms = 0.0;
  int recovered_departures = 0;
  int clusters_lost = 0;
};

RunResult RunChurn(size_t replication_factor, uint64_t churn_period_us,
                   telemetry::Telemetry* trace) {
  net::Network network(11);
  net::Discovery discovery(network);
  DeviceId pda(1);
  network.AddDevice(pda);

  runtime::Runtime rt(1);
  const runtime::ClassInfo* cls = workload::RegisterNodeClass(rt);
  swap::SwappingManager::Options options;
  options.replication_factor = replication_factor;
  context::EventBus bus;  // outlives the manager, which unsubscribes on exit
  swap::SwappingManager manager(rt, options);
  net::StoreClient client(network, discovery, pda);
  manager.AttachStore(&client, &discovery);
  manager.AttachBus(&bus);
  trace->tracer().BeginTrack("churn K=" + std::to_string(replication_factor) +
                             " period_s=" +
                             std::to_string(churn_period_us / 1000000));
  trace->AttachClock(&network.clock());
  manager.AttachTelemetry(trace);
  client.AttachTelemetry(trace);
  swap::DurabilityMonitor monitor(manager, discovery, pda, bus);

  std::vector<std::unique_ptr<net::StoreNode>> stores;
  std::vector<bool> departed;
  uint32_t next_device = 2;
  auto add_store = [&]() {
    DeviceId device(next_device++);
    network.AddDevice(device);
    network.SetInRange(pda, device, true);
    stores.push_back(std::make_unique<net::StoreNode>(device, kStoreCapacity));
    departed.push_back(false);
    discovery.Announce(stores.back().get());
  };
  for (int i = 0; i < kStorePool; ++i) add_store();

  auto clusters =
      workload::BuildList(rt, &manager, cls, kObjects, kPerCluster, "head");
  for (SwapClusterId id : clusters) OBISWAP_CHECK(manager.SwapOut(id).ok());
  monitor.Poll();

  auto all_at_full_k = [&]() {
    for (SwapClusterId id : clusters) {
      const swap::SwapClusterInfo* info = manager.registry().Find(id);
      if (info->state != swap::SwapState::kSwapped) continue;
      if (info->replicas.empty()) continue;  // unrecoverable, not "healing"
      if (info->replicas.size() < replication_factor) return false;
    }
    return true;
  };

  RunResult result;
  double recovery_ms_total = 0.0;
  for (int round = 0; round < kDepartures; ++round) {
    // The live store holding the most payload departs, silently; a fresh
    // (empty) store joins at the same moment.
    size_t victim = 0;
    size_t victim_entries = 0;
    for (size_t i = 0; i < stores.size(); ++i) {
      if (departed[i]) continue;
      if (stores[i]->entry_count() >= victim_entries) {
        victim = i;
        victim_entries = stores[i]->entry_count();
      }
    }
    network.RemoveDevice(stores[victim]->device());
    departed[victim] = true;
    add_store();

    uint64_t departure_at = network.clock().now_us();
    bool recovered = false;
    while (network.clock().now_us() - departure_at < churn_period_us) {
      network.clock().Advance(kPollUs);
      monitor.Poll();
      if (!recovered && all_at_full_k()) {
        recovered = true;
        recovery_ms_total +=
            (network.clock().now_us() - departure_at) / 1000.0;
        ++result.recovered_departures;
        // Idle out the rest of the period (no work left to do).
      }
    }
  }

  for (SwapClusterId id : clusters) {
    if (manager.StateOf(id) != swap::SwapState::kSwapped) continue;
    if (!manager.SwapIn(id).ok()) ++result.clusters_lost;
  }
  result.replicas_lost = manager.stats().replicas_forgotten;
  result.re_replicated_bytes = manager.stats().bytes_re_replicated;
  result.mean_recovery_ms = result.recovered_departures > 0
                                ? recovery_ms_total /
                                      result.recovered_departures
                                : 0.0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  benchjson::JsonWriter json;
  telemetry::Telemetry::Options trace_options;
  trace_options.tracer_capacity = 1 << 16;
  telemetry::Telemetry trace(trace_options);
  std::printf(
      "Churn recovery: %d store departures, %d-store pool, %d clusters "
      "(poll every %.0f virtual ms, %d-poll miss threshold)\n\n",
      kDepartures, kStorePool, (kObjects + kPerCluster - 1) / kPerCluster,
      kPollUs / 1000.0, 3);
  std::printf("%3s %10s %14s %16s %14s %14s\n", "K", "period s",
              "replicas lost", "re-replic. KB", "recovery ms",
              "clusters lost");
  for (uint64_t period_us : {2'000'000ull, 10'000'000ull}) {
    for (size_t k : {1u, 2u, 3u}) {
      RunResult run = RunChurn(k, period_us, &trace);
      std::printf("%3zu %10.0f %14llu %16.1f %14.1f %14d\n", k,
                  period_us / 1e6, (unsigned long long)run.replicas_lost,
                  run.re_replicated_bytes / 1024.0, run.mean_recovery_ms,
                  run.clusters_lost);
      json.BeginRow();
      json.Add("replication_factor", static_cast<int64_t>(k));
      json.Add("churn_period_s", period_us / 1e6);
      json.Add("replicas_lost", run.replicas_lost);
      json.Add("re_replicated_bytes", run.re_replicated_bytes);
      json.Add("mean_recovery_ms", run.mean_recovery_ms);
      json.Add("clusters_lost", static_cast<int64_t>(run.clusters_lost));
    }
  }
  std::printf(
      "\nreading: K=1 has nothing to recover from — a departed store takes "
      "its clusters with it.\nK>=2 pays ~K transfers per swap-out plus the "
      "re-replication bytes above, and in exchange\nevery departure becomes "
      "bounded recovery latency (detection window + one store-to-store\n"
      "copy per lost replica) instead of data loss.\n");
  benchjson::MaybeWriteJson(argc, argv, json, "BENCH_churn_recovery.json");
  if (!benchjson::MaybeWriteTrace(argc, argv, trace)) return 1;
  return 0;
}

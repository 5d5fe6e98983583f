// Degraded-mode chaos bench: demand-fault behavior when the store
// neighborhood turns sick, with and without hedged failover fetch.
//
// The harness places 8 clusters across a 4-store pool at K=2, warms the
// HealthTracker's latency distribution with healthy traffic, then applies
// one degradation to the store(s) holding the most payload:
//
//   none        — control
//   slow        — 3 s link setup latency (the store answers, glacially)
//   lossy       — 60% transfer loss (the store answers, eventually)
//   dead        — offline (silent departure; the monitor must notice)
//   correlated  — 3 of 4 stores die at once (forces brownout: healthy < K)
//
// Each (scenario, hedging) run then measures 6 rounds of demand swap-ins
// (stall = virtual time per fault) with DurabilityMonitor polls in
// between. Gates, enforced by the exit code:
//
//   * availability — every demand fault on a cluster with >= 1 replica on
//     an online store MUST succeed, in every scenario, hedged or not (the
//     hedge's abandoned-primary retry is what keeps this true);
//   * hedging      — p99 stall under `slow` must improve >= 2x with
//     hedging on versus off.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "obiswap/obiswap.h"
#include "workload/list_workload.h"

namespace {

using namespace obiswap;  // NOLINT

constexpr int kObjects = 160;
constexpr int kPerCluster = 20;
constexpr int kStorePool = 4;
constexpr int kWarmRounds = 2;
constexpr int kRounds = 6;
constexpr uint64_t kPollUs = 250'000;  // monitor cadence: 4 Hz virtual
constexpr size_t kStoreCapacity = 8 * 1024 * 1024;

enum class Kind { kNone, kSlow, kLossy, kDead, kCorrelated };

struct Scenario {
  const char* name;
  Kind kind;
};

constexpr Scenario kScenarios[] = {
    {"none", Kind::kNone},           {"slow", Kind::kSlow},
    {"lossy", Kind::kLossy},         {"dead", Kind::kDead},
    {"correlated", Kind::kCorrelated},
};

struct RunResult {
  uint64_t covered_attempts = 0;
  uint64_t covered_successes = 0;
  uint64_t uncovered_attempts = 0;
  uint64_t p50_us = 0;
  uint64_t p95_us = 0;
  uint64_t p99_us = 0;
  uint64_t hedged_fetches = 0;
  uint64_t hedge_wins = 0;
  uint64_t hedge_wastes = 0;
  uint64_t failover_fetches = 0;
  uint64_t breaker_trips = 0;
  uint64_t breaker_rejections = 0;
  uint64_t brownout_entries = 0;
  int clusters_lost = 0;
  bool available() const { return covered_successes == covered_attempts; }
};

uint64_t Percentile(std::vector<uint64_t> samples, double pct) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>((pct / 100.0) * samples.size() + 0.999999);
  if (rank == 0) rank = 1;
  if (rank > samples.size()) rank = samples.size();
  return samples[rank - 1];
}

RunResult RunScenario(const Scenario& scenario, bool hedging,
                      telemetry::Telemetry* trace) {
  net::Network network(11);
  net::Discovery discovery(network);
  DeviceId pda(1);
  network.AddDevice(pda);

  runtime::Runtime rt(1);
  const runtime::ClassInfo* cls = workload::RegisterNodeClass(rt);
  swap::SwappingManager::Options options;
  options.replication_factor = 2;
  context::EventBus bus;  // outlives the manager, which unsubscribes on exit
  swap::SwappingManager manager(rt, options);
  net::StoreClient client(network, discovery, pda);
  manager.AttachStore(&client, &discovery);
  manager.AttachBus(&bus);
  manager.AttachClock(&network.clock());
  trace->tracer().BeginTrack(std::string("degraded ") + scenario.name +
                             (hedging ? " hedged" : " plain"));
  trace->AttachClock(&network.clock());
  manager.AttachTelemetry(trace);
  client.AttachTelemetry(trace);

  net::HealthTracker tracker(&network.clock());
  client.AttachHealth(&tracker);
  manager.AttachHealth(&tracker);
  manager.set_hedged_fetch(hedging);
  swap::DurabilityMonitor monitor(manager, discovery, pda, bus);
  monitor.AttachHealth(&tracker);

  std::vector<std::unique_ptr<net::StoreNode>> stores;
  for (int i = 0; i < kStorePool; ++i) {
    DeviceId device(2 + i);
    network.AddDevice(device);
    network.SetInRange(pda, device, true);
    stores.push_back(std::make_unique<net::StoreNode>(device, kStoreCapacity));
    discovery.Announce(stores.back().get());
  }

  auto clusters =
      workload::BuildList(rt, &manager, cls, kObjects, kPerCluster, "head");

  // Warm-up: healthy swap-out/in cycles populate the tracker's success
  // latency histogram, so the hedge deadline is live before degradation.
  for (int round = 0; round < kWarmRounds; ++round) {
    for (SwapClusterId id : clusters) OBISWAP_CHECK(manager.SwapOut(id).ok());
    network.clock().Advance(kPollUs);
    monitor.Poll();
    for (SwapClusterId id : clusters) OBISWAP_CHECK(manager.SwapIn(id).ok());
    network.clock().Advance(kPollUs);
    monitor.Poll();
  }
  for (SwapClusterId id : clusters) OBISWAP_CHECK(manager.SwapOut(id).ok());

  // Degrade the store(s) holding the most payload — the ones demand
  // fetches are most likely to hit first.
  std::vector<net::StoreNode*> by_load;
  for (auto& store : stores) by_load.push_back(store.get());
  std::sort(by_load.begin(), by_load.end(),
            [](net::StoreNode* a, net::StoreNode* b) {
              return a->entry_count() > b->entry_count();
            });
  net::LinkParams degraded_link;
  switch (scenario.kind) {
    case Kind::kNone:
      break;
    case Kind::kSlow:
      degraded_link.latency_us = 3'000'000;
      network.SetLinkParams(pda, by_load[0]->device(), degraded_link);
      break;
    case Kind::kLossy:
      degraded_link.loss_rate = 0.6;
      network.SetLinkParams(pda, by_load[0]->device(), degraded_link);
      break;
    case Kind::kDead:
      network.SetOnline(by_load[0]->device(), false);
      break;
    case Kind::kCorrelated:
      for (int i = 0; i < 3; ++i)
        network.SetOnline(by_load[i]->device(), false);
      break;
  }
  network.clock().Advance(kPollUs);
  monitor.Poll();

  RunResult result;
  std::vector<uint64_t> stalls_us;
  for (int round = 0; round < kRounds; ++round) {
    for (SwapClusterId id : clusters) {
      if (manager.StateOf(id) != swap::SwapState::kSwapped) continue;
      const swap::SwapClusterInfo* info = manager.registry().Find(id);
      bool covered = false;
      for (const swap::ReplicaLocation& replica : info->replicas)
        if (network.IsOnline(replica.device)) covered = true;
      uint64_t before = network.clock().now_us();
      bool ok = manager.SwapIn(id).ok();
      if (covered) {
        ++result.covered_attempts;
        if (ok) {
          ++result.covered_successes;
          stalls_us.push_back(network.clock().now_us() - before);
        }
      } else {
        ++result.uncovered_attempts;
      }
    }
    for (SwapClusterId id : clusters) {
      if (manager.StateOf(id) == swap::SwapState::kLoaded)
        (void)manager.SwapOut(id);
    }
    network.clock().Advance(kPollUs);
    monitor.Poll();
  }

  for (SwapClusterId id : clusters) {
    const swap::SwapClusterInfo* info = manager.registry().Find(id);
    if (manager.StateOf(id) == swap::SwapState::kSwapped &&
        (info == nullptr || info->replicas.empty()))
      ++result.clusters_lost;
  }
  result.p50_us = Percentile(stalls_us, 50);
  result.p95_us = Percentile(stalls_us, 95);
  result.p99_us = Percentile(stalls_us, 99);
  result.hedged_fetches = manager.stats().hedged_fetches;
  result.hedge_wins = manager.stats().hedge_wins;
  result.hedge_wastes = manager.stats().hedge_wastes;
  result.failover_fetches = manager.stats().failover_fetches;
  result.breaker_trips = tracker.stats().trips;
  result.breaker_rejections = client.stats().breaker_rejections;
  result.brownout_entries = manager.stats().brownout_entries;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  benchjson::JsonWriter json;
  telemetry::Telemetry::Options trace_options;
  trace_options.tracer_capacity = 1 << 16;
  telemetry::Telemetry trace(trace_options);
  std::printf(
      "Degraded mode: %d clusters over a %d-store pool at K=2, %d demand "
      "rounds per run\n(breakers on; hedge deadline = tracker p95; poll "
      "every %.0f virtual ms)\n\n",
      (kObjects + kPerCluster - 1) / kPerCluster, kStorePool, kRounds,
      kPollUs / 1000.0);
  std::printf("%11s %6s %6s %10s %10s %10s %6s %6s %6s %6s %5s\n", "scenario",
              "hedge", "avail", "p50 ms", "p95 ms", "p99 ms", "hedges",
              "wins", "fails", "rejs", "lost");

  bool availability_ok = true;
  uint64_t slow_p99_plain = 0;
  uint64_t slow_p99_hedged = 0;
  for (const Scenario& scenario : kScenarios) {
    for (bool hedging : {false, true}) {
      RunResult run = RunScenario(scenario, hedging, &trace);
      if (!run.available()) availability_ok = false;
      if (scenario.kind == Kind::kSlow)
        (hedging ? slow_p99_hedged : slow_p99_plain) = run.p99_us;
      double avail_pct =
          run.covered_attempts == 0
              ? 100.0
              : 100.0 * run.covered_successes / run.covered_attempts;
      std::printf("%11s %6s %5.1f%% %10.1f %10.1f %10.1f %6llu %6llu %6llu "
                  "%6llu %5d\n",
                  scenario.name, hedging ? "on" : "off", avail_pct,
                  run.p50_us / 1000.0, run.p95_us / 1000.0,
                  run.p99_us / 1000.0,
                  (unsigned long long)run.hedged_fetches,
                  (unsigned long long)run.hedge_wins,
                  (unsigned long long)run.failover_fetches,
                  (unsigned long long)run.breaker_rejections,
                  run.clusters_lost);
      json.BeginRow();
      json.Add("scenario", std::string(scenario.name));
      json.Add("hedging", static_cast<int64_t>(hedging ? 1 : 0));
      json.Add("covered_attempts", run.covered_attempts);
      json.Add("covered_successes", run.covered_successes);
      json.Add("uncovered_attempts", run.uncovered_attempts);
      json.Add("availability_pct", avail_pct);
      json.Add("p50_stall_ms", run.p50_us / 1000.0);
      json.Add("p95_stall_ms", run.p95_us / 1000.0);
      json.Add("p99_stall_ms", run.p99_us / 1000.0);
      json.Add("hedged_fetches", run.hedged_fetches);
      json.Add("hedge_wins", run.hedge_wins);
      json.Add("hedge_wastes", run.hedge_wastes);
      json.Add("failover_fetches", run.failover_fetches);
      json.Add("breaker_trips", run.breaker_trips);
      json.Add("breaker_rejections", run.breaker_rejections);
      json.Add("brownout_entries", run.brownout_entries);
      json.Add("clusters_lost", static_cast<int64_t>(run.clusters_lost));
    }
  }

  std::printf(
      "\nreading: a slow store taxes every unhedged fault with its full "
      "latency; the hedge abandons it\nat the tracker's p95 and serves from "
      "a healthy replica, at worst re-trying the abandoned copy\n(so "
      "availability never drops below the sequential walk's). Dead and "
      "lossy stores trip their\nbreakers and leave the rotation; correlated "
      "death drops below K healthy stores and enters\nbrownout (reduced-K "
      "placement, deferred re-replication debt).\n");

  int failed = 0;
  if (!availability_ok) {
    std::fprintf(stderr,
                 "GATE FAILED: a demand fault with >= 1 online replica did "
                 "not succeed\n");
    failed = 1;
  }
  if (slow_p99_plain == 0 || slow_p99_hedged == 0 ||
      slow_p99_hedged * 2 > slow_p99_plain) {
    std::fprintf(stderr,
                 "GATE FAILED: hedged p99 under one-slow-store must improve "
                 ">= 2x (plain %llu us vs hedged %llu us)\n",
                 (unsigned long long)slow_p99_plain,
                 (unsigned long long)slow_p99_hedged);
    failed = 1;
  }

  benchjson::MaybeWriteJson(argc, argv, json, "BENCH_degraded_mode.json");
  if (!benchjson::MaybeWriteTrace(argc, argv, trace)) return 1;
  return failed;
}

// The paper's closing vision: "a myriad of small memory-enabled devices
// with wireless connectivity, scattered all-over, available to any user
// either to store data or to relay communications."
//
// A PDA works next to a shifting population of store devices. Devices
// announce themselves, fill up, wander out of range and come back; the
// middleware spreads swapped clusters across whatever is reachable and
// copes when a cluster's store is temporarily gone.
//
//   ./build/examples/nearby_storage_network
#include <cstdio>

#include "obiswap/obiswap.h"
#include "workload/list_workload.h"

using namespace obiswap;  // NOLINT
using runtime::Value;

int main() {
  net::Network network(/*seed=*/2026);
  net::Discovery discovery(network);
  DeviceId pda(1);
  network.AddDevice(pda);
  net::StoreClient client(network, discovery, pda);

  runtime::Runtime rt(1);
  const runtime::ClassInfo* node_cls = workload::RegisterNodeClass(rt);
  context::EventBus bus;
  context::PropertyRegistry props;
  swap::SwappingManager manager(rt);
  manager.AttachStore(&client, &discovery);
  manager.AttachBus(&bus);
  context::ConnectivityMonitor connectivity(network, discovery, pda, bus,
                                            props);
  bus.Subscribe(context::kEventConnectivityChanged,
                [&](const context::Event& event) {
                  std::printf("  [context] connectivity changed: %lld "
                              "stores nearby, %lld bytes free\n",
                              (long long)event.GetIntOr("nearby_count", 0),
                              (long long)event.GetIntOr("nearby_free_bytes",
                                                        0));
                });

  // Three small store devices with different capacities.
  std::vector<std::unique_ptr<net::StoreNode>> stores;
  auto add_store = [&](uint32_t id, size_t capacity) {
    DeviceId device(id);
    network.AddDevice(device);
    network.SetInRange(pda, device, true);
    stores.push_back(std::make_unique<net::StoreNode>(device, capacity));
    discovery.Announce(stores.back().get());
    connectivity.Poll();
    return stores.back().get();
  };
  std::printf("a picture frame, a printer and a kiosk come into range:\n");
  net::StoreNode* frame = add_store(2, 8 * 1024);
  net::StoreNode* printer = add_store(3, 24 * 1024);
  net::StoreNode* kiosk = add_store(4, 10 * 1024 * 1024);

  // Build 8 swap-clusters of 25 objects and push them all out.
  auto clusters = workload::BuildList(rt, &manager, node_cls, 200, 25,
                                      "data");
  std::printf("\nswapping out all %zu clusters (stores picked by free "
              "space):\n", clusters.size());
  for (SwapClusterId id : clusters) {
    Result<SwapKey> key = manager.SwapOut(id);
    OBISWAP_CHECK(key.ok());
    const swap::SwapClusterInfo* info = manager.registry().Find(id);
    std::printf("  cluster %u -> device %u (%zu B)\n", id.value(),
                info->replicas[0].device.value(),
                info->payload_bytes);
  }
  rt.heap().Collect();
  std::printf("placement: frame=%zu printer=%zu kiosk=%zu entries\n",
              frame->entry_count(), printer->entry_count(),
              kiosk->entry_count());

  // The kiosk (holding most clusters) goes out of range mid-session.
  std::printf("\nthe kiosk wanders out of range...\n");
  network.SetInRange(pda, kiosk->device(), false);
  connectivity.Poll();
  auto sum = ::obiswap::workload::TimeMs([] {});  // (silence unused warning)
  (void)sum;

  Value cursor = *rt.GetGlobal("data");
  Result<Value> first_try = rt.Invoke(cursor.ref(), "get_value");
  if (!first_try.ok()) {
    std::printf("  traversal blocked as expected: %s\n",
                first_try.status().ToString().c_str());
  } else {
    std::printf("  head cluster was on a reachable store; value %lld\n",
                (long long)first_try->as_int());
  }

  std::printf("...and comes back.\n");
  network.SetInRange(pda, kiosk->device(), true);
  connectivity.Poll();

  // Now the full traversal succeeds, faulting clusters from all stores.
  int64_t total = 0;
  int steps = 0;
  cursor = *rt.GetGlobal("data");
  while (cursor.is_ref() && cursor.ref() != nullptr) {
    total += rt.Invoke(cursor.ref(), "get_value")->as_int();
    cursor = *rt.Invoke(cursor.ref(), "next");
    ++steps;
  }
  std::printf("\nfull traversal: %d objects, sum %lld (expected %d)\n",
              steps, (long long)total, 200 * 199 / 2);
  std::printf("swap-ins: %llu; store entries left: frame=%zu printer=%zu "
              "kiosk=%zu\n",
              (unsigned long long)manager.stats().swap_ins,
              frame->entry_count(), printer->entry_count(),
              kiosk->entry_count());

  // Finally: spill everything out again, then discard the data entirely —
  // the middleware tells the stores to drop the now-unreachable XML.
  for (SwapClusterId id : clusters) {
    OBISWAP_CHECK(manager.SwapOut(id).ok());
  }
  std::printf("\ndiscarding the data; unreachable swapped clusters are "
              "dropped from the stores:\n");
  rt.RemoveGlobal("data");
  rt.heap().Collect();
  rt.heap().Collect();
  std::printf("  drops issued: %llu; entries left: frame=%zu printer=%zu "
              "kiosk=%zu\n",
              (unsigned long long)manager.stats().drops,
              frame->entry_count(), printer->entry_count(),
              kiosk->entry_count());
  OBISWAP_CHECK(total == 200 * 199 / 2);
  return 0;
}

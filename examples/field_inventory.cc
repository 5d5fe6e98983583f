// Disconnected work with transactions: a field technician's inventory app.
//
// The device replicates a parts inventory, goes out of range, edits stock
// counts inside an optimistic transaction, and commits on reconnection.
// A colleague's device commits first on one shared part, so the second
// commit conflicts, rolls back locally, and succeeds after refreshing.
// Swapping runs underneath: cold inventory sections spill to a shelf PC.
//
//   ./build/examples/field_inventory
#include <cstdio>

#include "obiswap/obiswap.h"

using namespace obiswap;  // NOLINT
using runtime::ClassBuilder;
using runtime::LocalScope;
using runtime::Object;
using runtime::Value;
using runtime::ValueKind;

namespace {

constexpr int kParts = 40;
constexpr DeviceId kTech(1);
constexpr DeviceId kColleague(2);
constexpr DeviceId kDepot(100);
constexpr DeviceId kShelf(3);

const runtime::ClassInfo* RegisterPart(runtime::Runtime& rt) {
  return *rt.types().Register(
      ClassBuilder("Part")
          .Field("name", ValueKind::kStr)
          .Field("stock", ValueKind::kInt)
          .Field("next", ValueKind::kRef)
          .Method("stock",
                  [](runtime::Runtime& r, Object* self, runtime::Args) {
                    return Result<Value>(r.GetFieldAt(self, 1));
                  })
          .Method("next",
                  [](runtime::Runtime& r, Object* self, runtime::Args) {
                    return Result<Value>(r.GetFieldAt(self, 2));
                  }));
}

}  // namespace

int main() {
  // Depot server with the master inventory.
  runtime::Runtime depot_rt(9);
  const runtime::ClassInfo* part_cls = RegisterPart(depot_rt);
  replication::ReplicationServer depot(depot_rt, /*cluster_size=*/10);
  tx::TxMaster tx_master(depot);
  std::vector<ObjectId> part_oids;
  {
    LocalScope scope(depot_rt.heap());
    Object** chain = scope.Add(nullptr);
    for (int i = kParts - 1; i >= 0; --i) {
      Object* part = depot_rt.New(part_cls);
      OBISWAP_CHECK(depot_rt
                        .SetField(part, "name",
                                  Value::Str("part-" + std::to_string(i)))
                        .ok());
      OBISWAP_CHECK(depot_rt.SetField(part, "stock", Value::Int(100)).ok());
      if (*chain != nullptr)
        OBISWAP_CHECK(depot_rt.SetField(part, "next", Value::Ref(*chain)).ok());
      *chain = part;
      part_oids.insert(part_oids.begin(), part->oid());
    }
    OBISWAP_CHECK(depot.PublishRoot("inventory", *chain).ok());
  }
  std::printf("depot: %d parts published, all stock at 100\n", kParts);

  // The technician's device: network, shelf store, middleware, replication.
  net::Network network;
  net::Discovery discovery(network);
  for (DeviceId device : {kTech, kColleague, kDepot, kShelf}) {
    network.AddDevice(device);
  }
  network.SetInRange(kTech, kDepot, true);
  network.SetInRange(kTech, kShelf, true);
  net::StoreNode shelf(kShelf, 8 * 1024 * 1024);
  discovery.Announce(&shelf);
  net::StoreClient store_client(network, discovery, kTech);

  runtime::Runtime rt(1);
  RegisterPart(rt);
  context::EventBus bus;
  swap::SwappingManager manager(rt);
  manager.AttachStore(&store_client, &discovery);
  manager.AttachBus(&bus);
  replication::ReplicationService repl_service(depot);
  replication::NetworkLink link(network, kTech, kDepot, repl_service);
  replication::DeviceEndpoint endpoint(rt, link, kTech, &bus);
  tx::TxService tx_service(tx_master);
  tx::TxManager tx(rt, endpoint, &manager,
                   tx::NetworkCommit(network, kTech, kDepot, tx_service));

  // Replicate everything while in range of the depot.
  Object* root = *endpoint.FetchRoot("inventory");
  OBISWAP_CHECK(rt.SetGlobal("inventory", Value::Ref(root)).ok());
  OBISWAP_CHECK(rt.SetGlobal("cur", *rt.GetGlobal("inventory")).ok());
  int replicated = 0;
  for (;;) {
    Value cur = *rt.GetGlobal("cur");
    if (!cur.is_ref() || cur.ref() == nullptr) break;
    ++replicated;
    OBISWAP_CHECK(rt.SetGlobal("cur", *rt.Invoke(cur.ref(), "next")).ok());
  }
  std::printf("technician: replicated %d parts over the depot link\n",
              replicated);

  // Drive out of range and work disconnected, inside a transaction.
  network.SetInRange(kTech, kDepot, false);
  std::printf("\n-- out of range of the depot; editing offline --\n");
  OBISWAP_CHECK(tx.Begin().ok());
  for (int i = 0; i < 5; ++i) {
    Object* part = endpoint.FindReplica(part_oids[static_cast<size_t>(i)]);
    OBISWAP_CHECK(part != nullptr);
    OBISWAP_CHECK(tx.Write(part, "stock", Value::Int(100 - 10 * (i + 1))).ok());
  }
  std::printf("edited 5 stock counts locally (tx still open)\n");

  // Commit while unreachable: the transaction survives to retry.
  Status early = tx.Commit();
  std::printf("commit while disconnected: %s\n", early.ToString().c_str());
  OBISWAP_CHECK(early.code() == StatusCode::kUnavailable);
  OBISWAP_CHECK(tx.in_transaction());

  // Meanwhile a colleague (validated against the same versions) takes the
  // last units of part-2 directly at the depot.
  {
    tx::WriteSet rival;
    rival.tx_id = 999;
    rival.validations.emplace_back(part_oids[2], 1);
    rival.updates.push_back(
        tx::FieldUpdate{part_oids[2], "stock", Value::Int(0)});
    auto outcome = tx_master.Commit(rival);
    OBISWAP_CHECK(outcome.ok() && outcome->committed);
    std::printf("colleague committed part-2 stock=0 at the depot\n");
  }

  // Back in range: our commit now CONFLICTS on part-2 and rolls back.
  network.SetInRange(kTech, kDepot, true);
  Status conflicted = tx.Commit();
  std::printf("\n-- back in range --\ncommit: %s\n",
              conflicted.ToString().c_str());
  OBISWAP_CHECK(conflicted.code() == StatusCode::kFailedPrecondition);
  Object* part2 = endpoint.FindReplica(part_oids[2]);
  std::printf("local part-2 stock after rollback: %lld (replicated value)\n",
              (long long)rt.GetField(part2, "stock")->as_int());

  // Refresh the conflicting part from the depot (pulls the colleague's
  // stock count and the new version), then retry without touching it.
  auto refreshed = endpoint.RefreshValues(part_oids[2]);
  OBISWAP_CHECK(refreshed.ok());
  std::printf("refreshed part-2 from the depot: stock=%lld, version=%llu\n",
              (long long)rt.GetField(part2, "stock")->as_int(),
              (unsigned long long)*refreshed);
  OBISWAP_CHECK(tx.Begin().ok());
  for (int i = 0; i < 5; ++i) {
    if (i == 2) continue;  // the colleague's part: leave it alone
    Object* part = endpoint.FindReplica(part_oids[static_cast<size_t>(i)]);
    OBISWAP_CHECK(tx.Write(part, "stock", Value::Int(100 - 10 * (i + 1))).ok());
  }
  OBISWAP_CHECK(tx.Commit().ok());
  std::printf("retried commit without part-2: OK\n");

  // The depot reflects exactly the committed state.
  std::printf("\ndepot stock now:");
  for (int i = 0; i < 5; ++i) {
    Object* master = nullptr;
    depot_rt.heap().ForEachObject([&](Object* obj) {
      if (obj->oid() == part_oids[static_cast<size_t>(i)]) master = obj;
    });
    std::printf(" part-%d=%lld", i,
                (long long)depot_rt.GetField(master, "stock")->as_int());
  }
  std::printf("\ntransactions: %llu committed, %llu conflicted; master "
              "versions bumped to %llu/%llu/.../%llu\n",
              (unsigned long long)tx.stats().committed,
              (unsigned long long)tx.stats().conflicted,
              (unsigned long long)tx_master.VersionOf(part_oids[0]),
              (unsigned long long)tx_master.VersionOf(part_oids[1]),
              (unsigned long long)tx_master.VersionOf(part_oids[4]));
  return 0;
}

// Quickstart: the object-swapping mechanism in ~100 lines.
//
// Builds a managed object graph split into swap-clusters, wires a nearby
// "dumb" store device, swaps a cluster out under explicit control, and
// shows that traversal faults it back in transparently.
//
//   cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "obiswap/obiswap.h"

using namespace obiswap;  // NOLINT
using runtime::ClassBuilder;
using runtime::Object;
using runtime::Value;
using runtime::ValueKind;

int main() {
  // --- 1. a managed runtime (the "mobile device's VM") --------------------
  runtime::Runtime rt(/*process_id=*/1, /*capacity_bytes=*/1 << 20);

  // --- 2. an application class, described by metadata ----------------------
  const runtime::ClassInfo* contact_cls =
      *rt.types().Register(ClassBuilder("Contact")
                               .Field("name", ValueKind::kStr)
                               .Field("next", ValueKind::kRef)
                               .Method("name",
                                       [](runtime::Runtime& r, Object* self,
                                          runtime::Args) {
                                         return Result<Value>(
                                             r.GetFieldAt(self, 0));
                                       })
                               .Method("next",
                                       [](runtime::Runtime& r, Object* self,
                                          runtime::Args) {
                                         return Result<Value>(
                                             r.GetFieldAt(self, 1));
                                       }));

  // --- 3. the wireless neighbourhood: one nearby store device --------------
  net::Network network;
  net::Discovery discovery(network);
  DeviceId pda(1), shelf(2);
  network.AddDevice(pda);
  network.AddDevice(shelf);
  network.SetInRange(pda, shelf, true);
  net::StoreNode store(shelf, /*capacity=*/1 << 20);  // just stores XML text
  discovery.Announce(&store);
  net::StoreClient client(network, discovery, pda);

  // --- 4. the swapping manager hooks into the runtime ----------------------
  swap::SwappingManager manager(rt);
  manager.AttachStore(&client, &discovery);

  // --- 5. build a contact list across two swap-clusters --------------------
  SwapClusterId friends = manager.NewSwapCluster();
  SwapClusterId archive = manager.NewSwapCluster();
  const char* names[] = {"ada", "brian", "edsger", "grace", "tony", "barbara"};
  {
    runtime::LocalScope scope(rt.heap());
    Object** prev = scope.Add(nullptr);
    for (int i = 5; i >= 0; --i) {
      Object* contact = rt.New(contact_cls);
      OBISWAP_CHECK(manager.Place(contact, i < 3 ? friends : archive).ok());
      OBISWAP_CHECK(rt.SetField(contact, "name", Value::Str(names[i])).ok());
      if (*prev != nullptr) {
        OBISWAP_CHECK(rt.SetField(contact, "next", Value::Ref(*prev)).ok());
      }
      *prev = contact;
    }
    OBISWAP_CHECK(rt.SetGlobal("contacts", Value::Ref(*prev)).ok());
  }
  std::printf("built 6 contacts in 2 swap-clusters; heap = %zu bytes\n",
              rt.heap().used_bytes());

  // --- 6. swap the archive half out to the shelf ----------------------------
  Result<SwapKey> key = manager.SwapOut(archive);
  OBISWAP_CHECK(key.ok());
  rt.heap().Collect();
  std::printf(
      "swapped 'archive' out (key %llu, %zu XML bytes on the shelf); heap "
      "= %zu bytes\n",
      (unsigned long long)key->value(), store.used_bytes(),
      rt.heap().used_bytes());

  // --- 7. traverse: the swapped cluster faults back transparently -----------
  std::printf("traversal: ");
  Value cursor = *rt.GetGlobal("contacts");
  while (cursor.is_ref() && cursor.ref() != nullptr) {
    Result<Value> name = rt.Invoke(cursor.ref(), "name");
    OBISWAP_CHECK(name.ok());
    std::printf("%s ", name->as_str().c_str());
    cursor = *rt.Invoke(cursor.ref(), "next");
  }
  std::printf("\nswap-ins: %llu, shelf entries now: %zu (dropped on reload)\n",
              (unsigned long long)manager.stats().swap_ins,
              store.entry_count());
  return 0;
}

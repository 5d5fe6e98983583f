// The paper's Figure-2 scenario, end to end: a PDA browses a photo album
// whose metadata far exceeds its heap. The context manager watches memory,
// XML policies drive the swapping manager, and the album's swap-clusters
// spill to whatever store devices are in the room.
//
//   ./build/examples/pda_photo_album
#include <cstdio>

#include "obiswap/obiswap.h"

using namespace obiswap;  // NOLINT
using runtime::ClassBuilder;
using runtime::LocalScope;
using runtime::Object;
using runtime::Value;
using runtime::ValueKind;

namespace {

constexpr int kAlbums = 12;
constexpr int kPhotosPerAlbum = 40;
constexpr size_t kPdaHeap = 96 * 1024;  // a very small PDA

const runtime::ClassInfo* RegisterPhoto(runtime::Runtime& rt) {
  return *rt.types().Register(
      ClassBuilder("Photo")
          .Field("caption", ValueKind::kStr)
          .Field("thumbnail", ValueKind::kStr)  // opaque bytes
          .Field("next", ValueKind::kRef)
          .Method("caption",
                  [](runtime::Runtime& r, Object* self, runtime::Args) {
                    return Result<Value>(r.GetFieldAt(self, 0));
                  })
          .Method("next",
                  [](runtime::Runtime& r, Object* self, runtime::Args) {
                    return Result<Value>(r.GetFieldAt(self, 2));
                  }));
}

const runtime::ClassInfo* RegisterAlbum(runtime::Runtime& rt) {
  return *rt.types().Register(
      ClassBuilder("Album")
          .Field("title", ValueKind::kStr)
          .Field("first_photo", ValueKind::kRef)
          .Field("next_album", ValueKind::kRef)
          .Method("title",
                  [](runtime::Runtime& r, Object* self, runtime::Args) {
                    return Result<Value>(r.GetFieldAt(self, 0));
                  })
          .Method("first_photo",
                  [](runtime::Runtime& r, Object* self, runtime::Args) {
                    return Result<Value>(r.GetFieldAt(self, 1));
                  })
          .Method("next_album",
                  [](runtime::Runtime& r, Object* self, runtime::Args) {
                    return Result<Value>(r.GetFieldAt(self, 2));
                  }));
}

}  // namespace

int main() {
  SetLogLevel(LogLevel::kWarn);

  // The room: a PDA, a desktop PC, and a friend's PDA — the paper's
  // "myriad of small memory-enabled devices ... available to any user".
  net::Network network;
  net::Discovery discovery(network);
  DeviceId pda(1), desktop(2), friend_pda(3);
  for (DeviceId device : {pda, desktop, friend_pda}) network.AddDevice(device);
  network.SetInRange(pda, desktop, true);
  network.SetInRange(pda, friend_pda, true);
  net::StoreNode desktop_store(desktop, 8 * 1024 * 1024);
  net::StoreNode friend_store(friend_pda, 512 * 1024);
  discovery.Announce(&desktop_store);
  discovery.Announce(&friend_store);
  net::StoreClient client(network, discovery, pda);

  // The PDA's managed runtime + middleware.
  runtime::Runtime rt(1, kPdaHeap);
  const runtime::ClassInfo* photo_cls = RegisterPhoto(rt);
  const runtime::ClassInfo* album_cls = RegisterAlbum(rt);
  context::EventBus bus;
  context::PropertyRegistry props;
  swap::SwappingManager::Options swap_options;
  swap_options.codec = "lz77";  // thumbnails ride a 700 Kbps link
  swap::SwappingManager manager(rt, swap_options);
  manager.AttachStore(&client, &discovery);
  manager.AttachBus(&bus);
  manager.InstallPressureHandler();
  context::MemoryMonitor memory(rt.heap(), bus, props, 0.85, 0.60);
  context::ConnectivityMonitor connectivity(network, discovery, pda, bus,
                                            props);

  // Declarative policy, exactly as §4 describes ("policies ... coded in
  // XML"): under pressure, evict the least-recently-browsed album.
  policy::PolicyEngine engine(bus, props);
  OBISWAP_CHECK(policy::RegisterSwapActions(engine, rt, manager).ok());
  auto rules = engine.LoadXml(R"(
    <policies>
      <policy name="evict-cold-album" on="memory-pressure" priority="10"
              when="net.nearby_stores gt 0">
        <action name="swap-out-victim"/>
      </policy>
    </policies>)");
  OBISWAP_CHECK(rules.ok());
  connectivity.Poll();

  bus.Subscribe(context::kEventClusterSwappedOut,
                [](const context::Event& event) {
                  std::printf("  [middleware] album cluster %lld -> device "
                              "%lld (%lld XML bytes)\n",
                              (long long)event.GetIntOr("swap_cluster", -1),
                              (long long)event.GetIntOr("device", -1),
                              (long long)event.GetIntOr("bytes", -1));
                });
  bus.Subscribe(context::kEventClusterSwappedIn,
                [](const context::Event& event) {
                  std::printf("  [middleware] album cluster %lld faulted "
                              "back in\n",
                              (long long)event.GetIntOr("swap_cluster", -1));
                });

  // Build the album chain: each album (and its photos) is one swap-cluster.
  std::printf("importing %d albums x %d photos into a %zu-byte heap...\n",
              kAlbums, kPhotosPerAlbum, kPdaHeap);
  {
    // Root slots are REUSED per iteration: a slot per album would pin every
    // album for the whole import, and pinned objects cannot be freed even
    // after their cluster swaps out.
    LocalScope scope(rt.heap());
    Object** chain = scope.Add(nullptr);
    Object** album_slot = scope.Add(nullptr);
    Object** photo_chain = scope.Add(nullptr);
    for (int a = kAlbums - 1; a >= 0; --a) {
      SwapClusterId cluster = manager.NewSwapCluster();
      *album_slot = rt.New(album_cls);
      OBISWAP_CHECK(manager.Place(*album_slot, cluster).ok());
      OBISWAP_CHECK(rt.SetField(*album_slot, "title",
                                Value::Str("album-" + std::to_string(a)))
                        .ok());
      *photo_chain = nullptr;
      for (int p = kPhotosPerAlbum - 1; p >= 0; --p) {
        Object* photo = rt.New(photo_cls);
        OBISWAP_CHECK(manager.Place(photo, cluster).ok());
        OBISWAP_CHECK(
            rt.SetField(photo, "caption",
                        Value::Str("a" + std::to_string(a) + "/p" +
                                   std::to_string(p)))
                .ok());
        OBISWAP_CHECK(rt.SetField(photo, "thumbnail",
                                  Value::Str(std::string(96, '\x42')))
                          .ok());
        if (*photo_chain != nullptr) {
          OBISWAP_CHECK(
              rt.SetField(photo, "next", Value::Ref(*photo_chain)).ok());
        }
        *photo_chain = photo;
      }
      OBISWAP_CHECK(
          rt.SetField(*album_slot, "first_photo", Value::Ref(*photo_chain))
              .ok());
      if (*chain != nullptr) {
        OBISWAP_CHECK(
            rt.SetField(*album_slot, "next_album", Value::Ref(*chain)).ok());
      }
      *chain = *album_slot;
      *photo_chain = nullptr;
      memory.Poll();  // the context manager notices rising occupancy
    }
    OBISWAP_CHECK(rt.SetGlobal("albums", Value::Ref(*chain)).ok());
  }
  std::printf("import done: heap %zu/%zu bytes, %llu albums evicted during "
              "import\n\n",
              rt.heap().used_bytes(), kPdaHeap,
              (unsigned long long)manager.stats().swap_outs);

  // Browse every album; cold ones fault back in (and others spill out).
  // Iteration cursors live in globals — the paper's model (variables belong
  // to swap-cluster-0), and the only GC-safe place for them: middleware
  // activity (Poll -> policy -> swap-out -> collection) may run between
  // invocations, and plain C++ locals are not roots.
  std::printf("browsing all albums...\n");
  int albums_seen = 0;
  int photos_seen = 0;
  OBISWAP_CHECK(rt.SetGlobal("album", *rt.GetGlobal("albums")).ok());
  for (;;) {
    Value album = *rt.GetGlobal("album");
    if (!album.is_ref() || album.ref() == nullptr) break;
    Result<Value> title = rt.Invoke(album.ref(), "title");
    OBISWAP_CHECK(title.ok());
    ++albums_seen;
    OBISWAP_CHECK(
        rt.SetGlobal("photo", *rt.Invoke(album.ref(), "first_photo")).ok());
    for (;;) {
      Value photo = *rt.GetGlobal("photo");
      if (!photo.is_ref() || photo.ref() == nullptr) break;
      ++photos_seen;
      OBISWAP_CHECK(
          rt.SetGlobal("photo", *rt.Invoke(photo.ref(), "next")).ok());
    }
    memory.Poll();
    album = *rt.GetGlobal("album");
    OBISWAP_CHECK(
        rt.SetGlobal("album", *rt.Invoke(album.ref(), "next_album")).ok());
  }
  std::printf("\nbrowsed %d albums / %d photos without ever exceeding the "
              "heap.\n",
              albums_seen, photos_seen);
  std::printf("stats: swap-outs %llu, swap-ins %llu, desktop holds %zu "
              "clusters, friend's PDA %zu\n",
              (unsigned long long)manager.stats().swap_outs,
              (unsigned long long)manager.stats().swap_ins,
              desktop_store.entry_count(), friend_store.entry_count());
  std::printf("virtual link time spent: %.1f ms at 700 Kbps\n",
              network.clock().now_ms());
  OBISWAP_CHECK(albums_seen == kAlbums);
  OBISWAP_CHECK(photos_seen == kAlbums * kPhotosPerAlbum);
  return 0;
}

// Mobile mail client: incremental replication + swapping + DGC, over the
// simulated wireless network.
//
// A mail server publishes a mailbox (folders of messages). The phone
// replicates lazily — folders fault in cluster by cluster as the user opens
// them — while the swapping layer keeps the phone's tiny heap within budget
// by spilling cold folders to a nearby laptop. Deleting a folder lets the
// DGC tell the server its replicas are gone.
//
//   ./build/examples/mobile_mail_sync
#include <cstdio>

#include "obiswap/obiswap.h"

using namespace obiswap;  // NOLINT
using runtime::ClassBuilder;
using runtime::LocalScope;
using runtime::Object;
using runtime::Value;
using runtime::ValueKind;

namespace {

constexpr int kFolders = 6;
constexpr int kMessagesPerFolder = 30;

const runtime::ClassInfo* RegisterMessage(runtime::Runtime& rt) {
  return *rt.types().Register(
      ClassBuilder("Message")
          .Field("subject", ValueKind::kStr)
          .Field("body", ValueKind::kStr)
          .Field("next", ValueKind::kRef)
          .Method("subject",
                  [](runtime::Runtime& r, Object* self, runtime::Args) {
                    return Result<Value>(r.GetFieldAt(self, 0));
                  })
          .Method("next",
                  [](runtime::Runtime& r, Object* self, runtime::Args) {
                    return Result<Value>(r.GetFieldAt(self, 2));
                  }));
}

const runtime::ClassInfo* RegisterFolder(runtime::Runtime& rt) {
  return *rt.types().Register(
      ClassBuilder("Folder")
          .Field("name", ValueKind::kStr)
          .Field("first", ValueKind::kRef)
          .Field("next", ValueKind::kRef)
          .Method("name",
                  [](runtime::Runtime& r, Object* self, runtime::Args) {
                    return Result<Value>(r.GetFieldAt(self, 0));
                  })
          .Method("first",
                  [](runtime::Runtime& r, Object* self, runtime::Args) {
                    return Result<Value>(r.GetFieldAt(self, 1));
                  })
          .Method("next",
                  [](runtime::Runtime& r, Object* self, runtime::Args) {
                    return Result<Value>(r.GetFieldAt(self, 2));
                  }));
}

/// Builds the server-side mailbox; returns the first folder.
Object* BuildMailbox(runtime::Runtime& rt) {
  const runtime::ClassInfo* folder_cls = rt.types().Find("Folder");
  const runtime::ClassInfo* message_cls = rt.types().Find("Message");
  LocalScope scope(rt.heap());
  Object** folder_chain = scope.Add(nullptr);
  for (int f = kFolders - 1; f >= 0; --f) {
    Object* folder = rt.New(folder_cls);
    Object** folder_slot = scope.Add(folder);
    OBISWAP_CHECK(rt.SetField(folder, "name",
                              Value::Str("folder-" + std::to_string(f)))
                      .ok());
    Object** message_chain = scope.Add(nullptr);
    for (int m = kMessagesPerFolder - 1; m >= 0; --m) {
      Object* message = rt.New(message_cls);
      OBISWAP_CHECK(
          rt.SetField(message, "subject",
                      Value::Str("f" + std::to_string(f) + "/msg" +
                                 std::to_string(m)))
              .ok());
      OBISWAP_CHECK(rt.SetField(message, "body",
                                Value::Str(std::string(200, 'm')))
                        .ok());
      if (*message_chain != nullptr) {
        OBISWAP_CHECK(
            rt.SetField(message, "next", Value::Ref(*message_chain)).ok());
      }
      *message_chain = message;
    }
    OBISWAP_CHECK(
        rt.SetField(*folder_slot, "first", Value::Ref(*message_chain)).ok());
    if (*folder_chain != nullptr) {
      OBISWAP_CHECK(
          rt.SetField(*folder_slot, "next", Value::Ref(*folder_chain)).ok());
    }
    *folder_chain = *folder_slot;
  }
  return *folder_chain;
}

}  // namespace

int main() {
  // --- the network: phone, mail server, a laptop willing to store XML ----
  net::Network network;
  net::Discovery discovery(network);
  DeviceId phone(1), mail_server(10), laptop(2);
  for (DeviceId device : {phone, mail_server, laptop}) {
    network.AddDevice(device);
  }
  network.SetInRange(phone, mail_server, true);
  network.SetInRange(phone, laptop, true);
  net::StoreNode laptop_store(laptop, 16 * 1024 * 1024);
  discovery.Announce(&laptop_store);
  net::StoreClient store_client(network, discovery, phone);

  // --- the mail server: master runtime + replication service --------------
  runtime::Runtime server_rt(9);
  RegisterMessage(server_rt);
  RegisterFolder(server_rt);
  replication::ReplicationServer server(server_rt, /*cluster_size=*/16);
  dgc::DgcServer dgc_server(server);
  Object* mailbox = BuildMailbox(server_rt);
  OBISWAP_CHECK(server.PublishRoot("mailbox", mailbox).ok());
  replication::ReplicationService service(server);
  std::printf("server: published %d folders x %d messages (%zu objects)\n",
              kFolders, kMessagesPerFolder,
              server_rt.heap().live_objects());

  // --- the phone: tiny heap, full middleware stack --------------------------
  runtime::Runtime phone_rt(1, /*capacity_bytes=*/64 * 1024);
  RegisterMessage(phone_rt);
  RegisterFolder(phone_rt);
  context::EventBus bus;
  swap::SwappingManager::Options options;
  options.clusters_per_swap_cluster = 2;  // ~32 objects per swap unit
  options.codec = "lz77";
  swap::SwappingManager manager(phone_rt, options);
  manager.AttachStore(&store_client, &discovery);
  manager.AttachBus(&bus);
  manager.InstallPressureHandler();
  replication::NetworkLink link(network, phone, mail_server, service);
  replication::DeviceEndpoint endpoint(phone_rt, link, phone, &bus);
  dgc::DgcClient dgc_client(phone_rt, endpoint, &manager,
                            dgc::DirectRelease(server));

  // --- open the mailbox: lazy replication ------------------------------------
  Object* root = *endpoint.FetchRoot("mailbox");
  OBISWAP_CHECK(phone_rt.SetGlobal("mailbox", Value::Ref(root)).ok());
  std::printf(
      "phone: fetched mailbox root (a replication proxy, %llu faults so "
      "far)\n\n",
      (unsigned long long)endpoint.stats().object_faults);

  // Read every folder: replication faults clusters in; the pressure
  // handler spills cold ones to the laptop. Cursors live in globals (the
  // paper's swap-cluster-0 variables): replication faults and swap-outs
  // run inside the loop's invocations, and only rooted cursors survive the
  // collections they trigger.
  OBISWAP_CHECK(
      phone_rt.SetGlobal("folder", *phone_rt.GetGlobal("mailbox")).ok());
  int messages_read = 0;
  for (;;) {
    Value folder = *phone_rt.GetGlobal("folder");
    if (!folder.is_ref() || folder.ref() == nullptr) break;
    Result<Value> name = phone_rt.Invoke(folder.ref(), "name");
    OBISWAP_CHECK(name.ok());
    int in_folder = 0;
    OBISWAP_CHECK(phone_rt
                      .SetGlobal("message",
                                 *phone_rt.Invoke(folder.ref(), "first"))
                      .ok());
    for (;;) {
      Value message = *phone_rt.GetGlobal("message");
      if (!message.is_ref() || message.ref() == nullptr) break;
      ++in_folder;
      OBISWAP_CHECK(phone_rt
                        .SetGlobal("message",
                                   *phone_rt.Invoke(message.ref(), "next"))
                        .ok());
    }
    messages_read += in_folder;
    std::printf("  read %-10s %3d messages   (heap %6zu B, swapped-out "
                "clusters so far: %llu)\n",
                name->as_str().c_str(), in_folder,
                phone_rt.heap().used_bytes(),
                (unsigned long long)manager.stats().swap_outs);
    folder = *phone_rt.GetGlobal("folder");
    OBISWAP_CHECK(phone_rt
                      .SetGlobal("folder",
                                 *phone_rt.Invoke(folder.ref(), "next"))
                      .ok());
  }
  phone_rt.RemoveGlobal("folder");
  phone_rt.RemoveGlobal("message");
  std::printf(
      "\nread all %d messages; replication: %llu clusters / %llu objects; "
      "link moved %llu bytes\n",
      messages_read, (unsigned long long)endpoint.stats().clusters_replicated,
      (unsigned long long)endpoint.stats().objects_replicated,
      (unsigned long long)network.stats().bytes_moved);
  std::printf("laptop now stores %zu swapped clusters (%zu bytes of XML)\n",
              laptop_store.entry_count(), laptop_store.used_bytes());

  // --- DGC: the server tracks what the phone holds ----------------------------
  OBISWAP_CHECK(dgc_client.RunCycle().ok());
  std::printf("\nDGC: server holds %zu scions for the phone\n",
              dgc_server.ScionCount(phone));

  // The user deletes the mailbox; replicas die, swapped XML is dropped,
  // scions are released.
  phone_rt.RemoveGlobal("mailbox");
  phone_rt.heap().Collect();
  phone_rt.heap().Collect();
  Result<size_t> released = dgc_client.RunCycle();
  OBISWAP_CHECK(released.ok());
  std::printf(
      "deleted mailbox: DGC released %zu replicas; scions left: %zu; "
      "laptop entries left: %zu\n",
      *released, dgc_server.ScionCount(phone), laptop_store.entry_count());
  OBISWAP_CHECK(messages_read == kFolders * kMessagesPerFolder);
  return 0;
}

// Tests for incremental replication: server clusters, device faults, proxy
// replacement, the network transport, and integration with swapping.
#include <gtest/gtest.h>

#include <cmath>

#include "test_support.h"

namespace obiswap::replication {
namespace {

using runtime::LocalScope;
using runtime::Object;
using runtime::ObjectKind;
using runtime::Value;
using ::obiswap::testing::RegisterNodeClass;

constexpr DeviceId kPda(1);
constexpr DeviceId kServerDev(100);

class ReplicationFixture : public ::testing::Test {
 protected:
  ReplicationFixture()
      : server_rt_(/*process_id=*/9),
        server_(server_rt_, /*cluster_size=*/4),
        link_(server_),
        endpoint_(device_rt_, link_, kPda, &bus_) {
    server_cls_ = RegisterNodeClass(server_rt_);
    device_cls_ = RegisterNodeClass(device_rt_);
  }

  /// Builds an n-node list on the server and publishes its head.
  Object* PublishList(int n, const std::string& name = "list") {
    LocalScope scope(server_rt_.heap());
    Object** head = scope.Add(nullptr);
    for (int i = n - 1; i >= 0; --i) {
      Object* node = server_rt_.New(server_cls_);
      OBISWAP_CHECK(server_rt_.SetField(node, "value", Value::Int(i)).ok());
      if (*head != nullptr) {
        OBISWAP_CHECK(
            server_rt_.SetField(node, "next", Value::Ref(*head)).ok());
      }
      *head = node;
    }
    OBISWAP_CHECK(server_.PublishRoot(name, *head).ok());
    return *head;
  }

  runtime::Runtime server_rt_;
  runtime::Runtime device_rt_;
  ReplicationServer server_;
  DirectLink link_;
  context::EventBus bus_;
  DeviceEndpoint endpoint_;
  const runtime::ClassInfo* server_cls_ = nullptr;
  const runtime::ClassInfo* device_cls_ = nullptr;
};

// ---------------------------------------------------------------- server --

TEST_F(ReplicationFixture, PublishAndGetRoot) {
  Object* head = PublishList(4);
  auto info = server_.GetRoot("list");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->oid, head->oid());
  EXPECT_EQ(info->class_name, "Node");
  EXPECT_FALSE(server_.GetRoot("nope").ok());
  EXPECT_EQ(server_.PublishRoot("list", head).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(ReplicationFixture, PublishedRootsSurviveMasterGc) {
  Object* head = PublishList(4);
  server_rt_.heap().Collect();
  EXPECT_EQ(server_rt_.heap().live_objects(), 4u);
  (void)head;
}

TEST_F(ReplicationFixture, FetchClusterRespectsClusterSize) {
  Object* head = PublishList(10);
  auto reply = server_.FetchCluster(kPda, head->oid());
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->object_count, 4u);  // cluster_size = 4
  EXPECT_EQ(server_.SentCount(kPda), 4u);
}

TEST_F(ReplicationFixture, FetchOfAlreadyHeldObjectFails) {
  Object* head = PublishList(4);
  ASSERT_TRUE(server_.FetchCluster(kPda, head->oid()).ok());
  EXPECT_EQ(server_.FetchCluster(kPda, head->oid()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ReplicationFixture, UnknownOidIsNotFound) {
  PublishList(2);
  EXPECT_EQ(server_.FetchCluster(kPda, ObjectId(424242)).status().code(),
            StatusCode::kNotFound);
}

TEST_F(ReplicationFixture, SessionsAreIndependentPerDevice) {
  Object* head = PublishList(4);
  ASSERT_TRUE(server_.FetchCluster(kPda, head->oid()).ok());
  EXPECT_TRUE(server_.FetchCluster(DeviceId(2), head->oid()).ok());
  server_.ForgetDevice(kPda);
  EXPECT_EQ(server_.SentCount(kPda), 0u);
  EXPECT_TRUE(server_.FetchCluster(kPda, head->oid()).ok());
}

TEST_F(ReplicationFixture, AdaptableClusterSize) {
  Object* head = PublishList(10);
  server_.set_cluster_size(10);
  auto reply = server_.FetchCluster(kPda, head->oid());
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->object_count, 10u);
}

// ---------------------------------------------------------------- device --

TEST_F(ReplicationFixture, RootArrivesAsProxyAndFaultsOnInvoke) {
  PublishList(8);
  auto root = endpoint_.FetchRoot("list");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ((*root)->kind(), ObjectKind::kReplicationProxy);
  ASSERT_TRUE(device_rt_.SetGlobal("list", Value::Ref(*root)).ok());

  auto value = device_rt_.Invoke(*root, "get_value");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(value->as_int(), 0);
  EXPECT_EQ(endpoint_.stats().object_faults, 1u);
  EXPECT_EQ(endpoint_.stats().objects_replicated, 4u);
}

TEST_F(ReplicationFixture, ProxyReplacementPatchesGlobals) {
  PublishList(8);
  Object* proxy = *endpoint_.FetchRoot("list");
  ASSERT_TRUE(device_rt_.SetGlobal("list", Value::Ref(proxy)).ok());
  ASSERT_TRUE(device_rt_.Invoke(proxy, "get_value").ok());
  // After replication the global must point at the replica, not the proxy.
  Object* now = device_rt_.GetGlobal("list")->ref();
  EXPECT_EQ(now->kind(), ObjectKind::kRegular);
  EXPECT_GE(endpoint_.stats().references_patched, 1u);
}

TEST_F(ReplicationFixture, IncrementalTraversalFaultsClusterByCluster) {
  PublishList(12);  // 3 clusters of 4
  Object* root = *endpoint_.FetchRoot("list");
  ASSERT_TRUE(device_rt_.SetGlobal("list", Value::Ref(root)).ok());
  auto sum = ::obiswap::testing::SumList(device_rt_, "list");
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(*sum, 66);
  EXPECT_EQ(endpoint_.stats().clusters_replicated, 3u);
  EXPECT_EQ(endpoint_.stats().objects_replicated, 12u);
  EXPECT_EQ(server_.SentCount(kPda), 12u);
}

TEST_F(ReplicationFixture, ReplicasKeepGlobalIdentity) {
  Object* master_head = PublishList(4);
  Object* root = *endpoint_.FetchRoot("list");
  ASSERT_TRUE(device_rt_.SetGlobal("list", Value::Ref(root)).ok());
  ASSERT_TRUE(device_rt_.Invoke(root, "get_value").ok());
  Object* replica = endpoint_.FindReplica(master_head->oid());
  ASSERT_NE(replica, nullptr);
  EXPECT_EQ(replica->oid(), master_head->oid());
  EXPECT_EQ(replica->cluster().valid(), true);
}

TEST_F(ReplicationFixture, RecursionAcrossUnreplicatedTailFaults) {
  PublishList(12);
  Object* root = *endpoint_.FetchRoot("list");
  ASSERT_TRUE(device_rt_.SetGlobal("list", Value::Ref(root)).ok());
  auto depth = device_rt_.Invoke(root, "step", {Value::Int(0)});
  ASSERT_TRUE(depth.ok()) << depth.status().ToString();
  EXPECT_EQ(depth->as_int(), 11);
  EXPECT_EQ(endpoint_.stats().clusters_replicated, 3u);
}

TEST_F(ReplicationFixture, MaterializePrefetchesWithoutInvocation) {
  Object* master_head = PublishList(4);
  auto replica = endpoint_.Materialize(master_head->oid());
  ASSERT_TRUE(replica.ok());
  EXPECT_EQ((*replica)->kind(), ObjectKind::kRegular);
  EXPECT_EQ(endpoint_.stats().object_faults, 1u);
}

TEST_F(ReplicationFixture, ClusterReplicatedEventsPublished) {
  PublishList(8);
  std::vector<int64_t> counts;
  bus_.Subscribe(context::kEventClusterReplicated,
                 [&](const context::Event& event) {
                   counts.push_back(event.GetIntOr("count", -1));
                 });
  Object* root = *endpoint_.FetchRoot("list");
  ASSERT_TRUE(device_rt_.SetGlobal("list", Value::Ref(root)).ok());
  ASSERT_TRUE(::obiswap::testing::SumList(device_rt_, "list").ok());
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], 4);
  EXPECT_EQ(counts[1], 4);
}

// ---------------------------------------------------------- value refresh --

TEST_F(ReplicationFixture, RefreshValuesPullsMasterState) {
  Object* master_head = PublishList(4);
  Object* root = *endpoint_.FetchRoot("list");
  ASSERT_TRUE(device_rt_.SetGlobal("list", Value::Ref(root)).ok());
  ASSERT_TRUE(device_rt_.Invoke(root, "get_value").ok());  // replicate
  // The master changes a value after replication.
  ASSERT_TRUE(server_rt_.SetField(master_head, "value", Value::Int(42)).ok());
  Object* replica = endpoint_.FindReplica(master_head->oid());
  ASSERT_NE(replica, nullptr);
  EXPECT_EQ(device_rt_.GetField(replica, "value")->as_int(), 0);  // stale
  auto version = endpoint_.RefreshValues(master_head->oid());
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  EXPECT_EQ(device_rt_.GetField(replica, "value")->as_int(), 42);
}

TEST_F(ReplicationFixture, RefreshRequiresResidentReplica) {
  PublishList(4);
  auto result = endpoint_.RefreshValues(ObjectId(999999));
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ReplicationFixture, RefreshDoesNotTouchStructure) {
  Object* master_head = PublishList(4);
  Object* root = *endpoint_.FetchRoot("list");
  ASSERT_TRUE(device_rt_.SetGlobal("list", Value::Ref(root)).ok());
  ASSERT_TRUE(::obiswap::testing::SumList(device_rt_, "list").ok());
  Object* replica = endpoint_.FindReplica(master_head->oid());
  Object* next_before = device_rt_.GetFieldAt(replica, 0).ref();
  // Master relinks its head; refresh must NOT propagate that.
  ASSERT_TRUE(server_rt_.SetField(master_head, "next", Value::Nil()).ok());
  ASSERT_TRUE(endpoint_.RefreshValues(master_head->oid()).ok());
  EXPECT_EQ(device_rt_.GetFieldAt(replica, 0).ref(), next_before);
}

// ------------------------------------------------------------- transport --

class TransportFixture : public ReplicationFixture {
 protected:
  TransportFixture()
      : service_(server_),
        net_link_(network_, kPda, kServerDev, service_),
        net_endpoint_(net_device_rt_, net_link_, kPda, nullptr) {
    network_.AddDevice(kPda);
    network_.AddDevice(kServerDev);
    network_.SetInRange(kPda, kServerDev, true);
    RegisterNodeClass(net_device_rt_);
  }

  net::Network network_;
  ReplicationService service_;
  NetworkLink net_link_;
  runtime::Runtime net_device_rt_;
  DeviceEndpoint net_endpoint_;
};

TEST_F(TransportFixture, ReplicationOverTheBridgeWorks) {
  PublishList(8);
  Object* root = *net_endpoint_.FetchRoot("list");
  ASSERT_TRUE(net_device_rt_.SetGlobal("list", Value::Ref(root)).ok());
  auto sum = ::obiswap::testing::SumList(net_device_rt_, "list");
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(*sum, 28);
  EXPECT_GT(network_.stats().transfers, 0u);
  EXPECT_GT(network_.clock().now_us(), 0u);
}

TEST_F(TransportFixture, ServerOutOfRangeIsUnavailable) {
  PublishList(4);
  network_.SetInRange(kPda, kServerDev, false);
  auto root = net_endpoint_.FetchRoot("list");
  ASSERT_FALSE(root.ok());
  EXPECT_EQ(root.status().code(), StatusCode::kUnavailable);
}

TEST_F(TransportFixture, RemoteErrorsCrossTheBridge) {
  PublishList(4);
  auto missing = net_link_.GetRoot("missing");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST_F(TransportFixture, ClusterPayloadSurvivesEnvelope) {
  PublishList(4);
  auto info = net_link_.GetRoot("list");
  ASSERT_TRUE(info.ok());
  auto reply = net_link_.FetchCluster(kPda, info->oid);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->object_count, 4u);
  EXPECT_NE(reply->xml.find("<swap-cluster"), std::string::npos);
}

// A master holding two records, A -> B, served one object per cluster:
// A's cluster document carries every scalar kind and an external ref.
struct EnvelopeWorld {
  EnvelopeWorld() : rt(9), server(rt, /*cluster_size=*/1), service(server) {
    using runtime::ValueKind;
    const runtime::ClassInfo* cls = *rt.types().Register(
        runtime::ClassBuilder("Rec")
            .Field("next", ValueKind::kRef)
            .Field("a", ValueKind::kInt)
            .Field("b", ValueKind::kInt)
            .Field("r", ValueKind::kReal)
            .Field("z", ValueKind::kReal)
            .Field("s", ValueKind::kStr));
    LocalScope scope(rt.heap());
    Object* b = rt.New(cls);
    scope.Add(b);
    Object* a = rt.New(cls);
    scope.Add(a);
    OBISWAP_CHECK(rt.SetField(a, "next", Value::Ref(b)).ok());
    OBISWAP_CHECK(rt.SetField(a, "a", Value::Int(7)).ok());
    OBISWAP_CHECK(rt.SetField(a, "b", Value::Int(-42)).ok());
    OBISWAP_CHECK(rt.SetField(a, "r", Value::Real(0.1)).ok());
    OBISWAP_CHECK(rt.SetField(a, "z", Value::Real(-0.0)).ok());
    OBISWAP_CHECK(rt.SetField(a, "s", Value::Str("x<&>\"y")).ok());
    OBISWAP_CHECK(server.PublishRoot("rec", a).ok());
  }

  runtime::Runtime rt;
  ReplicationServer server;
  ReplicationService service;
};

// The exact request and response envelopes of each op: their sizes set
// the transfer times of every replication on the virtual clock.
TEST(ReplicationEnvelopeTest, EnvelopeBytesArePinned) {
  const std::string kRootRequest = R"(<request op="root" name="rec"/>)";
  const std::string kRootResponse =
      R"(<response status="OK" oid="2533274790395906" class="Rec"/>)";
  const std::string kClusterRequest =
      R"(<request op="cluster" device="1" oid="2533274790395906"/>)";
  const std::string kClusterResponse =
      R"(<response status="OK" cluster="1" count="1"><payload>)"
      R"(&lt;swap-cluster id="1" count="1" checksum="274333755"&gt;)"
      R"(&lt;object oid="2533274790395906" class="Rec" cluster="1"&gt;)"
      R"(&lt;f n="next" t="ref" out="0" oid="2533274790395905" )"
      R"(class="Rec"/&gt;)"
      R"(&lt;f n="a" t="int"&gt;7&lt;/f&gt;)"
      R"(&lt;f n="b" t="int"&gt;-42&lt;/f&gt;)"
      R"(&lt;f n="r" t="real"&gt;0.10000000000000001&lt;/f&gt;)"
      R"(&lt;f n="z" t="real"&gt;-0&lt;/f&gt;)"
      R"(&lt;f n="s" t="str"&gt;x&amp;lt;&amp;amp;&amp;gt;"y&lt;/f&gt;)"
      R"(&lt;/object&gt;&lt;/swap-cluster&gt;</payload></response>)";
  const std::string kSnapshotRequest =
      R"(<request op="snapshot" device="1" oid="2533274790395906"/>)";
  const std::string kSnapshotResponse =
      R"(<response status="OK" oid="2533274790395906" v="0">)"
      R"(<f n="a" t="int">7</f><f n="b" t="int">-42</f>)"
      R"(<f n="r" t="real">0.10000000000000001</f>)"
      R"(<f n="z" t="real">-0</f><f n="s" t="str">x&lt;&amp;&gt;"y</f>)"
      R"(</response>)";
  const std::string kMissingRequest = R"(<request op="root" name="missing"/>)";
  const std::string kNotFoundResponse =
      R"(<response status="NOT_FOUND" )"
      R"(message="no published root &apos;missing&apos;"/>)";

  EnvelopeWorld direct;
  for (const auto& [request, response] :
       {std::pair{kRootRequest, kRootResponse},
        std::pair{kClusterRequest, kClusterResponse},
        std::pair{kSnapshotRequest, kSnapshotResponse},
        std::pair{kMissingRequest, kNotFoundResponse}}) {
    std::string got = direct.service.Handle(request);
    EXPECT_EQ(got, response) << "raw:\n" << got;
  }

  // NetworkLink sends exactly those requests and decodes those responses.
  EnvelopeWorld linked;
  net::Network network;
  network.AddDevice(kPda);
  network.AddDevice(kServerDev);
  network.SetInRange(kPda, kServerDev, true);
  NetworkLink link(network, kPda, kServerDev, linked.service);
  uint64_t sent = 0;
  uint64_t received = 0;
  auto expect_bytes = [&](const std::string& request,
                          const std::string& response) {
    EXPECT_EQ(link.stats().bytes_sent - sent, request.size());
    EXPECT_EQ(link.stats().bytes_received - received, response.size());
    sent = link.stats().bytes_sent;
    received = link.stats().bytes_received;
  };
  auto root = link.GetRoot("rec");
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  EXPECT_EQ(root->class_name, "Rec");
  expect_bytes(kRootRequest, kRootResponse);
  auto cluster = link.FetchCluster(kPda, root->oid);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  EXPECT_EQ(cluster->object_count, 1u);
  expect_bytes(kClusterRequest, kClusterResponse);
  auto snapshot = link.SnapshotValues(kPda, root->oid);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_EQ(snapshot->fields.size(), 5u);
  EXPECT_EQ(snapshot->fields[1].second, Value::Int(-42));
  EXPECT_EQ(snapshot->fields[2].second, Value::Real(0.1));
  EXPECT_TRUE(std::signbit(snapshot->fields[3].second.as_real()));
  EXPECT_EQ(snapshot->fields[4].second, Value::Str("x<&>\"y"));
  expect_bytes(kSnapshotRequest, kSnapshotResponse);
  auto missing = link.GetRoot("missing");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(missing.status().message(), "no published root 'missing'");
  expect_bytes(kMissingRequest, kNotFoundResponse);
}

// ------------------------------------------- replication + swapping glue --

TEST(ReplicationEnvelopeTest, OutOfRangeDeviceIsRejected) {
  // A device id is 32 bits wide. Truncated, device="4294967297" would
  // address device 1's session and device="-1" device 4294967295's.
  EnvelopeWorld world;
  const std::string kRejected =
      R"(<response status="INVALID_ARGUMENT" message="bad device"/>)";
  for (const char* op : {"cluster", "snapshot"}) {
    for (const char* device : {"-1", "4294967297"}) {
      const std::string request = std::string("<request op=\"") + op +
                                  "\" device=\"" + device +
                                  "\" oid=\"2533274790395906\"/>";
      EXPECT_EQ(world.service.Handle(request), kRejected) << request;
    }
  }
  // Device 1's session is untouched: its first fetch of the root succeeds.
  EXPECT_EQ(world.service
                .Handle(R"(<request op="cluster" device="1" )"
                        R"(oid="2533274790395906"/>)")
                .rfind(R"(<response status="OK")", 0),
            0u);
}

TEST(ReplicationSwapTest, ReplicatedClustersBecomeSwapClusters) {
  using ::obiswap::testing::MiddlewareWorld;
  runtime::Runtime server_rt(9);
  const runtime::ClassInfo* server_cls = RegisterNodeClass(server_rt);
  ReplicationServer server(server_rt, /*cluster_size=*/5);

  swap::SwappingManager::Options options;
  options.clusters_per_swap_cluster = 2;
  MiddlewareWorld world{options};
  RegisterNodeClass(world.rt);
  world.AddStore(2, 10 * 1024 * 1024);
  DirectLink link(server);
  DeviceEndpoint endpoint(world.rt, link, MiddlewareWorld::kDevice,
                          &world.bus);

  // Publish a 20-node list; 4 replication clusters -> 2 swap-clusters.
  {
    LocalScope scope(server_rt.heap());
    Object** head = scope.Add(nullptr);
    for (int i = 19; i >= 0; --i) {
      Object* node = server_rt.New(server_cls);
      OBISWAP_CHECK(server_rt.SetField(node, "value", Value::Int(i)).ok());
      if (*head != nullptr)
        OBISWAP_CHECK(server_rt.SetField(node, "next", Value::Ref(*head)).ok());
      *head = node;
    }
    OBISWAP_CHECK(server.PublishRoot("list", *head).ok());
  }

  Object* root = *endpoint.FetchRoot("list");
  ASSERT_TRUE(world.rt.SetGlobal("list", Value::Ref(root)).ok());
  auto sum = ::obiswap::testing::SumList(world.rt, "list");
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(*sum, 190);

  // 4 replication clusters grouped 2-per-swap-cluster.
  EXPECT_EQ(world.manager.registry().size(), 2u);
  for (SwapClusterId id : world.manager.registry().Ids()) {
    const swap::SwapClusterInfo* info = world.manager.registry().Find(id);
    EXPECT_EQ(info->replication_clusters.size(), 2u);
  }
  EXPECT_EQ(::obiswap::testing::CheckMediationInvariant(world.rt), "");

  // The replicated graph can now swap like any local graph.
  SwapClusterId first = world.manager.registry().Ids()[0];
  ASSERT_TRUE(world.manager.SwapOut(first).ok()) ;
  world.rt.heap().Collect();
  auto sum2 = ::obiswap::testing::SumList(world.rt, "list");
  ASSERT_TRUE(sum2.ok()) << sum2.status().ToString();
  EXPECT_EQ(*sum2, 190);
}

}  // namespace
}  // namespace obiswap::replication

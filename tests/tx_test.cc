// Tests for Transactional Support: local undo, optimistic validation at the
// master, conflicts, version plumbing through replication, swapping
// interplay, and the commit envelope transport.
#include <gtest/gtest.h>

#include "test_support.h"

namespace obiswap::tx {
namespace {

using runtime::LocalScope;
using runtime::Object;
using runtime::Value;
using ::obiswap::testing::MiddlewareWorld;
using ::obiswap::testing::RegisterNodeClass;
using ::obiswap::testing::SumList;

constexpr DeviceId kServerDev(100);

class TxFixture : public ::testing::Test {
 protected:
  TxFixture()
      : server_rt_(9),
        server_(server_rt_, /*cluster_size=*/5),
        master_(server_),
        link_(server_) {
    server_cls_ = RegisterNodeClass(server_rt_);
    RegisterNodeClass(world_.rt);
    world_.AddStore(2, 10 * 1024 * 1024);
    endpoint_ = std::make_unique<replication::DeviceEndpoint>(
        world_.rt, link_, MiddlewareWorld::kDevice, &world_.bus);
    tx_ = std::make_unique<TxManager>(world_.rt, *endpoint_, &world_.manager,
                                      DirectCommit(master_));
  }

  /// Publishes an n-node list and fully replicates it on the device.
  void PublishAndReplicate(int n) {
    LocalScope scope(server_rt_.heap());
    Object** head = scope.Add(nullptr);
    master_oids_.clear();
    for (int i = n - 1; i >= 0; --i) {
      Object* node = server_rt_.New(server_cls_);
      OBISWAP_CHECK(server_rt_.SetField(node, "value", Value::Int(i)).ok());
      if (*head != nullptr)
        OBISWAP_CHECK(
            server_rt_.SetField(node, "next", Value::Ref(*head)).ok());
      *head = node;
      master_oids_.insert(master_oids_.begin(), node->oid());
    }
    OBISWAP_CHECK(server_.PublishRoot("list", *head).ok());
    Object* root = *endpoint_->FetchRoot("list");
    OBISWAP_CHECK(world_.rt.SetGlobal("list", Value::Ref(root)).ok());
    OBISWAP_CHECK(SumList(world_.rt, "list").ok());
  }

  Object* Replica(int index) {
    return endpoint_->FindReplica(master_oids_[static_cast<size_t>(index)]);
  }
  Object* Master(int index) {
    Object* found = nullptr;
    server_rt_.heap().ForEachObject([&](Object* obj) {
      if (obj->oid() == master_oids_[static_cast<size_t>(index)]) found = obj;
    });
    return found;
  }

  runtime::Runtime server_rt_;
  replication::ReplicationServer server_;
  TxMaster master_;
  replication::DirectLink link_;
  MiddlewareWorld world_;
  std::unique_ptr<replication::DeviceEndpoint> endpoint_;
  std::unique_ptr<TxManager> tx_;
  const runtime::ClassInfo* server_cls_ = nullptr;
  std::vector<ObjectId> master_oids_;
};

// ----------------------------------------------------------- versioning --

TEST_F(TxFixture, VersionsTravelWithReplication) {
  PublishAndReplicate(5);
  for (ObjectId oid : master_oids_) {
    EXPECT_EQ(master_.VersionOf(oid), 1u);
    EXPECT_EQ(tx_->ReplicaVersionOf(oid), 1u);
  }
}

TEST_F(TxFixture, UnshippedObjectHasVersionZero) {
  EXPECT_EQ(master_.VersionOf(ObjectId(12345)), 0u);
  EXPECT_EQ(tx_->ReplicaVersionOf(ObjectId(12345)), 0u);
}

// ------------------------------------------------------------ local ops --

TEST_F(TxFixture, WriteAppliesLocallyAndCommitPropagates) {
  PublishAndReplicate(5);
  ASSERT_TRUE(tx_->Begin().ok());
  ASSERT_TRUE(tx_->Write(Replica(2), "value", Value::Int(777)).ok());
  // Local replica updated immediately.
  EXPECT_EQ(world_.rt.GetField(Replica(2), "value")->as_int(), 777);
  // Master untouched until commit.
  EXPECT_EQ(server_rt_.GetField(Master(2), "value")->as_int(), 2);
  ASSERT_TRUE(tx_->Commit().ok());
  EXPECT_EQ(server_rt_.GetField(Master(2), "value")->as_int(), 777);
  EXPECT_EQ(master_.VersionOf(master_oids_[2]), 2u);
  EXPECT_EQ(tx_->ReplicaVersionOf(master_oids_[2]), 2u);
  EXPECT_EQ(master_.stats().commits, 1u);
}

TEST_F(TxFixture, AbortRollsBackLocalWrites) {
  PublishAndReplicate(3);
  ASSERT_TRUE(tx_->Begin().ok());
  ASSERT_TRUE(tx_->Write(Replica(0), "value", Value::Int(100)).ok());
  ASSERT_TRUE(tx_->Write(Replica(1), "value", Value::Int(200)).ok());
  ASSERT_TRUE(tx_->Write(Replica(0), "value", Value::Int(300)).ok());
  EXPECT_EQ(world_.rt.GetField(Replica(0), "value")->as_int(), 300);
  ASSERT_TRUE(tx_->Abort().ok());
  EXPECT_EQ(world_.rt.GetField(Replica(0), "value")->as_int(), 0);
  EXPECT_EQ(world_.rt.GetField(Replica(1), "value")->as_int(), 1);
  EXPECT_EQ(master_.stats().commits, 0u);
}

TEST_F(TxFixture, ReadOnlyCommitSucceedsWithoutMasterRoundTrip) {
  PublishAndReplicate(3);
  ASSERT_TRUE(tx_->Begin().ok());
  EXPECT_EQ(tx_->Read(Replica(1), "value")->as_int(), 1);
  ASSERT_TRUE(tx_->Commit().ok());
  EXPECT_EQ(master_.stats().commits, 0u);  // nothing shipped
  EXPECT_EQ(tx_->stats().committed, 1u);
}

TEST_F(TxFixture, LifecycleErrors) {
  PublishAndReplicate(2);
  EXPECT_FALSE(tx_->Commit().ok());  // no open tx
  EXPECT_FALSE(tx_->Abort().ok());
  EXPECT_FALSE(tx_->Write(Replica(0), "value", Value::Int(1)).ok());
  ASSERT_TRUE(tx_->Begin().ok());
  EXPECT_FALSE(tx_->Begin().ok());  // nested
  EXPECT_FALSE(
      tx_->Write(Replica(0), "value", Value::Ref(Replica(1))).ok());
  EXPECT_FALSE(tx_->Write(Replica(0), "nope", Value::Int(1)).ok());
  ASSERT_TRUE(tx_->Abort().ok());
}

// ------------------------------------------------------------- conflicts --

TEST_F(TxFixture, ConflictRollsBackAndReports) {
  PublishAndReplicate(3);
  ASSERT_TRUE(tx_->Begin().ok());
  ASSERT_TRUE(tx_->Write(Replica(1), "value", Value::Int(500)).ok());
  // A second device commits to the same object first.
  WriteSet rival;
  rival.validations.emplace_back(master_oids_[1], 1);
  rival.updates.push_back(FieldUpdate{master_oids_[1], "value",
                                      Value::Int(999)});
  auto rival_result = master_.Commit(rival);
  ASSERT_TRUE(rival_result.ok());
  ASSERT_TRUE(rival_result->committed);

  Status commit = tx_->Commit();
  EXPECT_EQ(commit.code(), StatusCode::kFailedPrecondition);
  // Local write rolled back to the replicated value.
  EXPECT_EQ(world_.rt.GetField(Replica(1), "value")->as_int(), 1);
  // Master kept the rival's value.
  EXPECT_EQ(server_rt_.GetField(Master(1), "value")->as_int(), 999);
  EXPECT_EQ(master_.stats().conflicts, 1u);
  EXPECT_EQ(tx_->stats().conflicted, 1u);
}

TEST_F(TxFixture, ConflictAppliesNothingAtomically) {
  PublishAndReplicate(3);
  WriteSet mixed;
  mixed.validations.emplace_back(master_oids_[0], 1);   // fine
  mixed.validations.emplace_back(master_oids_[1], 42);  // stale
  mixed.updates.push_back(
      FieldUpdate{master_oids_[0], "value", Value::Int(111)});
  mixed.updates.push_back(
      FieldUpdate{master_oids_[1], "value", Value::Int(222)});
  auto result = master_.Commit(mixed);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->committed);
  ASSERT_EQ(result->conflicts.size(), 1u);
  EXPECT_EQ(result->conflicts[0], master_oids_[1]);
  // Nothing applied — not even the valid half.
  EXPECT_EQ(server_rt_.GetField(Master(0), "value")->as_int(), 0);
}

TEST_F(TxFixture, ReadValidationCatchesStaleReads) {
  PublishAndReplicate(3);
  ASSERT_TRUE(tx_->Begin().ok());
  EXPECT_EQ(tx_->Read(Replica(0), "value")->as_int(), 0);
  ASSERT_TRUE(tx_->Write(Replica(1), "value", Value::Int(5)).ok());
  // Rival bumps the object we only READ.
  WriteSet rival;
  rival.validations.emplace_back(master_oids_[0], 1);
  rival.updates.push_back(
      FieldUpdate{master_oids_[0], "value", Value::Int(9)});
  ASSERT_TRUE(master_.Commit(rival)->committed);
  // Our commit validates the read set too -> conflict.
  EXPECT_EQ(tx_->Commit().code(), StatusCode::kFailedPrecondition);
}

TEST_F(TxFixture, ConflictRecoveryViaRefresh) {
  PublishAndReplicate(3);
  ASSERT_TRUE(tx_->Begin().ok());
  ASSERT_TRUE(tx_->Write(Replica(1), "value", Value::Int(500)).ok());
  WriteSet rival;
  rival.validations.emplace_back(master_oids_[1], 1);
  rival.updates.push_back(
      FieldUpdate{master_oids_[1], "value", Value::Int(999)});
  ASSERT_TRUE(master_.Commit(rival)->committed);
  ASSERT_EQ(tx_->Commit().code(), StatusCode::kFailedPrecondition);

  // Recovery: refresh the conflicting replica (pulls value 999 and version
  // 2), then retry on top of the fresh state.
  auto version = endpoint_->RefreshValues(master_oids_[1]);
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 2u);
  EXPECT_EQ(world_.rt.GetField(Replica(1), "value")->as_int(), 999);
  ASSERT_TRUE(tx_->Begin().ok());
  ASSERT_TRUE(tx_->Write(Replica(1), "value", Value::Int(1000)).ok());
  ASSERT_TRUE(tx_->Commit().ok());
  EXPECT_EQ(server_rt_.GetField(Master(1), "value")->as_int(), 1000);
  EXPECT_EQ(master_.VersionOf(master_oids_[1]), 3u);
}

// ------------------------------------------------------ swapping interplay --

TEST_F(TxFixture, WriteThroughSwappedClusterFaultsItIn) {
  PublishAndReplicate(10);  // 2 replication clusters -> 2 swap-clusters
  SwapClusterId victim = world_.manager.registry().Ids()[1];
  ASSERT_TRUE(world_.manager.SwapOut(victim).ok());
  world_.rt.heap().Collect();
  // Walk to a proxy that now points into the swapped cluster and write
  // through it.
  Object* cursor = world_.rt.GetGlobal("list")->ref();
  for (int i = 0; i < 7; ++i) {
    cursor = world_.rt.Invoke(cursor, "next")->ref();
    ASSERT_TRUE(world_.rt.SetGlobal("c", Value::Ref(cursor)).ok());
    cursor = world_.rt.GetGlobal("c")->ref();
  }
  ASSERT_TRUE(tx_->Begin().ok());
  ASSERT_TRUE(tx_->Write(cursor, "value", Value::Int(70)).ok());
  EXPECT_EQ(world_.manager.StateOf(victim), swap::SwapState::kLoaded);
  ASSERT_TRUE(tx_->Commit().ok());
  EXPECT_EQ(server_rt_.GetField(Master(7), "value")->as_int(), 70);
}

TEST_F(TxFixture, UncommittedWritesPinTheirCluster) {
  PublishAndReplicate(10);
  ASSERT_TRUE(tx_->Begin().ok());
  ASSERT_TRUE(tx_->Write(Replica(1), "value", Value::Int(11)).ok());
  SwapClusterId written_cluster = Replica(1)->swap_cluster();
  // Swap-out of the written cluster is vetoed while the tx is open.
  EXPECT_EQ(world_.manager.SwapOut(written_cluster).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(tx_->Commit().ok());
  EXPECT_TRUE(world_.manager.SwapOut(written_cluster).ok());
}

TEST_F(TxFixture, CommittedDataSurvivesSwapCycle) {
  PublishAndReplicate(10);
  ASSERT_TRUE(tx_->Begin().ok());
  ASSERT_TRUE(tx_->Write(Replica(3), "value", Value::Int(33)).ok());
  ASSERT_TRUE(tx_->Commit().ok());
  SwapClusterId cluster = Replica(3)->swap_cluster();
  ASSERT_TRUE(world_.manager.SwapOut(cluster).ok());
  world_.rt.heap().Collect();
  auto sum = SumList(world_.rt, "list");  // faults it back
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, 45 - 3 + 33);
  EXPECT_EQ(world_.rt.GetField(Replica(3), "value")->as_int(), 33);
}

// --------------------------------------------------------------- transport --

class TxTransportFixture : public TxFixture {
 protected:
  TxTransportFixture() : service_(master_) {
    world_.network.AddDevice(kServerDev);
    world_.network.SetInRange(MiddlewareWorld::kDevice, kServerDev, true);
    net_tx_ = std::make_unique<TxManager>(
        world_.rt, *endpoint_, &world_.manager,
        NetworkCommit(world_.network, MiddlewareWorld::kDevice, kServerDev,
                      service_));
  }

  TxService service_;
  std::unique_ptr<TxManager> net_tx_;
};

TEST_F(TxTransportFixture, CommitOverTheBridge) {
  PublishAndReplicate(5);
  // The base versions were recorded by tx_'s sink; mirror them into the
  // network manager (only one sink is active per endpoint).
  for (ObjectId oid : master_oids_) net_tx_->NoteReplicaVersion(oid, 1);
  ASSERT_TRUE(net_tx_->Begin().ok());
  // Type-checked: "value" is declared kInt, so a string write is rejected
  // without leaving transaction residue.
  EXPECT_FALSE(
      net_tx_->Write(Replica(4), "value", Value::Str("nope")).ok());
  ASSERT_TRUE(net_tx_->Write(Replica(4), "value", Value::Int(404)).ok());
  ASSERT_TRUE(net_tx_->Commit().ok());
  EXPECT_EQ(server_rt_.GetField(Master(4), "value")->as_int(), 404);
  EXPECT_GT(world_.network.stats().transfers, 0u);
}

TEST_F(TxTransportFixture, ServerUnreachableKeepsTransactionOpen) {
  PublishAndReplicate(3);
  for (ObjectId oid : master_oids_) net_tx_->NoteReplicaVersion(oid, 1);
  ASSERT_TRUE(net_tx_->Begin().ok());
  ASSERT_TRUE(net_tx_->Write(Replica(0), "value", Value::Int(77)).ok());
  world_.network.SetInRange(MiddlewareWorld::kDevice, kServerDev, false);
  Status commit = net_tx_->Commit();
  EXPECT_EQ(commit.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(net_tx_->in_transaction());  // still open: retry later
  EXPECT_EQ(world_.rt.GetField(Replica(0), "value")->as_int(), 77);
  // Connectivity returns; the same commit goes through.
  world_.network.SetInRange(MiddlewareWorld::kDevice, kServerDev, true);
  ASSERT_TRUE(net_tx_->Commit().ok());
  EXPECT_EQ(server_rt_.GetField(Master(0), "value")->as_int(), 77);
}

TEST_F(TxTransportFixture, MalformedEnvelopesRejected) {
  EXPECT_NE(service_.Handle("nonsense").find("INVALID_ARGUMENT"),
            std::string::npos);
  EXPECT_NE(service_.Handle("<request op=\"zap\"/>")
                .find("INVALID_ARGUMENT"),
            std::string::npos);
  EXPECT_NE(service_.Handle("<request op=\"commit\"><val/></request>")
                .find("INVALID_ARGUMENT"),
            std::string::npos);
}

TEST_F(TxTransportFixture, MalformedTxIdIsRejected) {
  EXPECT_EQ(service_.Handle("<request op=\"commit\" tx=\"x\"/>"),
            "<response status=\"INVALID_ARGUMENT\" message=\"bad tx\"/>");
  // A missing tx id still means 0.
  EXPECT_EQ(service_.Handle("<request op=\"commit\"/>"),
            "<response status=\"OK\" committed=\"1\"/>");
}

// A remote error keeps its code across the bridge: a commit the master
// rejects in process (DirectCommit) fails the same way over the radio.
TEST_F(TxTransportFixture, RemoteCommitErrorKeepsItsCode) {
  WriteSet write_set;
  write_set.tx_id = 9;
  write_set.updates.push_back(
      FieldUpdate{ObjectId(999), "value", Value::Int(1)});
  Result<CommitResult> direct = DirectCommit(master_)(write_set);
  Result<CommitResult> remote = NetworkCommit(
      world_.network, MiddlewareWorld::kDevice, kServerDev, service_)(
      write_set);
  EXPECT_EQ(direct.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(remote.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(remote.status().message(), direct.status().message());
}

TEST_F(TxTransportFixture, EnvelopeRoundTripsAllValueKinds) {
  WriteSet write_set;
  write_set.tx_id = 7;
  write_set.validations.emplace_back(ObjectId(1), 3);
  write_set.updates.push_back(FieldUpdate{ObjectId(1), "a", Value::Nil()});
  write_set.updates.push_back(
      FieldUpdate{ObjectId(1), "b", Value::Int(-42)});
  write_set.updates.push_back(
      FieldUpdate{ObjectId(1), "c", Value::Real(2.5)});
  write_set.updates.push_back(
      FieldUpdate{ObjectId(1), "d", Value::Str("x<&>\"y")});
  std::string encoded = EncodeCommitRequest(write_set);
  // The service decodes it; master rejects (unknown oid) which proves the
  // decode got past validation into apply.
  std::string response = service_.Handle(encoded);
  EXPECT_NE(response.find("committed=\"0\""), std::string::npos);
}

// The exact commit envelopes: request, OK-with-conflicts response and
// error responses. Their sizes set every commit's transfer time.
TEST_F(TxTransportFixture, EnvelopeBytesArePinned) {
  WriteSet write_set;
  write_set.tx_id = 7;
  write_set.validations.emplace_back(ObjectId(1), 3);
  write_set.validations.emplace_back(ObjectId(2), 0);
  write_set.validations.emplace_back(ObjectId(5), 1);
  write_set.updates.push_back(FieldUpdate{ObjectId(1), "a", Value::Nil()});
  write_set.updates.push_back(
      FieldUpdate{ObjectId(1), "b", Value::Int(-42)});
  write_set.updates.push_back(FieldUpdate{ObjectId(1), "c", Value::Real(0.1)});
  write_set.updates.push_back(
      FieldUpdate{ObjectId(2), "d", Value::Real(-0.0)});
  write_set.updates.push_back(
      FieldUpdate{ObjectId(2), "e", Value::Str("x<&>\"y")});
  const std::string request = EncodeCommitRequest(write_set);
  EXPECT_EQ(request,
            R"(<request op="commit" tx="7">)"
            R"(<val oid="1" v="3"/><val oid="2" v="0"/><val oid="5" v="1"/>)"
            R"(<set oid="1" f="a" t="nil"/>)"
            R"(<set oid="1" f="b" t="int">-42</set>)"
            R"(<set oid="1" f="c" t="real">0.10000000000000001</set>)"
            R"(<set oid="2" f="d" t="real">-0</set>)"
            R"(<set oid="2" f="e" t="str">x&lt;&amp;&gt;"y</set></request>)")
      << "raw:\n" << request;
  const std::string conflicts = service_.Handle(request);
  EXPECT_EQ(conflicts,
            R"(<response status="OK" committed="0">)"
            R"(<conflict oid="1"/><conflict oid="5"/></response>)")
      << "raw:\n" << conflicts;

  WriteSet unknown;
  unknown.tx_id = 8;
  unknown.updates.push_back(
      FieldUpdate{ObjectId(999), "value", Value::Int(1)});
  const std::string not_found = service_.Handle(EncodeCommitRequest(unknown));
  EXPECT_EQ(not_found,
            R"(<response status="NOT_FOUND" )"
            R"(message="no master object with oid 999"/>)")
      << "raw:\n" << not_found;
  const std::string bad = service_.Handle("<request op=\"zap\"/>");
  EXPECT_EQ(bad,
            R"(<response status="INVALID_ARGUMENT" )"
            R"(message="bad commit request"/>)")
      << "raw:\n" << bad;
}

}  // namespace
}  // namespace obiswap::tx

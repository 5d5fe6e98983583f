// Tests for the simulated wireless neighbourhood: links, store nodes,
// discovery, and the XML web-service bridge.
#include <gtest/gtest.h>

#include "net/bridge.h"
#include "net/network.h"
#include "net/store_node.h"

namespace obiswap::net {
namespace {

constexpr DeviceId kPda(1);
constexpr DeviceId kStoreA(2);
constexpr DeviceId kStoreB(3);

class NetworkFixture : public ::testing::Test {
 protected:
  NetworkFixture() {
    network_.AddDevice(kPda);
    network_.AddDevice(kStoreA);
    network_.SetInRange(kPda, kStoreA, true);
  }
  Network network_;
};

// --------------------------------------------------------------- network --

TEST_F(NetworkFixture, TransferAdvancesVirtualTime) {
  uint64_t before = network_.clock().now_us();
  auto elapsed = network_.Transfer(kPda, kStoreA, 700'000 / 8);  // 1s payload
  ASSERT_TRUE(elapsed.ok());
  // latency (30ms) + 87500B * 8 / 700kbps = 30ms + 1s
  EXPECT_EQ(*elapsed, 30'000u + 1'000'000u);
  EXPECT_EQ(network_.clock().now_us(), before + *elapsed);
}

TEST_F(NetworkFixture, DefaultLinkIsPaperBluetooth) {
  LinkParams link = network_.GetLinkParams(kPda, kStoreA);
  EXPECT_DOUBLE_EQ(link.bandwidth_bps, 700'000.0);
}

TEST_F(NetworkFixture, OutOfRangeFails) {
  network_.AddDevice(kStoreB);
  auto result = network_.Transfer(kPda, kStoreB, 10);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST_F(NetworkFixture, OfflineDeviceFails) {
  network_.SetOnline(kStoreA, false);
  EXPECT_FALSE(network_.Transfer(kPda, kStoreA, 10).ok());
  network_.SetOnline(kStoreA, true);
  EXPECT_TRUE(network_.Transfer(kPda, kStoreA, 10).ok());
}

TEST_F(NetworkFixture, RangeIsSymmetric) {
  EXPECT_TRUE(network_.InRange(kStoreA, kPda));
  network_.SetInRange(kStoreA, kPda, false);
  EXPECT_FALSE(network_.InRange(kPda, kStoreA));
}

TEST_F(NetworkFixture, PerPairLinkOverride) {
  LinkParams fast;
  fast.bandwidth_bps = 7'000'000.0;
  fast.latency_us = 0;
  network_.SetLinkParams(kPda, kStoreA, fast);
  auto elapsed = network_.Transfer(kPda, kStoreA, 875);  // 1ms at 7Mbps
  ASSERT_TRUE(elapsed.ok());
  EXPECT_EQ(*elapsed, 1000u);
}

TEST_F(NetworkFixture, LossyLinkFailsSometimes) {
  LinkParams lossy;
  lossy.loss_rate = 0.5;
  network_.SetLinkParams(kPda, kStoreA, lossy);
  int failures = 0;
  for (int i = 0; i < 200; ++i) {
    if (!network_.Transfer(kPda, kStoreA, 1).ok()) ++failures;
  }
  EXPECT_GT(failures, 50);
  EXPECT_LT(failures, 150);
  EXPECT_EQ(network_.stats().transfer_failures,
            static_cast<uint64_t>(failures));
}

TEST_F(NetworkFixture, ReachableListsOnlineInRangeDevices) {
  network_.AddDevice(kStoreB);
  EXPECT_EQ(network_.Reachable(kPda).size(), 1u);
  network_.SetInRange(kPda, kStoreB, true);
  EXPECT_EQ(network_.Reachable(kPda).size(), 2u);
  network_.SetOnline(kStoreA, false);
  auto reachable = network_.Reachable(kPda);
  ASSERT_EQ(reachable.size(), 1u);
  EXPECT_EQ(reachable[0], kStoreB);
}

TEST_F(NetworkFixture, RemoveDeviceClearsLinks) {
  network_.RemoveDevice(kStoreA);
  EXPECT_FALSE(network_.HasDevice(kStoreA));
  EXPECT_FALSE(network_.InRange(kPda, kStoreA));
}

TEST_F(NetworkFixture, StatsAccumulate) {
  ASSERT_TRUE(network_.Transfer(kPda, kStoreA, 100).ok());
  ASSERT_TRUE(network_.Transfer(kStoreA, kPda, 50).ok());
  EXPECT_EQ(network_.stats().transfers, 2u);
  EXPECT_EQ(network_.stats().bytes_moved, 150u);
}

// ------------------------------------------------------------ store node --

TEST(StoreNodeTest, StoreFetchDrop) {
  StoreNode store(kStoreA, 1024);
  ASSERT_TRUE(store.Store(SwapKey(1), "<xml/>").ok());
  EXPECT_TRUE(store.Contains(SwapKey(1)));
  EXPECT_EQ(store.used_bytes(), 6u);
  auto fetched = store.Fetch(SwapKey(1));
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(*fetched, "<xml/>");
  ASSERT_TRUE(store.Drop(SwapKey(1)).ok());
  EXPECT_EQ(store.used_bytes(), 0u);
  EXPECT_FALSE(store.Contains(SwapKey(1)));
}

TEST(StoreNodeTest, DuplicateKeyRejected) {
  StoreNode store(kStoreA, 1024);
  ASSERT_TRUE(store.Store(SwapKey(1), "a").ok());
  EXPECT_EQ(store.Store(SwapKey(1), "b").code(), StatusCode::kAlreadyExists);
}

TEST(StoreNodeTest, CapacityEnforced) {
  StoreNode store(kStoreA, 10);
  EXPECT_TRUE(store.Store(SwapKey(1), "12345").ok());
  EXPECT_EQ(store.Store(SwapKey(2), "123456").code(),
            StatusCode::kResourceExhausted);
  EXPECT_TRUE(store.Store(SwapKey(2), "12345").ok());
  EXPECT_EQ(store.free_bytes(), 0u);
  EXPECT_EQ(store.stats().rejected_full, 1u);
}

TEST(StoreNodeTest, UnknownKeyErrors) {
  StoreNode store(kStoreA, 10);
  EXPECT_EQ(store.Fetch(SwapKey(9)).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Drop(SwapKey(9)).code(), StatusCode::kNotFound);
}

TEST(StoreNodeTest, KeysLists) {
  StoreNode store(kStoreA, 100);
  ASSERT_TRUE(store.Store(SwapKey(1), "a").ok());
  ASSERT_TRUE(store.Store(SwapKey(2), "b").ok());
  EXPECT_EQ(store.Keys().size(), 2u);
  EXPECT_EQ(store.entry_count(), 2u);
}

// ---------------------------------------------------------- bridge stack --

class BridgeFixture : public NetworkFixture {
 protected:
  BridgeFixture()
      : store_a_(kStoreA, 64 * 1024),
        store_b_(kStoreB, 64 * 1024),
        discovery_(network_),
        client_(network_, discovery_, kPda) {
    network_.AddDevice(kStoreB);
    discovery_.Announce(&store_a_);
  }

  StoreNode store_a_;
  StoreNode store_b_;
  Discovery discovery_;
  StoreClient client_;
};

TEST_F(BridgeFixture, StoreFetchDropThroughBridge) {
  std::string payload = "<swap-cluster id=\"2\">payload</swap-cluster>";
  ASSERT_TRUE(client_.Store(kStoreA, SwapKey(7), payload).ok());
  EXPECT_EQ(store_a_.entry_count(), 1u);
  auto fetched = client_.Fetch(kStoreA, SwapKey(7));
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(*fetched, payload);
  ASSERT_TRUE(client_.Drop(kStoreA, SwapKey(7)).ok());
  EXPECT_EQ(store_a_.entry_count(), 0u);
}

TEST_F(BridgeFixture, PayloadWithMarkupSurvivesEnvelope) {
  std::string payload = "<a x=\"1\">&amp; <b/> ]]></a>";
  ASSERT_TRUE(client_.Store(kStoreA, SwapKey(1), payload).ok());
  EXPECT_EQ(*client_.Fetch(kStoreA, SwapKey(1)), payload);
}

TEST_F(BridgeFixture, RemoteErrorsPropagateAsStatusCodes) {
  EXPECT_EQ(client_.Fetch(kStoreA, SwapKey(404)).status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(client_.Store(kStoreA, SwapKey(1), "x").ok());
  EXPECT_EQ(client_.Store(kStoreA, SwapKey(1), "y").code(),
            StatusCode::kAlreadyExists);
}

TEST_F(BridgeFixture, UnannouncedDeviceIsNotFound) {
  EXPECT_EQ(client_.Store(kStoreB, SwapKey(1), "x").code(),
            StatusCode::kNotFound);
}

TEST_F(BridgeFixture, OutOfRangeIsUnavailable) {
  discovery_.Announce(&store_b_);  // announced but not in range
  EXPECT_EQ(client_.Store(kStoreB, SwapKey(1), "x").code(),
            StatusCode::kUnavailable);
}

TEST_F(BridgeFixture, RetriesOvercomeLoss) {
  LinkParams lossy;
  lossy.loss_rate = 0.3;
  network_.SetLinkParams(kPda, kStoreA, lossy);
  int ok = 0;
  for (int i = 0; i < 50; ++i) {
    if (client_.Store(kStoreA, SwapKey(100 + i), "data").ok()) ++ok;
  }
  // 3 attempts at 30% loss per direction: >90% success expected.
  EXPECT_GT(ok, 40);
  EXPECT_GT(client_.stats().retries, 0u);
}

TEST_F(BridgeFixture, CallsCostTwoTransfers) {
  uint64_t before = network_.stats().transfers;
  ASSERT_TRUE(client_.Store(kStoreA, SwapKey(1), "x").ok());
  EXPECT_EQ(network_.stats().transfers, before + 2);
}

TEST_F(BridgeFixture, ServiceRejectsMalformedRequests) {
  StoreService* service = discovery_.ServiceFor(kStoreA);
  ASSERT_NE(service, nullptr);
  EXPECT_NE(service->Handle("not xml").find("INVALID_ARGUMENT"),
            std::string::npos);
  EXPECT_NE(service->Handle("<request/>").find("INVALID_ARGUMENT"),
            std::string::npos);
  EXPECT_NE(service->Handle("<request op=\"zap\" key=\"1\"/>")
                .find("INVALID_ARGUMENT"),
            std::string::npos);
  EXPECT_NE(service->Handle("<request op=\"store\" key=\"1\"/>")
                .find("missing payload"),
            std::string::npos);
}

// ----------------------------------------------------------- wire parity --
//
// Envelope bytes are a compatibility surface: wire sizes set transfer
// times on the virtual clock. Every envelope below was recorded before the
// bridge moved to one parse per response; the payload holds every byte
// value 0x00-0xFF.

std::string AllBytes() {
  std::string bytes;
  for (int c = 0; c < 256; ++c) bytes += static_cast<char>(c);
  return bytes;
}

/// AllBytes() as element text: control bytes as character references,
/// markup as entities, bytes >= 0x80 raw.
const std::string kEscapedAllBytes =
    "&#x0;&#x1;&#x2;&#x3;&#x4;&#x5;&#x6;&#x7;&#x8;&#x9;&#xA;&#xB;&#xC;"
    "&#xD;&#xE;&#xF;&#x10;&#x11;&#x12;&#x13;&#x14;&#x15;&#x16;&#x17;"
    "&#x18;&#x19;&#x1A;&#x1B;&#x1C;&#x1D;&#x1E;&#x1F; !\"#$%&amp;'()*+,"
    "-./0123456789:;&lt;=&gt;?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefg"
    "hijklmnopqrstuvwxyz{|}~&#x7F;\x80\x81\x82\x83\x84\x85\x86\x87\x88"
    "\x89\x8A\x8B\x8C\x8D\x8E\x8F\x90\x91\x92\x93\x94\x95\x96\x97\x98"
    "\x99\x9A\x9B\x9C\x9D\x9E\x9F\xA0\xA1\xA2\xA3\xA4\xA5\xA6\xA7\xA8"
    "\xA9\xAA\xAB\xAC\xAD\xAE\xAF\xB0\xB1\xB2\xB3\xB4\xB5\xB6\xB7\xB8"
    "\xB9\xBA\xBB\xBC\xBD\xBE\xBF\xC0\xC1\xC2\xC3\xC4\xC5\xC6\xC7\xC8"
    "\xC9\xCA\xCB\xCC\xCD\xCE\xCF\xD0\xD1\xD2\xD3\xD4\xD5\xD6\xD7\xD8"
    "\xD9\xDA\xDB\xDC\xDD\xDE\xDF\xE0\xE1\xE2\xE3\xE4\xE5\xE6\xE7\xE8"
    "\xE9\xEA\xEB\xEC\xED\xEE\xEF\xF0\xF1\xF2\xF3\xF4\xF5\xF6\xF7\xF8"
    "\xF9\xFA\xFB\xFC\xFD\xFE\xFF";

constexpr SwapKey kWireKey(7);
constexpr Priority kWirePriority = Priority::kPrefetch;

TEST(WireParityTest, RequestEnvelopesAreByteIdentical) {
  const std::string payload = AllBytes();
  EXPECT_EQ(StoreRequest(kWireKey, payload),
            "<request op=\"store\" key=\"7\" checksum=\"2918612865\">"
            "<payload>" + kEscapedAllBytes + "</payload></request>");
  EXPECT_EQ(StoreRequest(kWireKey, payload, kWirePriority),
            "<request op=\"store\" key=\"7\" checksum=\"2918612865\" "
            "pri=\"3\"><payload>" + kEscapedAllBytes + "</payload></request>");
  EXPECT_EQ(StoreRequest(SwapKey(11), ""),
            "<request op=\"store\" key=\"11\" checksum=\"1\"><payload>"
            "</payload></request>");
  EXPECT_EQ(FetchRequest(kWireKey), "<request op=\"fetch\" key=\"7\"/>");
  EXPECT_EQ(FetchRequest(kWireKey, kWirePriority),
            "<request op=\"fetch\" key=\"7\" pri=\"3\"/>");
  EXPECT_EQ(DropRequest(kWireKey), "<request op=\"drop\" key=\"7\"/>");
  EXPECT_EQ(DropRequest(kWireKey, kWirePriority),
            "<request op=\"drop\" key=\"7\" pri=\"3\"/>");
}

TEST_F(BridgeFixture, ClientSendsAndReceivesThePinnedSizes) {
  const std::string payload = AllBytes();
  for (bool annotate : {false, true}) {
    client_.set_annotate_priority(annotate);
    const size_t pri_bytes = annotate ? 8 : 0;  // ` pri="3"`
    uint64_t sent = client_.stats().bytes_sent;
    uint64_t received = client_.stats().bytes_received;
    ASSERT_TRUE(
        client_.Store(kStoreA, kWireKey, payload, 0, kWirePriority).ok());
    EXPECT_EQ(client_.stats().bytes_sent - sent, 494 + pri_bytes);
    EXPECT_EQ(client_.stats().bytes_received - received, 23u);
    sent = client_.stats().bytes_sent;
    received = client_.stats().bytes_received;
    auto fetched = client_.Fetch(kStoreA, kWireKey, 0, kWirePriority);
    ASSERT_TRUE(fetched.ok());
    EXPECT_EQ(*fetched, payload);
    EXPECT_EQ(client_.stats().bytes_sent - sent, 29 + pri_bytes);
    EXPECT_EQ(client_.stats().bytes_received - received, 467u);
    sent = client_.stats().bytes_sent;
    received = client_.stats().bytes_received;
    ASSERT_TRUE(client_.Drop(kStoreA, kWireKey, 0, kWirePriority).ok());
    EXPECT_EQ(client_.stats().bytes_sent - sent, 28 + pri_bytes);
    EXPECT_EQ(client_.stats().bytes_received - received, 23u);
  }
}

TEST_F(BridgeFixture, ResponseEnvelopesAreByteIdentical) {
  StoreService* service = discovery_.ServiceFor(kStoreA);
  ASSERT_NE(service, nullptr);
  const std::string payload = AllBytes();
  EXPECT_EQ(service->Handle(StoreRequest(kWireKey, payload)),
            "<response status=\"OK\"/>");
  EXPECT_EQ(service->Handle(FetchRequest(kWireKey)),
            "<response status=\"OK\"><payload>" + kEscapedAllBytes +
                "</payload></response>");
  EXPECT_EQ(service->Handle(DropRequest(kWireKey)),
            "<response status=\"OK\"/>");
  EXPECT_EQ(service->Handle(FetchRequest(kWireKey)),
            "<response status=\"NOT_FOUND\" message=\"key 7 not stored\"/>");
  ASSERT_EQ(service->Handle(StoreRequest(SwapKey(11), "")),
            "<response status=\"OK\"/>");
  EXPECT_EQ(service->Handle(FetchRequest(SwapKey(11))),
            "<response status=\"OK\"><payload></payload></response>");
  EXPECT_EQ(service->Handle(StoreRequest(SwapKey(11), "x")),
            "<response status=\"ALREADY_EXISTS\" "
            "message=\"key 11 already stored\"/>");
  EXPECT_EQ(service->Handle("<request op=\"z&lt;&quot;\" key=\"1\"/>"),
            "<response status=\"INVALID_ARGUMENT\" "
            "message=\"unknown op &apos;z&lt;&quot;&apos;\"/>");
  EXPECT_EQ(service->Handle("<request op=\"fetch\" key=\"1\">\n<x></y>"),
            "<response status=\"INVALID_ARGUMENT\" message=\"bad request: "
            "xml parse error at line 2: mismatched close tag &lt;/y&gt; for "
            "&lt;x&gt;\"/>");
}

StoreNode::QueueOptions OneSlotQueue() {
  StoreNode::QueueOptions queue;
  queue.enabled = true;
  queue.concurrency = 1;
  queue.queue_limit = 2;
  queue.service_time_us = 1'000'000;
  return queue;
}

TEST_F(BridgeFixture, PushbackEnvelopeIsByteIdentical) {
  store_a_.ConfigureQueue(OneSlotQueue());
  StoreService* service = discovery_.ServiceFor(kStoreA);
  ASSERT_NE(service, nullptr);
  // One in service and two waiting fill the queue at time 0...
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(service->Handle(FetchRequest(kWireKey, kWirePriority), 0),
              "<response status=\"NOT_FOUND\" message=\"key 7 not stored\"/>");
  }
  // ...so the fourth arrival is shed with the store's hint and depth.
  EXPECT_EQ(service->Handle(FetchRequest(kWireKey, kWirePriority), 0),
            "<response status=\"RESOURCE_EXHAUSTED\" message=\"pushback: "
            "store saturated\" retry_after_us=\"1000000\" depth=\"3\"/>");
}

// A shed reply is read from the one parse of its envelope: the call
// surfaces kResourceExhausted with the store's message, and a retrying
// client waits exactly the retry-after hint the envelope carried (values
// recorded before the bridge stopped parsing each response twice).
TEST_F(BridgeFixture, ShedReplyYieldsPushbackAndHonoursRetryAfter) {
  store_a_.ConfigureQueue(OneSlotQueue());
  for (uint64_t k = 1; k <= 3; ++k)
    ASSERT_TRUE(client_.Store(kStoreA, SwapKey(k), "x").ok());

  StoreClient one_shot(network_, discovery_, kPda, /*max_attempts=*/1);
  Status shed = one_shot.Store(kStoreA, SwapKey(4), "x");
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(IsPushback(shed));
  EXPECT_EQ(shed.message(), "pushback: store saturated");
  EXPECT_EQ(one_shot.stats().pushbacks, 1u);
  EXPECT_EQ(one_shot.stats().max_store_queue_depth, 3u);
  EXPECT_EQ(one_shot.stats().bytes_received, 109u);

  const uint64_t backoff_before = client_.stats().backoff_us;
  ASSERT_TRUE(client_.Store(kStoreA, SwapKey(5), "x").ok());
  EXPECT_EQ(client_.stats().pushbacks, 1u);
  EXPECT_EQ(client_.stats().pushback_retries, 1u);
  EXPECT_EQ(client_.stats().backoff_us - backoff_before, 754'449u);

  auto fetch_shed = one_shot.Fetch(kStoreA, SwapKey(5));
  EXPECT_EQ(fetch_shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(IsPushback(fetch_shed.status()));
}

TEST(WireParityTest, UnparsableResponseIsDataLoss) {
  auto truncated = ParseResponse("<response status=\"OK\"><payload>ab");
  EXPECT_EQ(truncated.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(truncated.status().message(),
            "xml parse error at line 1: unterminated element <payload>");
  auto no_status = ParseResponse("<response/>");
  EXPECT_EQ(no_status.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(no_status.status().message(), "response missing status");
  auto ok = ParseResponse("<response status=\"OK\"><payload>a&lt;b</payload>"
                          "</response>");
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok->status.ok());
  EXPECT_TRUE(ok->has_payload);
  EXPECT_EQ(ok->payload, "a<b");
  EXPECT_FALSE(ok->pushback);
}

// ------------------------------------------------------------- discovery --

TEST_F(BridgeFixture, NearbyStoresFiltersByRangeAndCapacity) {
  discovery_.Announce(&store_b_);
  EXPECT_EQ(discovery_.NearbyStores(kPda).size(), 1u);  // B out of range
  network_.SetInRange(kPda, kStoreB, true);
  EXPECT_EQ(discovery_.NearbyStores(kPda).size(), 2u);
  // Capacity filter.
  EXPECT_EQ(discovery_.NearbyStores(kPda, 128 * 1024).size(), 0u);
  // Fill A: B (more free) should sort first.
  ASSERT_TRUE(store_a_.Store(SwapKey(1), std::string(1000, 'x')).ok());
  auto stores = discovery_.NearbyStores(kPda);
  ASSERT_EQ(stores.size(), 2u);
  EXPECT_EQ(stores[0]->device(), kStoreB);
}

TEST_F(BridgeFixture, WithdrawRemovesStore) {
  discovery_.Withdraw(kStoreA);
  EXPECT_TRUE(discovery_.NearbyStores(kPda).empty());
  EXPECT_EQ(discovery_.ServiceFor(kStoreA), nullptr);
}

TEST_F(BridgeFixture, OfflineStoreDisappearsFromDiscovery) {
  network_.SetOnline(kStoreA, false);
  EXPECT_TRUE(discovery_.NearbyStores(kPda).empty());
}

}  // namespace
}  // namespace obiswap::net

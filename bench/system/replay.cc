#include "replay.h"

#include <memory>

#include "common/checksum.h"
#include "obiswap/obiswap.h"
#include "serialization/graph_binary.h"
#include "workload/list_workload.h"

namespace sysbench {
namespace {

using namespace obiswap;  // NOLINT
using runtime::Object;
using runtime::Value;

constexpr int kFreshClusters = 16;
constexpr int64_t kBudgetNs = 60'000'000;  ///< per timed function
constexpr size_t kMinCalls = 32;
constexpr size_t kMaxCalls = 4000;

/// Keeps timed results observable so no call is optimised away.
volatile size_t g_sink = 0;

/// Median wall time of `call(i)` over inputs i = 0, 1, 2, ... (callers
/// wrap the index), within the per-function budget.
template <typename Fn>
double MedianCallNs(Fn call) {
  std::vector<double> samples;
  const int64_t stop = NowNs() + kBudgetNs;
  for (size_t i = 0; samples.size() < kMaxCalls &&
                     (samples.size() < kMinCalls || NowNs() < stop);
       ++i) {
    const int64_t start = NowNs();
    call(i);
    samples.push_back(static_cast<double>(NowNs() - start));
  }
  return Percentile(samples, 50);
}

}  // namespace

ReplayCosts RunReplay(const ReplayShape& shape,
                      const std::vector<std::string>& captured,
                      uint64_t seed) {
  ReplayCosts costs;
  Rng rng(seed);

  // Fresh clusters of the workload's shape, in a runtime of their own. With
  // `outbound`, each cluster's last node points at a node outside it.
  runtime::Runtime rt(2);
  const runtime::ClassInfo* cls = workload::RegisterNodeClass(rt);
  runtime::LocalScope scope(rt.heap());
  Object* external = rt.New(cls);
  scope.Add(external);
  std::vector<std::vector<Object*>> clusters(kFreshClusters);
  for (auto& members : clusters) {
    Object* next = shape.outbound ? external : nullptr;
    for (int i = 0; i < shape.nodes_per_cluster; ++i) {
      Object* node = rt.New(cls);
      scope.Add(node);
      OBISWAP_CHECK(rt.SetField(node, "value",
                                Value::Int(static_cast<int64_t>(
                                    rng.NextBelow(1'000'000))))
                        .ok());
      if (next != nullptr)
        OBISWAP_CHECK(rt.SetField(node, "next", Value::Ref(next)).ok());
      members.insert(members.begin(), node);
      next = node;
    }
  }
  auto describe = [](Object* target) -> Result<serialization::ExternalRef> {
    serialization::ExternalRef ref;
    ref.oid = target->oid();
    ref.class_name = target->cls().name();
    return ref;
  };
  auto encode = [&](const std::vector<Object*>& members, uint32_t id) {
    return shape.binary
               ? serialization::SerializeClusterBinary(rt, id, members, describe)
               : serialization::SerializeCluster(rt, id, members, describe);
  };
  costs.encode_ns = MedianCallNs([&](size_t i) {
    auto doc = encode(clusters[i % clusters.size()], 1);
    OBISWAP_CHECK(doc.ok());
    g_sink = g_sink + doc->payload.size();
  });

  // Documents as the stores hold them, decompressed; fresh ones stand in
  // when the run left nothing on a store.
  std::vector<std::string> docs;
  for (const std::string& payload : captured) {
    auto doc = compress::FrameDecompress(payload);
    if (doc.ok()) docs.push_back(*std::move(doc));
  }
  if (docs.empty()) {
    for (size_t k = 0; k < clusters.size(); ++k) {
      auto doc = encode(clusters[k], static_cast<uint32_t>(k + 1));
      OBISWAP_CHECK(doc.ok());
      docs.push_back(std::move(doc->payload));
    }
  }
  std::vector<std::string> framed;
  for (const std::string& doc : docs) {
    auto frame = compress::FrameCompress(
        *compress::FindCodec(shape.lz77 ? "lz77" : "identity"), doc);
    OBISWAP_CHECK(frame.ok());
    framed.push_back(*std::move(frame));
  }

  serialization::DeserializeOptions decode_options;
  auto resolve = [external](const serialization::ExternalRef&)
      -> Result<Object*> { return external; };
  costs.decode_ns = MedianCallNs([&](size_t i) {
    auto members = serialization::DeserializeClusterAny(
        rt, docs[i % docs.size()], decode_options, resolve);
    OBISWAP_CHECK(members.ok());
    g_sink = g_sink + members->size();
  });

  const compress::Lz77Codec lz77;
  std::vector<std::string> compressed;
  size_t raw_bytes = 0;
  size_t compressed_bytes = 0;
  for (const std::string& doc : docs) {
    auto packed = lz77.Compress(doc);
    OBISWAP_CHECK(packed.ok());
    compressed.push_back(*std::move(packed));
    raw_bytes += doc.size();
    compressed_bytes += compressed.back().size();
  }
  costs.ratio = static_cast<double>(compressed_bytes) /
                static_cast<double>(raw_bytes);
  costs.compress_ns = MedianCallNs([&](size_t i) {
    auto packed = lz77.Compress(docs[i % docs.size()]);
    OBISWAP_CHECK(packed.ok());
    g_sink = g_sink + packed->size();
  });
  costs.decompress_ns = MedianCallNs([&](size_t i) {
    auto doc = lz77.Decompress(compressed[i % compressed.size()]);
    OBISWAP_CHECK(doc.ok());
    g_sink = g_sink + doc->size();
  });
  costs.adler_ns = MedianCallNs([&](size_t i) {
    g_sink = g_sink + Adler32(docs[i % docs.size()]);
  });

  // A RAM pool large enough to hold every document: each probe is a hit.
  net::SimClock clock;
  persist::FlashStore flash(DeviceId(1), 64 * 1024 * 1024, clock);
  tier::TierManager::Options tier_options;
  tier_options.ram_bytes = 16 * 1024 * 1024;
  tier_options.flash_slots = 0;
  tier::TierManager tiers(&flash, tier_options);
  for (size_t k = 0; k < framed.size(); ++k) {
    OBISWAP_CHECK(tiers.AdmitRam(SwapClusterId(static_cast<uint32_t>(k + 1)), 1,
                                 Adler32(docs[k]), framed[k]));
  }
  costs.probe_ns = MedianCallNs([&](size_t i) {
    const size_t k = i % framed.size();
    tier::TierHit hit = tier::TierHit::kNone;
    auto payload = tiers.Probe(SwapClusterId(static_cast<uint32_t>(k + 1)), 1,
                               Adler32(docs[k]), &hit);
    OBISWAP_CHECK(payload.ok() && hit == tier::TierHit::kRam);
    g_sink = g_sink + payload->size();
  });

  // One device and one store on a modelled link: the bridge's XML
  // envelopes, the network model and the store itself.
  net::Network network(seed);
  net::Discovery discovery(network);
  const DeviceId device(1), store_id(2);
  network.AddDevice(device);
  network.AddDevice(store_id);
  network.SetInRange(device, store_id, true);
  net::StoreNode store(store_id, 1024 * 1024 * 1024);
  discovery.Announce(&store);
  net::StoreClient client(network, discovery, device);
  std::vector<double> store_ns, fetch_ns, drop_ns;
  const int64_t stop = NowNs() + 3 * kBudgetNs;
  for (size_t i = 0; store_ns.size() < kMaxCalls &&
                     (store_ns.size() < kMinCalls || NowNs() < stop);
       ++i) {
    const SwapKey key(i + 1);
    const std::string& payload = framed[i % framed.size()];
    int64_t start = NowNs();
    OBISWAP_CHECK(client.Store(store_id, key, payload).ok());
    store_ns.push_back(static_cast<double>(NowNs() - start));
    start = NowNs();
    auto fetched = client.Fetch(store_id, key);
    fetch_ns.push_back(static_cast<double>(NowNs() - start));
    OBISWAP_CHECK(fetched.ok() && *fetched == payload);
    start = NowNs();
    OBISWAP_CHECK(client.Drop(store_id, key).ok());
    drop_ns.push_back(static_cast<double>(NowNs() - start));
  }
  costs.store_ns = Percentile(store_ns, 50);
  costs.fetch_ns = Percentile(fetch_ns, 50);
  costs.drop_ns = Percentile(drop_ns, 50);

  fleet::PlacementDirectory directory;
  for (size_t s = 0; s < shape.stores; ++s)
    directory.AddStore(DeviceId(static_cast<uint32_t>(1'000'000 + s)));
  costs.targets_ns = MedianCallNs([&](size_t i) {
    const uint64_t key = fleet::PlacementDirectory::KeyFor(
        device, SwapClusterId(static_cast<uint32_t>(i % 4096 + 1)));
    g_sink = g_sink + directory.Targets(key, shape.replication).size();
  });
  return costs;
}

}  // namespace sysbench

// §2 supplement (Communication Services cost): XML serialization /
// deserialization throughput for cluster documents, XML parse/write, the
// payload codecs, and the web-service bridge's envelope round trip. Uses
// google-benchmark.
#include <benchmark/benchmark.h>

#include "obiswap/obiswap.h"
#include "serialization/graph_binary.h"
#include "workload/list_workload.h"

namespace {

using namespace obiswap;  // NOLINT
using runtime::LocalScope;
using runtime::Object;
using runtime::Value;

/// Builds a self-contained cluster of `n` nodes and returns (runtime, members).
struct ClusterGraph {
  explicit ClusterGraph(int n) : scope(rt.heap()) {
    cls = workload::RegisterNodeClass(rt);
    Object* prev = nullptr;
    for (int i = 0; i < n; ++i) {
      Object* node = rt.New(cls);
      scope.Add(node);
      OBISWAP_CHECK(rt.SetField(node, "value", Value::Int(i)).ok());
      if (prev != nullptr) {
        OBISWAP_CHECK(rt.SetField(prev, "next", Value::Ref(node)).ok());
      }
      members.push_back(node);
      prev = node;
    }
  }

  Result<serialization::SerializedCluster> Serialize() {
    return serialization::SerializeCluster(rt, 1, members, SelfContained);
  }

  /// The payload a store holds for this cluster: an OSWB document
  /// compressed with lz77 (`binary`), or an XML document in an identity
  /// frame, as FleetDriver devices ship it.
  std::string StoredPayload(bool binary) {
    auto doc = binary ? serialization::SerializeClusterBinary(rt, 1, members,
                                                              SelfContained)
                      : Serialize();
    OBISWAP_CHECK(doc.ok());
    auto frame = compress::FrameCompress(
        *compress::FindCodec(binary ? "lz77" : "identity"), doc->payload);
    OBISWAP_CHECK(frame.ok());
    return *std::move(frame);
  }

  static Result<serialization::ExternalRef> SelfContained(Object*) {
    return InternalError("self-contained");
  }

  runtime::Runtime rt{1};
  LocalScope scope;
  const runtime::ClassInfo* cls = nullptr;
  std::vector<Object*> members;
};

void BM_SerializeCluster(benchmark::State& state) {
  ClusterGraph graph(static_cast<int>(state.range(0)));
  size_t bytes = 0;
  for (auto _ : state) {
    auto serialized = graph.Serialize();
    OBISWAP_CHECK(serialized.ok());
    bytes = serialized->payload.size();
    benchmark::DoNotOptimize(serialized->payload);
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes) *
                          static_cast<int64_t>(state.iterations()));
  state.counters["doc_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_SerializeCluster)->Arg(20)->Arg(50)->Arg(100)->Arg(500);

void BM_DeserializeCluster(benchmark::State& state) {
  ClusterGraph graph(static_cast<int>(state.range(0)));
  auto serialized = graph.Serialize();
  OBISWAP_CHECK(serialized.ok());
  auto resolve = [](const serialization::ExternalRef&) -> Result<Object*> {
    return InternalError("self-contained");
  };
  runtime::Runtime target(2);
  workload::RegisterNodeClass(target);
  serialization::DeserializeOptions options;
  options.expected_id = 1;
  for (auto _ : state) {
    auto members = serialization::DeserializeCluster(target, serialized->payload,
                                                     options, resolve);
    OBISWAP_CHECK(members.ok());
    benchmark::DoNotOptimize(members);
    state.PauseTiming();
    target.heap().Collect();  // keep the heap from accumulating copies
    state.ResumeTiming();
  }
  state.SetBytesProcessed(static_cast<int64_t>(serialized->payload.size()) *
                          static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_DeserializeCluster)->Arg(20)->Arg(100)->Arg(500);

void BM_XmlParse(benchmark::State& state) {
  ClusterGraph graph(static_cast<int>(state.range(0)));
  auto serialized = graph.Serialize();
  OBISWAP_CHECK(serialized.ok());
  for (auto _ : state) {
    auto doc = xml::Parse(serialized->payload);
    OBISWAP_CHECK(doc.ok());
    benchmark::DoNotOptimize(doc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(serialized->payload.size()) *
                          static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_XmlParse)->Arg(100)->Arg(500);

/// One store on a modelled link from one device: the bridge as a fetch
/// or a swap-out sees it.
struct BridgeWorld {
  BridgeWorld() {
    network.AddDevice(kDevice);
    network.AddDevice(kStore);
    network.SetInRange(kDevice, kStore, true);
    discovery.Announce(&store);
  }

  static constexpr DeviceId kDevice{1};
  static constexpr DeviceId kStore{2};
  net::Network network{1};
  net::Discovery discovery{network};
  net::StoreNode store{kStore, 64 * 1024 * 1024};
  net::StoreClient client{network, discovery, kDevice};
};

/// StoreClient::Store then Fetch of one cluster payload through the XML
/// envelopes. Arg 0: OSWB + lz77 (binary bytes, many escaped); arg 1: an
/// XML cluster document (markup, every '<', '>' and '"' escaped).
void BM_BridgeFetch(benchmark::State& state) {
  ClusterGraph graph(50);
  const std::string payload = graph.StoredPayload(state.range(0) == 0);
  BridgeWorld world;
  uint64_t key = 0;
  for (auto _ : state) {
    const SwapKey swap_key(++key);
    OBISWAP_CHECK(
        world.client.Store(BridgeWorld::kStore, swap_key, payload).ok());
    auto fetched = world.client.Fetch(BridgeWorld::kStore, swap_key);
    OBISWAP_CHECK(fetched.ok() && fetched->size() == payload.size());
    benchmark::DoNotOptimize(fetched);
    state.PauseTiming();
    OBISWAP_CHECK(world.store.Drop(swap_key).ok());
    state.ResumeTiming();
  }
  state.SetBytesProcessed(static_cast<int64_t>(payload.size()) * 2 *
                          static_cast<int64_t>(state.iterations()));
  state.counters["payload_bytes"] = static_cast<double>(payload.size());
  state.SetLabel(state.range(0) == 0 ? "oswb+lz77" : "xml");
}
BENCHMARK(BM_BridgeFetch)->Arg(0)->Arg(1);

/// xml::Parse of the fetch response envelope that carries an OSWB + lz77
/// payload: the escaped-binary case, about one entity per three bytes.
void BM_XmlParseEscapedPayload(benchmark::State& state) {
  ClusterGraph graph(50);
  const std::string payload = graph.StoredPayload(/*binary=*/true);
  BridgeWorld world;
  OBISWAP_CHECK(world.store.Store(SwapKey(1), payload).ok());
  const std::string response =
      world.discovery.ServiceFor(BridgeWorld::kStore)
          ->Handle(net::FetchRequest(SwapKey(1)));
  for (auto _ : state) {
    auto doc = xml::Parse(response);
    OBISWAP_CHECK(doc.ok());
    benchmark::DoNotOptimize(doc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(response.size()) *
                          static_cast<int64_t>(state.iterations()));
  state.counters["envelope_bytes"] = static_cast<double>(response.size());
}
BENCHMARK(BM_XmlParseEscapedPayload);

void BM_CodecCompress(benchmark::State& state) {
  ClusterGraph graph(200);
  auto serialized = graph.Serialize();
  OBISWAP_CHECK(serialized.ok());
  const compress::Codec* codec =
      compress::FindCodec(state.range(0) == 0 ? "rle" : "lz77");
  size_t out_bytes = 0;
  for (auto _ : state) {
    auto compressed = codec->Compress(serialized->payload);
    OBISWAP_CHECK(compressed.ok());
    out_bytes = compressed->size();
    benchmark::DoNotOptimize(compressed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(serialized->payload.size()) *
                          static_cast<int64_t>(state.iterations()));
  state.counters["ratio"] =
      static_cast<double>(serialized->payload.size()) /
      static_cast<double>(out_bytes);
  state.SetLabel(codec->name());
}
BENCHMARK(BM_CodecCompress)->Arg(0)->Arg(1);

void BM_CodecDecompress(benchmark::State& state) {
  ClusterGraph graph(200);
  auto serialized = graph.Serialize();
  OBISWAP_CHECK(serialized.ok());
  const compress::Codec* codec = compress::FindCodec("lz77");
  auto compressed_result = codec->Compress(serialized->payload);
  OBISWAP_CHECK(compressed_result.ok());
  std::string compressed = std::move(*compressed_result);
  for (auto _ : state) {
    auto restored = codec->Decompress(compressed);
    OBISWAP_CHECK(restored.ok());
    benchmark::DoNotOptimize(restored);
  }
  state.SetBytesProcessed(static_cast<int64_t>(serialized->payload.size()) *
                          static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CodecDecompress);

}  // namespace

BENCHMARK_MAIN();
